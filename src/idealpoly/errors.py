"""Exception types with stable machine-readable codes.

Every error carries a ``code`` (stable across releases, used by the CLI's
JSON error output) and an ``exit_code`` (1 = bad input, 2 = negative
mathematical result, 3 = numerical failure).
"""


class IdealPolyError(Exception):
    code = "ERROR"
    exit_code = 1


class EulerViolation(IdealPolyError):
    code = "EULER_VIOLATION"


class NonManifoldEdge(IdealPolyError):
    code = "NON_MANIFOLD_EDGE"


class Disconnected(IdealPolyError):
    code = "DISCONNECTED"


class DegenerateFace(IdealPolyError):
    code = "DEGENERATE_FACE"


class InvalidVertex(IdealPolyError):
    code = "INVALID_VERTEX"


class InputError(IdealPolyError):
    code = "INPUT_ERROR"


class InputNotFound(InputError):
    code = "INPUT_NOT_FOUND"


class NotRealizable(IdealPolyError):
    code = "NOT_REALIZABLE"
    exit_code = 2


class NumericalFailure(IdealPolyError):
    code = "NUMERICAL_FAILURE"
    exit_code = 3


class InfeasibleStart(IdealPolyError):
    code = "INFEASIBLE_START"
    exit_code = 3


class DegenerateSample(IdealPolyError):
    code = "DEGENERATE_SAMPLE"
    exit_code = 3


class DegenerateTriangle(IdealPolyError):
    code = "DEGENERATE_TRIANGLE"
    exit_code = 3


class LayoutInconsistent(IdealPolyError):
    code = "LAYOUT_INCONSISTENT"
    exit_code = 3


class FitDiverged(IdealPolyError):
    code = "FIT_DIVERGED"
    exit_code = 3
