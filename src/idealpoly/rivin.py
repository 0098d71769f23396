"""Linear realizability conditions for ideal polyhedra, cone-from-infinity form.

With one vertex sent to infinity, the corner angles of the bounded link
triangles must satisfy:

  * each triangle's corners sum to pi (equality),
  * the corners around each interior link vertex sum to 2*pi (equality),
  * the two corners opposite an interior link edge sum to < pi,
  * the corners at each hull vertex sum to < pi (convexity of the vertical
    edge above it),
  * every corner is positive.

The constraint system is their closed polytope P.  The strict inequalities
ask for an interior point, so ``check_feasible`` solves one LP on P itself:
it maximizes the minimum slack t over theta = z + t with z, t >= 0, so the
corner lower bounds need no rows of their own.  Its phase 1 decides whether
P is empty; its optimum t* is the largest minimum slack of any point of P,
and its theta a strictly interior start for the downstream barrier method
when t* > 0.  A tolerance epsilon in (0, pi) only thresholds t*.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import InputError, NumericalFailure
from .triang import build_link, choose_apex

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class ConstraintSystem:
    """Rivin's closed polytope P of angle structures over flat corner indices
    (corner = 3*face + slot): A_eq theta = b_eq, A_ub theta <= b_ub,
    theta >= 0, with 0/1 rows that ``eq_kinds``/``ub_kinds`` name as
    (kind, key).  P has no epsilon; ``check_feasible`` only thresholds
    its largest minimum slack by one.
    """

    link: object
    A_eq: object  # ndarray (rows, n_vars)
    b_eq: object  # ndarray: pi per triangle, 2*pi per interior vertex
    eq_kinds: tuple
    A_ub: object
    b_ub: object  # ndarray of pi
    ub_kinds: tuple

    @property
    def n_vars(self):
        return self.A_eq.shape[1]


def _zero_one(rows, n_vars):
    """0/1 matrix with a one at every flat index of each row, in one scatter."""
    A = np.zeros((len(rows), n_vars))
    row_of = [r for r, idx in enumerate(rows) for _ in idx]
    A[row_of, [i for idx in rows for i in idx]] = 1.0
    return A


def assemble_constraints(link):
    """Build the constraint system for one apex link."""
    n_faces = len(link.bounded_faces)
    eq_idx = [(3 * f, 3 * f + 1, 3 * f + 2) for f in range(n_faces)]
    eq_idx += [link.corners_at[v] for v in link.interior_vertices]
    eq_kinds = [("triangle", f) for f in range(n_faces)]
    eq_kinds += [("interior_vertex", v) for v in link.interior_vertices]
    b_eq = np.full(len(eq_idx), 2.0 * math.pi)
    b_eq[:n_faces] = math.pi

    ub_idx = [link.opposite[e] for e in link.interior_edges]
    ub_idx += [link.corners_at[w] for w in link.hull_cycle]
    ub_kinds = [("interior_edge", e) for e in link.interior_edges]
    ub_kinds += [("hull_vertex", w) for w in link.hull_cycle]

    return ConstraintSystem(
        link=link,
        A_eq=_zero_one(eq_idx, link.n_corners),
        b_eq=b_eq,
        eq_kinds=tuple(eq_kinds),
        A_ub=_zero_one(ub_idx, link.n_corners),
        b_ub=np.full(len(ub_idx), math.pi),
        ub_kinds=tuple(ub_kinds),
    )


@dataclass(frozen=True)
class RealizabilityResult:
    realizable: bool
    system: ConstraintSystem
    witness: object  # flat ndarray of corner angles when realizable, else None
    certificate: float  # epsilon - t* > 0, or the phase-1 residual when P is empty
    min_slack: float  # t*, nan when P is empty

    @property
    def link(self):
        return self.system.link

    @property
    def apex(self):
        return self.system.link.apex


def check_feasible(system, epsilon=DEFAULT_EPSILON):
    """Realizability at a tolerance epsilon in (0, pi) and a slack-centered
    witness from one LP over P.

    In the variables (z, t) >= 0 with theta = z + t, maximize t subject to
    A_eq theta = b_eq and A_ub theta + t <= b_ub: every inequality slack and
    every corner is then >= t.  The optimum t* is ``min_slack``, and the link
    is realizable iff t* >= epsilon, with witness z + t*.  Otherwise the
    certificate is epsilon - t*, or the phase-1 residual when P is empty.
    """
    if not 0.0 < epsilon < math.pi:
        raise InputError(f"epsilon {epsilon!r} outside (0, pi)")
    A_eq, A_ub = system.A_eq, system.A_ub
    n = system.n_vars
    A_eq2 = np.hstack([A_eq, A_eq.sum(axis=1, keepdims=True)])
    A_ub2 = np.hstack([A_ub, A_ub.sum(axis=1, keepdims=True) + 1.0])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = simplex.solve(c, A_eq2, system.b_eq, A_ub2, system.b_ub, maximize=True)
    if res.status == "infeasible":
        return RealizabilityResult(False, system, None, float(res.phase1_objective), math.nan)
    if res.status != "optimal":
        raise NumericalFailure(f"centering LP status {res.status}")
    t = float(res.x[-1])
    if t < epsilon:
        return RealizabilityResult(False, system, None, epsilon - t, t)
    return RealizabilityResult(True, system, res.x[:n] + t, 0.0, t)


def is_realizable(t, epsilon=DEFAULT_EPSILON, apex=None):
    """Realizability of a sphere triangulation as a convex ideal polyhedron."""
    if apex is None:
        apex = choose_apex(t)
    return check_feasible(assemble_constraints(build_link(t, apex)), epsilon)


def random_interior_points(system, count, rng):
    """Strictly interior points via random convex combinations of LP vertices.

    Solves a few LPs with random objectives (simplex returns vertices of P)
    and mixes them with Dirichlet weights together with the centered witness,
    which keeps a 25% share, so every slack is at least t*/4 > 0.
    """
    base = check_feasible(system)
    if not base.realizable:
        raise InputError("system is infeasible; no interior points exist")
    n = system.n_vars
    vertices = [base.witness]
    for _ in range(max(4, min(8, n))):
        c = rng.standard_normal(n)
        res = simplex.solve(c, system.A_eq, system.b_eq, system.A_ub, system.b_ub, maximize=True)
        if res.status == "optimal":
            vertices.append(res.x)
    V = np.array(vertices)
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(len(vertices)))
        # anchor a minimum share on the centered witness for strict interiority
        w = 0.25 * np.eye(len(vertices))[0] + 0.75 * w
        out.append(V.T @ w)
    return out
