"""Linear realizability conditions for ideal polyhedra, cone-from-infinity form.

With one vertex sent to infinity, the corner angles of the bounded link
triangles must satisfy:

  * each triangle's corners sum to pi (equality),
  * the corners around each interior link vertex sum to 2*pi (equality),
  * the two corners opposite an interior link edge sum to < pi,
  * the corners at each hull vertex sum to < pi (convexity of the vertical
    edge above it),
  * every corner is positive.

Strict inequalities are relaxed by a tolerance epsilon.  One LP decides
feasibility and centers the witness: it maximizes the minimum slack t over
the shifted corners y = theta - epsilon = z + t with z, t >= 0, so the corner
lower bounds need no rows of their own.  Its phase 1 decides feasibility
(t = 0 is the plain system), and its optimum is a strictly interior start
for the downstream barrier method.
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
    """0/1 rows over flat corner indices (corner = 3*face + slot).

    ``eq_rows``/``ub_rows`` are (indices, rhs, kind, key) tuples; the epsilon
    relaxation is already folded into the right-hand sides.  Corner lower
    bounds theta >= epsilon are kept implicit.
    """

    link: object
    epsilon: float
    n_vars: int
    eq_rows: tuple
    ub_rows: tuple

    def _matrix(self, rows):
        A = np.zeros((len(rows), self.n_vars))
        b = np.zeros(len(rows))
        for i, (idx, rhs, _, _) in enumerate(rows):
            A[i, list(idx)] = 1.0
            b[i] = rhs
        return A, b

    def eq_matrix(self):
        return self._matrix(self.eq_rows)

    def ub_matrix(self):
        return self._matrix(self.ub_rows)


def flat(corner):
    f, s = corner
    return 3 * f + s


def assemble_constraints(link, epsilon=DEFAULT_EPSILON):
    """Build the constraint system for one apex link."""
    if not 0.0 < epsilon < math.pi:
        raise InputError(f"epsilon {epsilon!r} outside (0, pi)")
    n_vars = link.n_corners

    eq_rows = []
    for f in range(len(link.bounded_faces)):
        eq_rows.append(((3 * f, 3 * f + 1, 3 * f + 2), math.pi, "triangle", f))
    for v in link.interior_vertices:
        idx = tuple(flat(c) for c in link.corners_at[v])
        eq_rows.append((idx, 2.0 * math.pi, "interior_vertex", v))

    ub_rows = []
    for e in link.interior_edges:
        idx = tuple(flat(c) for c in link.opposite[e])
        ub_rows.append((idx, math.pi - epsilon, "interior_edge", e))
    for w in link.hull_cycle:
        idx = tuple(flat(c) for c in link.corners_at[w])
        ub_rows.append((idx, math.pi - epsilon, "hull_vertex", w))

    return ConstraintSystem(
        link=link,
        epsilon=epsilon,
        n_vars=n_vars,
        eq_rows=tuple(eq_rows),
        ub_rows=tuple(ub_rows),
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: object  # flat ndarray of corner angles, or None
    certificate: float  # phase-1 objective (or -t > 0) when infeasible
    min_slack: float  # centered minimum slack when feasible


def _standard_form(system):
    """Shift to y = theta - epsilon >= 0 and return (A_eq, b_eq, A_ub, b_ub)."""
    eps = system.epsilon
    A_eq, b_eq = system.eq_matrix()
    A_ub, b_ub = system.ub_matrix()
    b_eq = b_eq - eps * A_eq.sum(axis=1)
    b_ub = b_ub - eps * A_ub.sum(axis=1)
    return A_eq, b_eq, A_ub, b_ub


def check_feasible(system):
    """Feasibility and a slack-centered witness from one LP.

    In the variables (z, t) >= 0 with y = z + t, maximize t subject to
    A_eq y = b_eq and A_ub y + t <= b_ub: every inequality slack and every
    corner lower-bound slack is then >= t.  The witness is z + t + epsilon
    and ``min_slack`` is the optimal t.  When the system is infeasible, the
    LP's phase-1 optimum is the certificate; it equals the plain system's,
    because t = 0 recovers that system and t > 0 only tightens it.

    Phase 1 accepts a residual up to the simplex tolerance, so a system that
    is empty only by rounding can reach phase 2 with an optimal t < 0: no
    point makes every slack non-negative.  That is reported infeasible, with
    certificate -t > 0 and ``min_slack`` nan.
    """
    A_eq, b_eq, A_ub, b_ub = _standard_form(system)
    n = system.n_vars
    A_eq2 = np.hstack([A_eq, A_eq.sum(axis=1, keepdims=True)])
    A_ub2 = np.hstack([A_ub, A_ub.sum(axis=1, keepdims=True) + 1.0])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = simplex.solve(c, A_eq2, b_eq, A_ub2, b_ub, maximize=True)
    if res.status == "infeasible":
        return FeasibilityResult(
            feasible=False,
            witness=None,
            certificate=float(res.phase1_objective),
            min_slack=float("nan"),
        )
    if res.status != "optimal":
        raise NumericalFailure(f"centering LP status {res.status}")
    t = float(res.x[-1])
    if t < 0.0:
        return FeasibilityResult(
            feasible=False, witness=None, certificate=-t, min_slack=float("nan")
        )
    witness = res.x[:n] + t + system.epsilon
    return FeasibilityResult(
        feasible=True, witness=witness, certificate=0.0, min_slack=t
    )


@dataclass(frozen=True)
class RealizabilityResult:
    realizable: bool
    apex: int
    link: object
    system: ConstraintSystem
    witness: object
    certificate: float


def is_realizable(t, epsilon=DEFAULT_EPSILON, apex=None):
    """Realizability of a sphere triangulation as a convex ideal polyhedron."""
    if apex is None:
        apex = choose_apex(t)
    link = build_link(t, apex)
    system = assemble_constraints(link, epsilon)
    res = check_feasible(system)
    return RealizabilityResult(
        realizable=res.feasible,
        apex=apex,
        link=link,
        system=system,
        witness=res.witness,
        certificate=res.certificate,
    )


def witness_slacks(system, theta):
    """Minimum slack over all constraints, and max equality residual."""
    A_eq, b_eq = system.eq_matrix()
    A_ub, b_ub = system.ub_matrix()
    eq_res = 0.0
    if A_eq.shape[0]:
        eq_res = float(np.max(np.abs(A_eq @ theta - b_eq)))
    slacks = [float(np.min(theta) - system.epsilon)]
    if A_ub.shape[0]:
        slacks.append(float(np.min(b_ub - A_ub @ theta)))
    return min(slacks), eq_res


def random_interior_points(system, count, rng):
    """Strictly interior points via random convex combinations of LP vertices.

    Solves a few LPs with random objectives (simplex returns vertices of the
    feasible polytope) and mixes them with Dirichlet weights together with the
    centered witness.
    """
    base = check_feasible(system)
    if not base.feasible:
        raise InputError("system is infeasible; no interior points exist")
    A_eq, b_eq, A_ub, b_ub = _standard_form(system)
    n = system.n_vars
    vertices = [base.witness - system.epsilon]
    for _ in range(max(4, min(8, n))):
        c = rng.standard_normal(n)
        res = simplex.solve(c, A_eq, b_eq, A_ub, b_ub, maximize=True)
        if res.status == "optimal":
            vertices.append(res.x)
    V = np.array(vertices)
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(len(vertices)))
        # anchor a minimum share on the centered witness for strict interiority
        w = 0.25 * np.eye(len(vertices))[0] + 0.75 * w
        out.append(V.T @ w + system.epsilon)
    return out
