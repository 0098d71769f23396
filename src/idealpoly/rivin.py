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

With other objectives the same LP gives ``random_interior_points`` vertices
of P.  It puts theta_c = pi - theta_a - theta_b in for one corner c of most
triangles, whose row becomes theta_a + theta_b + t <= pi with a basic slack:
disjoint sums, as in generalized upper bounding (Dantzig & Van Slyke 1967).
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
    (kind, key).  P has no epsilon."""

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


def _row(link, kind, key):
    """Flat corners of the constraint row (kind, key)."""
    if kind == "triangle":
        return (3 * key, 3 * key + 1, 3 * key + 2)
    return link.opposite[key] if kind == "interior_edge" else link.corners_at[key]


def assemble_constraints(link):
    """Build the constraint system for one apex link."""
    eq_kinds = [("triangle", f) for f in range(len(link.bounded_faces))]
    eq_kinds += [("interior_vertex", v) for v in link.interior_vertices]
    ub_kinds = [("interior_edge", e) for e in link.interior_edges]
    ub_kinds += [("hull_vertex", w) for w in link.hull_cycle]
    b_eq = np.array([math.pi if k == "triangle" else 2.0 * math.pi for k, _ in eq_kinds])
    return ConstraintSystem(
        link=link,
        A_eq=_zero_one([_row(link, *k) for k in eq_kinds], link.n_corners),
        b_eq=b_eq,
        eq_kinds=tuple(eq_kinds),
        A_ub=_zero_one([_row(link, *k) for k in ub_kinds], link.n_corners),
        b_ub=np.full(len(ub_kinds), math.pi),
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


def _eliminated(system):
    """{c: (a, b)}: the corner c each bounded link triangle gives up, and its
    other two.  A corner at an interior link vertex comes first, and no
    inequality row of ``A_ub`` holds two, so every inequality right-hand side
    stays pi or 0; a triangle with no such corner keeps its equality row."""
    rows_of = {}  # corner -> the inequality rows that hold it
    for r, c in zip(*(i.tolist() for i in np.nonzero(system.A_ub))):
        rows_of.setdefault(c, []).append(r)
    interior, used, cut = set(system.link.interior_vertices), set(), {}
    for f, face in enumerate(system.link.bounded_faces):
        for s in sorted(range(3), key=lambda s: face[s] not in interior):
            rows = rows_of.get(3 * f + s, ())
            if used.isdisjoint(rows):
                used.update(rows)
                cut[3 * f + s] = (3 * f + (s + 1) % 3, 3 * f + (s + 2) % 3)
                break
    return cut


def _lp_on_p(system):
    """The one LP over P, built once: solve(objective, t_weight) maximizes
    objective.theta + t_weight*t over the theta in P whose corners and
    inequality slacks are all >= t, as (z, t) >= 0 with theta = theta0 +
    E(z + t), and returns the LPResult and, when optimal, theta.  E maps the
    kept corners; an ``_eliminated`` c has E[c] = -E[a] - E[b], theta0_c = pi
    and the row theta_c >= t.  P's rows become rows times E, less pi per
    eliminated corner on the right (negated if negative; an eliminated
    triangle's 0 = 0 drops out)."""
    n, cut = system.n_vars, _eliminated(system)
    cuts = np.fromiter(cut, dtype=np.int64, count=len(cut))
    a, b = np.array(list(cut.values()), dtype=np.int64).reshape(-1, 2).T
    kept = np.delete(np.arange(n), cuts)
    E = np.zeros((n, kept.size))
    E[kept, np.arange(kept.size)] = 1.0
    E[cuts] = -E[a] - E[b]

    def rows(AE, units, t_extra):  # t's coefficient is the row sum plus t_extra
        live = AE.any(axis=1)
        AE, sign = AE[live], np.where(units[live] < 0.0, -1.0, 1.0)
        AE = np.hstack([AE, AE.sum(axis=1, keepdims=True) + t_extra])
        return AE * sign[:, None], units[live] * math.pi * sign

    eq_units = system.b_eq / math.pi - system.A_eq[:, cuts].sum(axis=1)
    ub_units = system.b_ub / math.pi - system.A_ub[:, cuts].sum(axis=1)
    constraints = (*rows(system.A_eq @ E, eq_units, 0.0),
                   *rows(np.vstack([-E[cuts], system.A_ub @ E]),
                         np.append(np.ones(cuts.size), ub_units), 1.0))

    def solve(objective, t_weight):
        z_objective = E.T @ objective
        res = simplex.solve(np.append(z_objective, z_objective.sum() + t_weight), *constraints)
        if res.status != "optimal":
            return res, None
        t, z = float(res.x[-1]), np.zeros(n)
        z[kept] = res.x[:-1]
        z[cuts] = math.pi - 3.0 * t - z[a] - z[b]
        return res, z + t

    return solve


def check_feasible(system, epsilon=DEFAULT_EPSILON):
    """Realizability at a tolerance epsilon in (0, pi) and a slack-centered
    witness: ``_lp_on_p`` maximizes t alone.  Its optimum t* is
    ``min_slack``; the link is realizable iff t* >= epsilon, with the LP's
    theta as witness, else the certificate is epsilon - t*, or the phase-1
    residual when P is empty."""
    if not 0.0 < epsilon < math.pi:
        raise InputError(f"epsilon {epsilon!r} outside (0, pi)")
    res, theta = _lp_on_p(system)(np.zeros(system.n_vars), 1.0)
    if res.status == "infeasible":
        return RealizabilityResult(False, system, None, float(res.phase1_objective), math.nan)
    if res.status != "optimal":
        raise NumericalFailure(f"centering LP status {res.status}")
    t = float(res.x[-1])
    if t < epsilon:
        return RealizabilityResult(False, system, None, epsilon - t, t)
    return RealizabilityResult(True, system, theta, 0.0, t)


def is_realizable(t, epsilon=DEFAULT_EPSILON, apex=None):
    """Realizability of a sphere triangulation as a convex ideal polyhedron."""
    if apex is None:
        apex = choose_apex(t)
    return check_feasible(assemble_constraints(build_link(t, apex)), epsilon)


def random_interior_points(result, count, rng):
    """Strictly interior points of a realizable result's polytope P: random
    convex combinations of vertices of P (LPs with random objectives) and of
    its centered witness, which keeps a 25% share, so every slack is >= t*/4."""
    if not result.realizable:
        raise InputError("system is infeasible; no interior points exist")
    system, vertices = result.system, [result.witness]
    solve = _lp_on_p(system)
    for _ in range(max(4, min(8, system.n_vars))):
        res, theta = solve(rng.standard_normal(system.n_vars), 0.0)
        if res.status == "optimal":
            vertices.append(theta)
    V = np.array(vertices)
    anchor = 0.25 * np.eye(len(vertices))[0]  # the witness's share keeps points interior
    return [V.T @ (anchor + 0.75 * rng.dirichlet(np.ones(len(vertices)))) for _ in range(count)]
