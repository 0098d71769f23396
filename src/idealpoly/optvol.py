"""Volume maximization over the realizability polytope of a fixed type.

The objective (the Lobachevsky sum over all corners) is strictly concave on
the triangle-sum constraint surface, so a deterministic convex method
suffices: equalities are eliminated onto a reduced coordinate system, a
logarithmic barrier with geometric continuation follows the central path,
and an active-set Newton polish drives the KKT residual to ~1e-13 so that
rational-angle detection at 1e-10 is meaningful.

Inequalities are barriered at their true (epsilon = 0) positions; the
epsilon-relaxed system is only used to produce a strictly interior start.
Optima on the boundary (flat edges) are reported through the active set, and
angles within 1e-7 of a bound are flagged boundary-active, never clipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, rivin, specfun
from .errors import InfeasibleStart, LineSearchStall, NumericalFailure
from .triang import edge_key

BOUNDARY_TOL = 1e-7


@dataclass(frozen=True)
class AngleAssignment:
    """Corner angles in radians, indexed like the link's bounded faces."""

    link: object
    values: object  # ndarray of shape (len(bounded_faces), 3)

    @property
    def flat(self):
        return np.asarray(self.values, dtype=float).reshape(-1)


def volume(angles):
    """Hyperbolic volume: the Lobachevsky sum over all corners."""
    flat = angles.flat
    if np.any(flat <= 0.0) or np.any(flat >= math.pi):
        raise ValueError("corner angles must lie in (0, pi)")
    return _kernels.lobachevsky_sum(flat.tolist())


# Degenerate optima may pin corners to 0 (a collapsing link triangle, which
# contributes zero volume in the limit).  The null basis of the pinned system
# has no component along such coordinates, so the derivatives of corners
# within _PINNED of 0 or pi are masked to 0 rather than evaluated.
_PINNED = 1e-12


def volume_gradient(flat_angles):
    """d(volume)/d(corner) = -log|2 sin theta| per corner, 0 where pinned.

    The log is libm's, not numpy's: the two differ in the last bit on some
    points.
    """
    theta = np.asarray(flat_angles, dtype=float)
    out = np.zeros_like(theta)
    free = (theta > _PINNED) & (theta < math.pi - _PINNED)
    x = 2.0 * np.abs(np.sin(theta[free]))
    out[free] = -np.fromiter(map(math.log, x.tolist()), float, len(x))
    return out


def _hessian_diag(theta):
    """d2(volume)/d(corner)2 = -cot theta per corner, 0 where pinned."""
    out = np.zeros_like(theta)
    free = (theta > _PINNED) & (theta < math.pi - _PINNED)
    out[free] = -np.cos(theta[free]) / np.sin(theta[free])
    return out


def _volume_flat(flat_angles):
    return _kernels.lobachevsky_sum(list(flat_angles))


@dataclass(frozen=True)
class DihedralAngles:
    """Dihedral angle per parent edge.

    Rule: interior link edge -> sum of the two opposite corners; hull link
    edge -> its single opposite corner; vertical edge above hull vertex w
    -> sum of the corners at w.
    """

    per_edge: dict

    def values(self):
        return [self.per_edge[e] for e in sorted(self.per_edge)]


def dihedral_angles(angles):
    link = angles.link
    th = np.asarray(angles.values, dtype=float)
    out = {}
    for e in link.interior_edges:
        (f1, s1), (f2, s2) = link.opposite[e]
        out[e] = float(th[f1, s1] + th[f2, s2])
    for e in link.hull_edges:
        ((f, s),) = link.opposite[e]
        out[e] = float(th[f, s])
    for w in link.hull_cycle:
        out[edge_key(link.apex, w)] = float(
            sum(th[f, s] for f, s in link.corners_at[w])
        )
    assert set(out) == set(link.parent.edges())
    return DihedralAngles(per_edge=out)


@dataclass(frozen=True)
class RationalAngle:
    p: int
    q: int
    error: float

    def __str__(self):
        return f"{self.p}/{self.q} π"


def detect_rational(theta, max_denominator=100, tol=1e-10):
    """Continued-fraction detection of theta as a rational multiple of pi.

    Walks the convergents p_k/q_k of theta/pi and returns the first one with
    q_k <= max_denominator and |theta/pi - p_k/q_k| < tol (convergents are
    automatically in lowest terms), or None.
    """
    if theta <= 0.0:
        return None
    x = theta / math.pi
    h_prev, k_prev = 1, 0
    a = math.floor(x)
    h, k = int(a), 1
    frac = x - a
    for _ in range(64):
        if k > max_denominator:
            return None
        if h >= 1 and abs(x - h / k) < tol:
            return RationalAngle(p=h, q=k, error=abs(x - h / k))
        if frac < 1e-15:
            return None
        y = 1.0 / frac
        a = math.floor(y)
        frac = y - a
        h, h_prev = int(a) * h + h_prev, h
        k, k_prev = int(a) * k + k_prev, k
    return None


@dataclass(frozen=True)
class ShapeParameters:
    """Unit-modulus edge invariants exp(i*(alpha+beta)) per interior edge."""

    per_interior_edge: dict


def shape_parameters(angles):
    link = angles.link
    th = np.asarray(angles.values, dtype=float)
    out = {}
    for e in link.interior_edges:
        (f1, s1), (f2, s2) = link.opposite[e]
        s = float(th[f1, s1] + th[f2, s2])
        out[e] = complex(math.cos(s), math.sin(s))
    return ShapeParameters(per_interior_edge=out)


@dataclass(frozen=True)
class OptResult:
    angles: AngleAssignment
    volume: float
    kkt_residual: float
    dihedrals: DihedralAngles
    active_constraints: tuple  # (kind, key) rows binding at the optimum
    boundary_active: bool
    barrier_volumes: tuple  # central-path volumes, nondecreasing
    newton_iterations: int


def _constraint_data(system):
    """Equality matrix and true (epsilon = 0) inequality rows of a system.

    G stacks -I (corners >= 0) over the 0/1 inequality rows, whose right-hand
    side is pi: the epsilon relaxation only serves the interior start.
    """
    A_eq, b_eq = system.eq_matrix()
    A_ub, _ = system.ub_matrix()
    m = system.n_vars
    G = np.vstack([-np.eye(m), A_ub])
    h = np.concatenate([np.zeros(m), np.full(len(system.ub_rows), math.pi)])
    kinds = [("corner", (f, s)) for f in range(m // 3) for s in range(3)]
    kinds += [(kind, key) for _, _, kind, key in system.ub_rows]
    return A_eq, b_eq, G, h, kinds


def _null_space(A, m):
    if A.shape[0] == 0:
        return np.eye(m)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return Vt[rank:].T


def _particular(A, b):
    if A.shape[0] == 0:
        return np.zeros(A.shape[1])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def _newton_max(theta_p, N, G, h, u, mu, tol, max_iter):
    """Damped Newton ascent on phi(u) = V(theta) + mu * sum(log slacks).

    A step is accepted on either the Armijo condition for phi or a decrease
    of the gradient norm; near the optimum phi differences sink below float
    noise, and the gradient-norm test is what carries Newton's quadratic
    tail down to ~1e-15.
    """
    GN = G @ N

    def phi(theta, s):
        barrier = mu * float(np.sum(np.log(s))) if mu > 0.0 else 0.0
        return _volume_flat(theta) + barrier

    def grad_at(uu):
        theta = theta_p + N @ uu
        s = h - G @ theta
        if not np.all(s > 0.0):
            return theta, s, None
        g = N.T @ volume_gradient(theta)
        if mu > 0.0:
            g = g - mu * (GN.T @ (1.0 / s))
        return theta, s, g

    iters = 0
    gnorm = 0.0
    for _ in range(max_iter):
        theta, s, g = grad_at(u)
        if g is None:
            raise LineSearchStall("current point is not strictly feasible")
        H = (N.T * _hessian_diag(theta)) @ N
        if mu > 0.0:
            H = H - mu * (GN.T * (1.0 / (s * s))) @ GN
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return u, gnorm, iters
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(-H, g, rcond=None)[0]
        phi0 = phi(theta, s)
        slope = float(g @ step)
        if slope <= 0.0:  # not an ascent direction: H lost definiteness
            step = g
            slope = float(g @ g)
        t = 1.0
        accepted = False
        while t > 1e-14:
            u_try = u + t * step
            theta_try, s_try, g_try = grad_at(u_try)
            if g_try is not None:
                if float(np.linalg.norm(g_try)) <= (1.0 - 1e-4 * t) * gnorm:
                    accepted = True
                    break
                if phi(theta_try, s_try) >= phi0 + 1e-4 * t * slope:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise LineSearchStall(
                f"line search stalled at mu={mu:g}, |grad|={gnorm:g}"
            )
        u = u_try
        iters += 1
    return u, gnorm, iters


def maximize_volume(link, epsilon=rivin.DEFAULT_EPSILON, start=None):
    """Unique volume maximizer for one apex link.

    ``start`` must be strictly interior (true slacks positive, equalities
    within 1e-8); when omitted, the centered feasibility witness at
    ``epsilon`` is used.  Raises InfeasibleStart when no interior start can
    be produced.
    """
    system = rivin.assemble_constraints(link, epsilon)
    A_eq, b_eq, G, h, kinds = _constraint_data(system)
    m = system.n_vars

    if start is None:
        res = rivin.check_feasible(system)
        if not res.feasible or res.min_slack <= 0.0:
            raise InfeasibleStart(
                f"no strictly interior point at epsilon={epsilon:g} "
                f"(certificate {res.certificate:g})"
            )
        theta0 = res.witness
    else:
        theta0 = np.asarray(start, dtype=float).reshape(-1)
        if theta0.size != m:
            raise InfeasibleStart(f"start has {theta0.size} corners, expected {m}")
        if A_eq.shape[0] and np.max(np.abs(A_eq @ theta0 - b_eq)) > 1e-8:
            raise InfeasibleStart("start violates the equality constraints")
        if np.any(h - G @ theta0 <= 0.0):
            raise InfeasibleStart("start is not strictly interior")

    N = _null_space(A_eq, m)
    theta_p = _particular(A_eq, b_eq)
    u = N.T @ (theta0 - theta_p)

    path_volumes = []
    total_iters = 0
    mu = 1e-1
    while mu > 1e-9:
        vol_now = _volume_flat(theta_p + N @ u)
        tol = max(1e-10 * (1.0 + abs(vol_now)), 2.0 * mu)
        try:
            u, gnorm, iters = _newton_max(theta_p, N, G, h, u, mu, tol, 200)
        except LineSearchStall:
            # parked against the boundary; the active-set polish finishes
            break
        total_iters += iters
        path_volumes.append(_volume_flat(theta_p + N @ u))
        mu *= 0.2

    theta = theta_p + N @ u
    slacks = h - G @ theta

    # active-set polish: pin near-active rows as equalities, Newton to
    # machine precision, then verify multiplier signs.  Rows are added when
    # they block progress and dropped (one per round) on a negative
    # multiplier; inconsistent pinned systems shed their loosest row.
    active = set(int(i) for i in np.flatnonzero(slacks < BOUNDARY_TOL))
    N2 = N
    for _ in range(30):
        act = sorted(active)
        A2 = np.vstack([A_eq, G[act]])
        b2 = np.concatenate([b_eq, h[act]])
        theta_p2 = _particular(A2, b2)
        if act and float(np.max(np.abs(A2 @ theta_p2 - b2))) > 1e-8:
            # pinned rows are mutually inconsistent: release the loosest
            loosest = max(act, key=lambda i: float(h[i] - G[i] @ theta))
            active.discard(loosest)
            continue
        N2 = _null_space(A2, m)
        inactive = np.array(sorted(set(range(G.shape[0])) - active), dtype=int)
        G2 = G[inactive]
        h2 = h[inactive]
        u2 = N2.T @ (theta - theta_p2)
        start = theta_p2 + N2 @ u2
        if inactive.size:
            s_start = h2 - G2 @ start
            j = int(np.argmin(s_start))
            if s_start[j] <= 0.0:
                active.add(int(inactive[j]))
                continue
        try:
            u2, gnorm, iters = _newton_max(theta_p2, N2, G2, h2, u2, 0.0, 1e-12, 60)
        except LineSearchStall:
            # blocked by an inactive constraint: pin the tightest one
            th_try = theta_p2 + N2 @ u2
            s_try = h2 - G2 @ th_try
            active.add(int(inactive[int(np.argmin(s_try))]))
            continue
        total_iters += iters
        theta = theta_p2 + N2 @ u2
        if inactive.size:
            s_in = h2 - G2 @ theta
            j = int(np.argmin(s_in))
            if s_in[j] < 1e-12 or (gnorm > 1e-10 and s_in[j] < 1e-6):
                active.add(int(inactive[j]))
                continue
        if act:
            coef, *_ = np.linalg.lstsq(A2.T, volume_gradient(theta), rcond=None)
            lam = coef[A_eq.shape[0]:]
            # corner rows pinned at zero have a divergent slope in theta_c
            # alone; their multiplier is meaningless, so they are kept
            def pinned_at_zero(row):
                kind, key = kinds[row]
                return kind == "corner" and theta[3 * key[0] + key[1]] < 1e-9

            droppable = [i for i in range(len(act)) if not pinned_at_zero(act[i])]
            if droppable:
                worst = min(droppable, key=lambda i: lam[i])
                if lam[worst] < -1e-9:
                    active.discard(act[worst])
                    continue
        break
    else:
        raise NumericalFailure("active-set polish did not settle")

    final_gnorm = float(np.linalg.norm(N2.T @ volume_gradient(theta)))
    vol = _volume_flat(theta)

    values = theta.reshape(-1, 3)
    assignment = AngleAssignment(link=link, values=values)
    active_kinds = tuple(kinds[i] for i in sorted(active))
    return OptResult(
        angles=assignment,
        volume=float(vol),
        kkt_residual=final_gnorm,
        dihedrals=dihedral_angles(assignment),
        active_constraints=active_kinds,
        boundary_active=bool(active) or bool(np.any(h - G @ theta < BOUNDARY_TOL)),
        barrier_volumes=tuple(path_volumes),
        newton_iterations=total_iters,
    )


def regular_tetrahedron_volume():
    """Volume of the regular ideal tetrahedron, the n = 4 maximum."""
    return 3.0 * specfun.lobachevsky(math.pi / 3.0)
