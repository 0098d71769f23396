"""Volume maximization over the realizability polytope of a fixed type.

The objective (the Lobachevsky sum over all corners) is strictly concave on the
triangle-sum constraint surface, so a convex method suffices: equalities are
eliminated onto reduced coordinates and a logarithmic barrier follows the
central path from secant-predicted starts.  How fast each slack falls over the
last round names the optimum's face, and one Newton on that face drives the KKT
residual to ~1e-13, so rational-angle detection at 1e-10 is meaningful.  Every
step is a Newton step; one that does not ascend ends its solve.

Inequalities hold at epsilon = 0 (the relaxed system only gives an interior
start) as corner bounds theta >= 0, whose slacks are the corners themselves,
and 0/1 rows U theta <= pi.  A face pins a corner by removing it from the
variables at exactly 0 (the third corner of a triangle with two pinned at pi)
and a row by adding it to the equalities; one SVD per equality system gives its
null basis, least-squares point and multipliers.  Boundary optima are reported
through the active set and flagged boundary-active, never clipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rivin, specfun
from .errors import InfeasibleStart, NumericalFailure
from .triang import edge_key

BOUNDARY_TOL = 1e-7


def volume(angles):
    """Hyperbolic volume: the Lobachevsky sum over all corner angles."""
    flat = np.asarray(angles, dtype=float).reshape(-1)
    if not np.all((flat > 0.0) & (flat < math.pi)):  # NaN fails both
        raise ValueError("corner angles must lie in (0, pi)")
    return specfun.lobachevsky_sum(flat)


def volume_gradient(flat_angles, sin=None):
    """d(volume)/d(corner) = -log|2 sin theta| per corner in (0, pi].

    ``sin`` is ``np.sin`` of the same angles, when the caller has it.  The
    log is libm's, not numpy's: the two differ in the last bit on some
    points.
    """
    theta = np.asarray(flat_angles, dtype=float)
    x = 2.0 * np.abs(np.sin(theta) if sin is None else sin)
    return -np.fromiter(map(math.log, x.tolist()), float, len(x))


def _hessian_diag(theta, sin=None):
    """d2(volume)/d(corner)2 = -cot theta per corner in (0, pi]."""
    return -np.cos(theta) / (np.sin(theta) if sin is None else sin)


def dihedral_angles(link, angles):
    """Dihedral angle in radians per parent edge, as {edge: radians}.

    ``angles`` holds the corner angles of ``link`` in any shape, read in
    row-major order, so the link's flat corner ids index it.  Rule: link
    edge -> sum of its opposite corners (two for an interior edge, one for
    a hull edge); vertical edge above hull vertex w -> sum of the corners
    at w.
    """
    th = np.asarray(angles, dtype=float).reshape(-1)
    out = {e: float(sum(th[c] for c in cs)) for e, cs in link.opposite.items()}
    for w in link.hull_cycle:
        out[edge_key(link.apex, w)] = float(sum(th[c] for c in link.corners_at[w]))
    assert set(out) == set(link.parent.edges())
    return out


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
class OptResult:
    """The volume maximizer of one apex link.  Its dihedral angles are
    ``dihedral_angles(result.link, result.angles)``."""

    link: object
    angles: object  # ndarray (len(link.bounded_faces), 3) of corner radians
    volume: float
    kkt_residual: float
    active_constraints: tuple  # (kind, key) rows binding at the optimum
    boundary_active: bool
    barrier_volumes: tuple  # central-path volumes, nondecreasing
    newton_iterations: int


def _slacks(theta, U, b):
    """Slacks of the bounds theta >= 0, then of the rows U theta <= b."""
    return np.concatenate((theta, b - U @ theta))


def _factor(A, b):
    """Null basis, least-squares point V_r S_r^-1 U_r^T b (refined once), its
    largest residual and the multiplier map grad -> U_r S_r^-1 V_r^T grad of
    A theta = b, from one SVD.  Singular values below 1e-10 of the largest are 0.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > 1e-10 * s[0]))
    W, Vr = U[:, :r] / s[:r], Vt[:r]  # the pseudo-inverse of A is Vr^T W^T
    theta_p = Vr.T @ (W.T @ b)
    theta_p += Vr.T @ (W.T @ (b - A @ theta_p))
    residual = float(np.max(np.abs(A @ theta_p - b)))
    return Vt[r:].T, theta_p, residual, lambda grad: W @ (Vr @ grad)


class _LineSearchStall(Exception):
    """``_newton_max`` has no interior start, no Newton step that ascends or no
    accepted trial.  The barrier stops and reads the face off its last two
    points; a face solve rejects its face."""


# Accepted steps in a row without a new lowest gradient norm that end a barrier round.
_STALL_RUN = 10


def _newton_max(theta_p, N, U, b, u, mu, tol, max_iter):
    """Damped Newton ascent on phi(u) = V(theta) + mu * sum(log slacks) at
    theta = theta_p + N u, over the slacks ``_slacks(theta, U, b)``.

    Corner barrier terms join the objective's diagonal: the Hessian is
    N^T diag(-cot theta - mu/theta^2) N - mu (UN)^T diag(1/s_U^2) (UN).
    A step is accepted on either the Armijo condition for phi or a decrease
    of the gradient norm, which carries Newton's quadratic tail to ~1e-15
    once phi differences sink below float noise.  Trial steps halve from
    t = 1, and a trial outside the polytope is halved again.

    phi is strictly concave on its face (Rivin 1994), so its Newton step
    ascends there.  A step that does not, or a singular Newton system, means
    the solve is on the wrong face or at its rounding floor: it raises
    _LineSearchStall, as does a line search that halves t below 1e-14.

    A barrier round (mu > 0) also ends, at the point it stands on, once
    _STALL_RUN accepted steps fail to lower its lowest gradient norm: near a
    slack of 1e-8 the slacks' rounding gives mu/s a relative error near 6e-8,
    a floor that can sit above the round's tolerance.
    """
    NT, UN = N.T, U @ N
    UNT, nc = UN.T, theta_p.size

    def phi(theta, s):
        barrier = mu * float(np.sum(np.log(s))) if mu > 0.0 else 0.0
        return specfun.lobachevsky_sum(theta) + barrier

    def grad_at(uu):
        theta = theta_p + N @ uu
        s = _slacks(theta, U, b)
        if not s.min() > 0.0:
            return theta, s, None, None
        sin = np.sin(theta)
        d = volume_gradient(theta, sin)
        if mu > 0.0:
            w = mu / s
            d += w[:nc]
            return theta, s, NT @ d - UNT @ w[nc:], sin
        return theta, s, NT @ d, sin

    theta, s, g, sin = grad_at(u)
    if g is None:
        raise _LineSearchStall("current point is not strictly feasible")
    gnorm = math.sqrt(g @ g)
    best, stalled, iters = gnorm, 0, 0
    for _ in range(max_iter):
        if gnorm < tol or stalled == _STALL_RUN:
            return u, gnorm, iters
        d = _hessian_diag(theta, sin)
        if mu > 0.0:
            w = mu / (s * s)
            d -= w[:nc]
            H = (NT * d) @ N - (UNT * w[nc:]) @ UN
        else:
            H = (NT * d) @ N
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            raise _LineSearchStall(f"singular Newton system at mu={mu:g}") from None
        slope = float(g @ step)
        if not slope > 0.0:
            raise _LineSearchStall(f"Newton step does not ascend at mu={mu:g}")
        t, phi0 = 1.0, None  # phi0 is evaluated on demand
        while t > 1e-14:
            u_try = u + t * step
            theta_try, s_try, g_try, sin_try = grad_at(u_try)
            if g_try is not None:  # else outside the polytope
                gnorm_try = math.sqrt(g_try @ g_try)
                if gnorm_try <= (1.0 - 1e-4 * t) * gnorm:
                    break
                phi0 = phi(theta, s) if phi0 is None else phi0
                if phi(theta_try, s_try) >= phi0 + 1e-4 * t * slope:
                    break
            t *= 0.5
        else:
            raise _LineSearchStall(f"line search stalled at mu={mu:g}, |grad|={gnorm:g}")
        # the accepted trial is the next iterate: its gradient is already known
        u, theta, s, g, gnorm, sin = u_try, theta_try, s_try, g_try, gnorm_try, sin_try
        iters += 1
        if gnorm < best:
            best, stalled = gnorm, 0
        elif mu > 0.0:
            stalled += 1
    return u, gnorm, iters


_MU_FACTOR = 0.2  # the barrier's mu falls by this factor per round


def _secant(u_prev, u):  # the central path to first order in mu
    return u + _MU_FACTOR * (u - u_prev)


def maximize_volume(link, start=None):
    """Unique volume maximizer for one apex link.

    ``start`` must be strictly interior (true slacks positive, equalities
    within 1e-8); when omitted, the centered witness at the default epsilon
    is used.  Raises InfeasibleStart when no interior start can be produced
    and NumericalFailure when the optimum's face fails its checks.
    """
    system = rivin.assemble_constraints(link)
    A_eq, b_eq, A_ub, b_ub = system.A_eq, system.b_eq, system.A_ub, system.b_ub
    m = system.n_vars  # constraint i < m is the bound theta_i >= 0, i >= m row i - m

    if start is None:
        res = rivin.check_feasible(system)
        if not res.realizable:
            raise InfeasibleStart(
                f"no strictly interior point at epsilon={rivin.DEFAULT_EPSILON:g} "
                f"(certificate {res.certificate:g})"
            )
        theta0 = res.witness
    else:
        theta0 = np.asarray(start, dtype=float).reshape(-1)
        if theta0.size != m or not np.all(np.isfinite(theta0)):
            raise InfeasibleStart(f"start must be {m} finite corners, got {theta0.size} values")
        if np.max(np.abs(A_eq @ theta0 - b_eq)) > 1e-8:
            raise InfeasibleStart("start violates the equality constraints")
        if np.any(_slacks(theta0, A_ub, b_ub) <= 0.0):
            raise InfeasibleStart("start is not strictly interior")

    def pinned(act):
        """Free corners, all corners' fixed values and ``_factor`` of the face pinning
        ``act``: pinned corners leave at 0 (a triangle's third at pi), rows join A_eq."""
        out = np.zeros(m, dtype=bool)
        out[[i for i in act if i < m]] = True
        base = np.where(~out & np.repeat(out.reshape(-1, 3).sum(axis=1) == 2, 3), math.pi, 0.0)
        keep = np.flatnonzero(~out & (base == 0.0))
        r = [i - m for i in act if i >= m]
        A = np.vstack([A_eq, A_ub[r]])
        b = np.concatenate([b_eq, b_ub[r]]) - A @ base
        return (keep, base, *_factor(A.take(keep, axis=1), b))

    _, _, N, theta_p, _, _ = whole = pinned(())  # the barrier's system
    u = u_prev = N.T @ (theta0 - theta_p)

    path_volumes, steps, mu = [], [], 1e-1  # steps: of each Newton that returned
    vol_now = specfun.lobachevsky_sum(theta_p + N @ u)
    while mu > 1e-9:
        tol = max(1e-10 * (1.0 + abs(vol_now)), 2.0 * mu)
        u0 = u
        if len(path_volumes) >= 2:  # the secant start, kept if interior and no lower in volume
            guess = _secant(u_prev, u)
            th = theta_p + N @ guess
            if _slacks(th, A_ub, b_ub).min() > 0.0 and specfun.lobachevsky_sum(th) >= vol_now:
                u0 = guess
        try:
            u_end, _, iters = _newton_max(theta_p, N, A_ub, b_ub, u0, mu, tol, 200)
        except _LineSearchStall:
            break  # parked against the boundary: identify from the last two points
        u_prev, u = u, u_end
        steps.append(iters)
        vol_now = specfun.lobachevsky_sum(theta_p + N @ u)  # opens the next round
        path_volumes.append(vol_now)
        mu *= _MU_FACTOR

    # Over a round a slack of order mu (active) falls by the factor, one of order
    # sqrt(mu) (zero multiplier) by its root and an inactive one not at all (El-Bakry,
    # Tapia & Zhang 1994): pin each ratio below 0.2^(1/4), midway from root to 1.
    theta = theta_p + N @ u
    ratio = _slacks(theta, A_ub, b_ub) / _slacks(theta_p + N @ u_prev, A_ub, b_ub)
    act = tuple(np.flatnonzero(ratio < _MU_FACTOR**0.25).tolist())

    def solve_on(act, floor):
        """Newton at mu = 0 on the face pinning ``act`` from theta projected onto it:
        (act, theta, face gradient), or None if the face is inconsistent, the
        Newton fails, a free corner ends below ``floor`` or a multiplier < 0."""
        keep, base, N2, theta_p2, residual, multipliers = pinned(act) if act else whole
        R = np.array([i for i in range(len(b_ub)) if i + m not in act], dtype=int)
        U2, b2 = A_ub[R].take(keep, axis=1), (b_ub - A_ub @ base)[R]
        u2 = N2.T @ (theta[keep] - theta_p2)
        try:
            u2, gnorm, iters = _newton_max(theta_p2, N2, U2, b2, u2, 0.0, 1e-12, 60)
        except _LineSearchStall:  # no interior start, no ascent or no accepted trial
            return None
        steps.append(iters)
        theta_k = theta_p2 + N2 @ u2
        g = volume_gradient(theta_k)
        lam = multipliers(g)[len(b_eq):]
        if residual > 1e-8 or gnorm >= 1e-12 or theta_k.min() < floor or np.any(lam < -1e-9):
            return None
        theta_f = base.copy()
        theta_f[keep] = theta_k
        return act, theta_f, N2.T @ g

    # A pinned corner with ratio above 0.2^(3/4) is not in the factor's class and may
    # be small but positive at the optimum: free those first, kept unless one collapses.
    free = tuple(i for i in act if i >= m or ratio[i] <= _MU_FACTOR**0.75)
    face = (free != act and solve_on(free, BOUNDARY_TOL)) or solve_on(act, 0.0)
    if face is None:
        raise NumericalFailure(f"the face pinning constraints {act} fails its checks")
    act, theta, g_face = face
    return OptResult(
        link=link,
        angles=theta.reshape(-1, 3),
        volume=specfun.lobachevsky_sum(theta),
        kkt_residual=float(np.linalg.norm(g_face)),
        active_constraints=tuple(("corner", divmod(i, 3)) if i < m else system.ub_kinds[i - m]
                                 for i in act),
        boundary_active=bool(act) or bool(np.any(_slacks(theta, A_ub, b_ub) < BOUNDARY_TOL)),
        barrier_volumes=tuple(path_volumes),
        newton_iterations=sum(steps),
    )


def regular_tetrahedron_volume():
    """Volume of the regular ideal tetrahedron, the n = 4 maximum."""
    return 3.0 * specfun.lobachevsky(math.pi / 3.0)
