"""Volume maximization over the realizability polytope of a fixed type.

The objective (the Lobachevsky sum over all corners) is strictly concave on the
triangle-sum constraint surface, so a convex method suffices: equalities are
eliminated onto reduced coordinates, a logarithmic barrier follows the central
path from secant-predicted starts, and an active-set Newton polish drives the
KKT residual to ~1e-13, so rational-angle detection at 1e-10 is meaningful.

Inequalities hold at epsilon = 0 (the relaxed system only gives an interior
start) as corner bounds theta >= 0, whose slacks are the corners themselves,
and 0/1 rows U theta <= pi.  One SVD per equality system gives its null
basis, least-squares point and multipliers.  Boundary optima (flat edges)
are reported through the active set and flagged boundary-active, never clipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rivin, specfun
from .errors import InfeasibleStart, LineSearchStall, NumericalFailure
from .triang import edge_key

BOUNDARY_TOL = 1e-7


def volume(angles):
    """Hyperbolic volume: the Lobachevsky sum over all corner angles."""
    flat = np.asarray(angles, dtype=float).reshape(-1)
    if not np.all((flat > 0.0) & (flat < math.pi)):  # NaN fails both
        raise ValueError("corner angles must lie in (0, pi)")
    return specfun.lobachevsky_sum(flat)


# Degenerate optima may pin corners to 0 (a collapsing link triangle, which
# contributes zero volume in the limit).  The null basis of the pinned system
# has no component along such coordinates, so the derivatives of corners
# within _PINNED of 0 or pi are masked to 0 rather than evaluated.
_PINNED = 1e-12


def _sine(theta):
    """The mask of unpinned corners and their sines: the one sin pass that
    both derivatives at a point share."""
    free = (theta > _PINNED) & (theta < math.pi - _PINNED)
    return free, np.sin(theta[free])


def volume_gradient(flat_angles, sine=None):
    """d(volume)/d(corner) = -log|2 sin theta| per corner, 0 where pinned.

    ``sine`` is ``_sine`` of the same angles, when the caller has it.  The
    log is libm's, not numpy's: the two differ in the last bit on some
    points.
    """
    theta = np.asarray(flat_angles, dtype=float)
    free, sin = _sine(theta) if sine is None else sine
    out = np.zeros_like(theta)
    x = 2.0 * np.abs(sin)
    out[free] = -np.fromiter(map(math.log, x.tolist()), float, len(x))
    return out


def _hessian_diag(theta, sine=None):
    """d2(volume)/d(corner)2 = -cot theta per corner, 0 where pinned."""
    free, sin = _sine(theta) if sine is None else sine
    out = np.zeros_like(theta)
    out[free] = -np.cos(theta[free]) / sin
    return out


def dihedral_angles(link, angles):
    """Dihedral angle in radians per parent edge, as {edge: radians}.

    Rule: interior link edge -> sum of the two opposite corners; hull link
    edge -> its single opposite corner; vertical edge above hull vertex w
    -> sum of the corners at w.
    """
    th = np.asarray(angles, dtype=float)
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
    link: object
    angles: object  # ndarray (len(link.bounded_faces), 3) of corner radians
    volume: float
    kkt_residual: float
    dihedrals: dict  # {edge: radians}, as dihedral_angles builds it
    active_constraints: tuple  # (kind, key) rows binding at the optimum
    boundary_active: bool
    barrier_volumes: tuple  # central-path volumes, nondecreasing
    newton_iterations: int


def _constraint_data(system):
    """A_eq, b_eq, the 0/1 rows U theta <= b and the kinds of a system.

    The other inequalities are the corner bounds theta >= 0, which no matrix
    carries.  ``kinds`` names constraint i as corner i for i < n_vars and as
    row i - n_vars after; the active set indexes it.
    """
    kinds = [("corner", (f, s)) for f in range(system.n_vars // 3) for s in range(3)]
    return system.A_eq, system.b_eq, system.A_ub, system.b_ub, kinds + list(system.ub_kinds)


def _slacks(theta, corners, U, b):
    """Slacks of the bounds theta[corners] >= 0, then of the rows U theta <= b."""
    return np.concatenate((theta[corners], b - U @ theta))


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


def _ratio_cap(s, rate):
    """Largest step t at which no slack s + t * rate falls below -1e-10."""
    fall = rate < 0.0
    return float(np.min((s[fall] + 1e-10) / -rate[fall], initial=np.inf))


# Accepted steps in a row without a new lowest gradient norm that end a barrier round.
_STALL_RUN = 10


def _newton_max(theta_p, N, corners, U, b, u, mu, tol, max_iter):
    """Damped Newton ascent on phi(u) = V(theta) + mu * sum(log slacks) at
    theta = theta_p + N u, over the slacks ``_slacks(theta, corners, U, b)``.

    Corner barrier terms join the objective's diagonal: the Hessian is
    N^T diag(-cot theta - mu/theta^2) N - mu (UN)^T diag(1/s_U^2) (UN).
    A step is accepted on either the Armijo condition for phi or a decrease
    of the gradient norm, which carries Newton's quadratic tail to ~1e-15
    once phi differences sink below float noise.  Trial steps halve from
    t = 1; after the first trial outside the polytope, halvings past the
    ratio test's cap (``_ratio_cap``) are not evaluated: those trials have a
    slack below -1e-10, far beyond the ~1e-15 rounding of the slacks.

    A barrier round (mu > 0) also ends, at the point it stands on, once
    _STALL_RUN accepted steps fail to lower its lowest gradient norm: near a
    slack of 1e-8 the slacks' rounding gives mu/s a relative error near 6e-8,
    a floor that can sit above the round's tolerance.
    """
    NT, UN = N.T, U @ N
    UNT, nc = UN.T, theta_p[corners].size  # corners: an index array or a slice

    def phi(theta, s):
        barrier = mu * float(np.sum(np.log(s))) if mu > 0.0 else 0.0
        return specfun.lobachevsky_sum(theta) + barrier

    def grad_at(uu):
        theta = theta_p + N @ uu
        s = _slacks(theta, corners, U, b)
        if not s.min() > 0.0:
            return theta, s, None, None
        sine = _sine(theta)
        d = volume_gradient(theta, sine)
        if mu > 0.0:
            w = mu / s
            d[corners] += w[:nc]
            return theta, s, NT @ d - UNT @ w[nc:], sine
        return theta, s, NT @ d, sine

    theta, s, g, sine = grad_at(u)
    if g is None:
        raise LineSearchStall("current point is not strictly feasible")
    gnorm = math.sqrt(g @ g)
    best, stalled, iters = gnorm, 0, 0
    for _ in range(max_iter):
        if gnorm < tol or stalled == _STALL_RUN:
            return u, gnorm, iters
        d = _hessian_diag(theta, sine)
        if mu > 0.0:
            w = mu / (s * s)
            d[corners] -= w[:nc]
            H = (NT * d) @ N - (UNT * w[nc:]) @ UN
        else:
            H = (NT * d) @ N
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:  # H singular: take the gradient step
            step = g
        slope = float(g @ step)
        if slope <= 0.0:  # not an ascent direction: H lost definiteness
            step = g
            slope = float(g @ g)
        t, cap, phi0 = 1.0, None, None  # cap and phi0 are evaluated on demand
        while t > 1e-14:
            u_try = u + t * step
            theta_try, s_try, g_try, sine_try = grad_at(u_try)
            if g_try is None:
                if cap is None:
                    rate = np.concatenate(((N @ step)[corners], -(UN @ step)))
                    cap = _ratio_cap(s, rate)
                t *= 0.5
                while t > cap:
                    t *= 0.5
                continue
            gnorm_try = math.sqrt(g_try @ g_try)
            if gnorm_try <= (1.0 - 1e-4 * t) * gnorm:
                break
            if phi0 is None:
                phi0 = phi(theta, s)
            if phi(theta_try, s_try) >= phi0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise LineSearchStall(f"line search stalled at mu={mu:g}, |grad|={gnorm:g}")
        # the accepted trial is the next iterate: its gradient is already known
        u, theta, s, g, gnorm, sine = u_try, theta_try, s_try, g_try, gnorm_try, sine_try
        iters += 1
        if gnorm < best:
            best, stalled = gnorm, 0
        elif mu > 0.0:
            stalled += 1
    return u, gnorm, iters


def _secant(u_prev, u):  # the central path to first order in mu, which falls by 0.2
    return u + 0.2 * (u - u_prev)


def maximize_volume(link, start=None):
    """Unique volume maximizer for one apex link.

    ``start`` must be strictly interior (true slacks positive, equalities
    within 1e-8); when omitted, the centered witness at the default epsilon
    is used.  Raises InfeasibleStart when no interior start can be produced.
    """
    system = rivin.assemble_constraints(link)
    A_eq, b_eq, A_ub, b_ub, kinds = _constraint_data(system)
    m = system.n_vars
    corners = slice(None)  # every corner

    if start is None:
        res = rivin.check_feasible(system)
        if not res.feasible or res.min_slack <= 0.0:
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
        if np.any(_slacks(theta0, corners, A_ub, b_ub) <= 0.0):
            raise InfeasibleStart("start is not strictly interior")

    systems = {}  # sorted pinned constraints -> _factor of their system

    def pinned(act):  # a pinned corner c is the row -theta_c = 0
        if act not in systems:
            c, r = [i for i in act if i < m], [i - m for i in act if i >= m]
            A = np.vstack([A_eq, -np.eye(m)[c], A_ub[r]])
            systems[act] = _factor(A, np.concatenate([b_eq, np.zeros(len(c)), b_ub[r]]))
        return systems[act]

    N, theta_p, _, _ = pinned(())
    u = N.T @ (theta0 - theta_p)

    path_volumes, total_iters, mu = [], 0, 1e-1
    vol_now = specfun.lobachevsky_sum(theta_p + N @ u)
    while mu > 1e-9:
        tol = max(1e-10 * (1.0 + abs(vol_now)), 2.0 * mu)
        guess = _secant(u_last, u) if len(path_volumes) >= 2 else None
        u0 = u_last = u
        if guess is not None:  # the secant start, kept if interior and no lower in volume
            th = theta_p + N @ guess
            interior = _slacks(th, corners, A_ub, b_ub).min() > 0.0
            if interior and specfun.lobachevsky_sum(th) >= vol_now:
                u0 = guess
        try:
            u, _, iters = _newton_max(theta_p, N, corners, A_ub, b_ub, u0, mu, tol, 200)
        except LineSearchStall:
            # parked against the boundary; the active-set polish finishes
            break
        total_iters += iters
        vol_now = specfun.lobachevsky_sum(theta_p + N @ u)  # opens the next round
        path_volumes.append(vol_now)
        mu *= 0.2

    theta = theta_p + N @ u

    # active-set polish: pin near-active constraints as equalities, Newton to
    # machine precision, then verify multiplier signs.  Constraints are added
    # when they block progress and dropped (one per round) on a negative
    # multiplier; inconsistent pinned systems shed their loosest row.  A
    # dropped row sits at slack 0 up to rounding, so the next projected start
    # may violate it and pin it again; it is then kept, which ends that cycle.
    active = set(np.flatnonzero(_slacks(theta, corners, A_ub, b_ub) < BOUNDARY_TOL).tolist())
    dropped = set()
    for _ in range(30):
        act = tuple(sorted(active))
        N2, theta_p2, residual, multipliers = pinned(act)
        if residual > 1e-8:
            # pinned rows are mutually inconsistent: release the loosest
            slacks = _slacks(theta, corners, A_ub, b_ub)
            active.discard(max(act, key=lambda i: slacks[i]))
            continue
        free = np.array([i for i in range(len(kinds)) if i not in active], dtype=int)
        C, R = free[free < m], free[free >= m] - m
        U2, b2 = A_ub[R], b_ub[R]
        u2 = N2.T @ (theta - theta_p2)
        s_start = _slacks(theta_p2 + N2 @ u2, C, U2, b2)
        j = int(np.argmin(s_start))
        if s_start[j] <= 0.0:
            active.add(int(free[j]))
            continue
        try:
            u2, gnorm, iters = _newton_max(theta_p2, N2, C, U2, b2, u2, 0.0, 1e-12, 60)
        except LineSearchStall:
            # blocked by an inactive constraint: pin the tightest one
            active.add(int(free[j]))
            continue
        total_iters += iters
        theta = theta_p2 + N2 @ u2
        s_in = _slacks(theta, C, U2, b2)
        j = int(np.argmin(s_in))
        # a row at rounding distance blocks the polish; so does a row within
        # 1e-6 when the Newton ran out of iterations short of its tolerance
        if s_in[j] < 1e-12 or (gnorm >= 1e-12 and s_in[j] < 1e-6):
            active.add(int(free[j]))
            continue
        if act:
            lam = dict(zip(act, multipliers(volume_gradient(theta))[len(b_eq):]))
            # corners pinned at zero have a divergent slope in theta_c alone;
            # their multiplier is meaningless, so they are kept
            droppable = [
                i for i in act if i not in dropped and not (i < m and theta[i] < 1e-9)
            ]
            worst = min(droppable, key=lam.get, default=None)
            if worst is not None and lam[worst] < -1e-9:
                dropped.add(worst)
                active.discard(worst)
                continue
        break
    else:
        raise NumericalFailure("active-set polish did not settle")

    slacks = _slacks(theta, corners, A_ub, b_ub)
    angles = theta.reshape(-1, 3)
    return OptResult(
        link=link,
        angles=angles,
        volume=specfun.lobachevsky_sum(theta),
        kkt_residual=float(np.linalg.norm(N2.T @ volume_gradient(theta))),
        dihedrals=dihedral_angles(link, angles),
        active_constraints=tuple(kinds[i] for i in act),
        boundary_active=bool(act) or bool(np.any(slacks < BOUNDARY_TOL)),
        barrier_volumes=tuple(path_volumes),
        newton_iterations=total_iters,
    )


def regular_tetrahedron_volume():
    """Volume of the regular ideal tetrahedron, the n = 4 maximum."""
    return 3.0 * specfun.lobachevsky(math.pi / 3.0)
