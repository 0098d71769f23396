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
and a row by adding it to the equalities.  Triangle rows have a closed-form null
basis, so one SVD per face, of the rows that couple triangles, gives its null
basis, least-squares point and multipliers.  Boundary optima are reported
through the active set and flagged boundary-active, never clipped.

Most optima need none of this.  The zero-shear point, the equilateral metric of
the link rescaled at its interior vertices (Bobenko, Pinkall & Springborn 2015),
maximizes V over the equalities alone and takes one Newton in those few
unknowns.  On the face that pins the rows of P it violates (none for an interior
optimum), the mu = 0 Newton from its projection is kept when it converges with
nonnegative multipliers and every free slack above BOUNDARY_TOL: those are the
KKT conditions of a concave maximization over P, so the point is the maximizer.
The barrier still serves the optima that pin a corner, which no zero-shear point
reaches, and those whose active rows are not the ones that point violates.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import rivin, specfun
from .errors import InfeasibleStart, NumericalFailure
from .triang import edge_key

BOUNDARY_TOL = 1e-7


def volume_gradient(flat_angles, sin=None):
    """d(volume)/d(corner) = -log|2 sin theta| per corner in (0, pi].

    ``sin`` is ``np.sin`` of the same angles, when the caller has it.  The
    log is libm's, not numpy's: the two differ in the last bit on some
    points.
    """
    theta = np.asarray(flat_angles, dtype=float)
    x = 2.0 * np.abs(np.sin(theta) if sin is None else sin)
    return -np.fromiter(map(math.log, x.tolist()), float, len(x))


def _neg_hessian_diag(theta, sin=None):
    """-d2(volume)/d(corner)2 = cot theta per corner in (0, pi]."""
    return np.cos(theta) / (np.sin(theta) if sin is None else sin)


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
    barrier_volumes: tuple  # central-path volumes, nondecreasing; () on the zero-shear face
    newton_iterations: int


def _slacks(theta, U, b):
    """Slacks of the bounds theta >= 0, then of the rows U theta <= b."""
    return np.concatenate((theta, b - U @ theta))


# A face: theta = theta_p + N u (N orthonormal) over ``keep``, the rest at ``base``; its free
# rows U theta <= b, UN = U @ N, its equalities' residual, and multipliers @ grad over ``keep``
# gives the pinned rows' multipliers.
_Face = namedtuple("_Face", "keep base theta_p N U b UN residual multipliers")


# The orthonormal null basis of a triangle's row over its three corners: (1, -1, 0)/sqrt2
# and (1, 1, -2)/sqrt6.  Over the two kept corners of a triangle with one pinned, the
# first column's first two entries are (1, -1)/sqrt2.
_TRIANGLE_BASIS = np.array([[math.sqrt(0.5), 1.0 / math.sqrt(6.0)],
                            [-math.sqrt(0.5), 1.0 / math.sqrt(6.0)],
                            [0.0, -2.0 / math.sqrt(6.0)]])


def _face(system, act):
    """The face pinning ``act`` (i < n_vars: theta_i >= 0, else row i - n_vars of A_ub).
    A triangle's row has a closed-form orthonormal null basis over its k kept corners,
    Q's block, and the point pi/k on each, so one SVD, of C Q with C the coupling rows
    (interior vertices and pinned rows), gives N, the least-squares point (refined once)
    and C's multipliers (singular values < 1e-10 s_max: 0)."""
    A_eq, b_eq, A_ub, b_ub, m = system.A_eq, system.b_eq, system.A_ub, system.b_ub, system.n_vars
    F = m // 3
    if act:
        pinned = np.zeros(m + len(b_ub), dtype=bool)
        pinned[list(act)] = True
        out, rows = pinned[:m].reshape(-1, 3), pinned[m:]
        third = (~out & (out.sum(axis=1, keepdims=True) == 2)).ravel()  # at pi
        base = np.where(third, math.pi, 0.0)
        keep = np.flatnonzero(~(out.ravel() | third))
        A = np.concatenate((A_eq, A_ub[rows]))
        A, b = A.take(keep, axis=1), np.concatenate((b_eq, b_ub[rows])) - A @ base
        U_free, b_free = A_ub[~rows].take(keep, axis=1), (b_ub - A_ub @ base)[~rows]
    else:  # the barrier's face pins nothing: the system as it is, uncopied
        base, keep, A, b, U_free, b_free = np.zeros(m), np.arange(m), A_eq, b_eq, A_ub, b_ub
    f, i = keep // 3, np.arange(keep.size)
    k = np.bincount(f, minlength=F)  # kept corners per triangle: 0, 2 or 3
    Q = np.zeros((keep.size, F, 2))  # two columns per triangle, the unused ones dropped
    Q[i, f] = _TRIANGLE_BASIS[i - np.searchsorted(f, f)]  # by slot among its kept corners
    Q = Q.reshape(keep.size, -1).take(np.flatnonzero(k[:, None] > [1, 2]), axis=1)
    theta_p, C, d = math.pi / k.take(f), A[F:], b[F:]
    N, W, Vr = Q, np.zeros((len(C), 0)), np.zeros((0, Q.shape[1]))
    if len(C):
        CQ, d = C @ Q, d - C @ theta_p
        U, s, Vt = np.linalg.svd(CQ, full_matrices=True)
        r = np.count_nonzero(s > 1e-10 * s[0])
        W, Vr, N = U[:, :r] / s[:r], Vt[:r], Q @ Vt[r:].T  # pinv(CQ) = Vr^T W^T
        y = Vr.T @ (W.T @ d)
        theta_p = theta_p + Q @ (y + Vr.T @ (W.T @ (d - CQ @ y)))
    return _Face(keep, base, theta_p, N, U_free, b_free, U_free @ N,
                 float(np.abs(A @ theta_p - b).max()),
                 (W[len(b_eq) - F:] @ Vr) @ Q.T)


class _LineSearchStall(Exception):
    """``_newton_max`` has no interior start, an iterate with a corner below its
    floor, no Newton step that ascends or no accepted trial.  The barrier stops
    and reads the face off its last two points; a face solve rejects its face."""


# Accepted steps in a row without a new lowest gradient norm that end a barrier round.
_STALL_RUN = 10


def _newton_max(face, u, mu, tol, max_iter, floor, exact=False):
    """Damped Newton ascent on phi(u) = V(theta) + mu * sum(log slacks) at
    theta = theta_p + N u, over the slacks ``_slacks(theta, U, b)`` of ``face``.

    Corner barrier terms join the objective's diagonal: the Hessian is
    N^T diag(-cot theta - mu/theta^2) N - mu (UN)^T diag(1/s_U^2) (UN).
    A step is accepted on either the Armijo condition for phi or a decrease
    of the gradient norm, which carries Newton's quadratic tail to ~1e-15
    once phi differences sink below float noise.  Trial steps halve from
    t = 1, and a trial outside the polytope is halved again.

    phi is strictly concave on its face (Rivin 1994), so its Newton step
    ascends there.  A step that does not, or a singular Newton system, means
    the solve is on the wrong face or at its rounding floor: it raises
    _LineSearchStall, as do a line search that halves t below 1e-14 and an
    iterate, the start included, with a corner below ``floor``.

    ``exact`` (mu = 0, a zero-shear point's face) raises on a trial outside P
    too: the face lacks a constraint its Newton would cross (so do 24 of 677
    converging faces at every apex with n <= 10, none at the default apex).
    Below ``tol``, from a start above it, it steps on while each full step
    shrinks the gradient norm more than the last (Newton's quadratic tail).

    A barrier round (mu > 0) also ends, at the point it stands on, once
    _STALL_RUN accepted steps fail to lower its lowest gradient norm: near a
    slack of 1e-8 the slacks' rounding gives mu/s a relative error near 6e-8,
    a floor that can sit above the round's tolerance.
    """
    theta_p, N, U, b, UN = face.theta_p, face.N, face.U, face.b, face.UN
    NT, UNT, nc = N.T, UN.T, theta_p.size

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
    best, stalled, iters, rate, shrink = gnorm, 0, 0, 1.0, 1.0
    while True:
        if theta.min() < floor:
            raise _LineSearchStall(f"a corner fell below {floor:g} at mu={mu:g}")
        tail = exact and shrink < rate  # Newton's quadratic tail goes on below tol
        if gnorm < tol and not tail or stalled == _STALL_RUN or iters == max_iter:
            return u, gnorm, iters
        d = _neg_hessian_diag(theta, sin)
        if mu > 0.0:
            w = mu / (s * s)
            d += w[:nc]
            H = (NT * d) @ N + (UNT * w[nc:]) @ UN  # minus the Hessian
        else:
            H = (NT * d) @ N
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            raise _LineSearchStall(f"singular Newton system at mu={mu:g}") from None
        slope = float(g @ step)
        if not slope > 0.0:
            raise _LineSearchStall(f"Newton step does not ascend at mu={mu:g}")
        t, phi0 = 1.0, None  # phi0 is evaluated on demand
        while t > 1e-14:
            u_try = u + t * step
            theta_try, s_try, g_try, sin_try = grad_at(u_try)
            if g_try is None:  # outside the polytope
                if exact:
                    raise _LineSearchStall("a step leaves the polytope at mu=0")
            else:
                gnorm_try = math.sqrt(g_try @ g_try)
                if gnorm_try <= (1.0 - 1e-4 * t) * gnorm:
                    break
                if gnorm < tol:  # exact, and the full step does not lower it: the floor
                    return u, gnorm, iters
                phi0 = phi(theta, s) if phi0 is None else phi0
                if phi(theta_try, s_try) >= phi0 + 1e-4 * t * slope:
                    break
            t *= 0.5
        else:
            raise _LineSearchStall(f"line search stalled at mu={mu:g}, |grad|={gnorm:g}")
        # the accepted trial is the next iterate: its gradient is already known
        rate, shrink = shrink, gnorm_try / gnorm
        u, theta, s, g, gnorm, sin = u_try, theta_try, s_try, g_try, gnorm_try, sin_try
        iters += 1
        if gnorm < best:
            best, stalled = gnorm, 0
        elif mu > 0.0:
            stalled += 1


def _zero_shear(system):
    """(flat corner angles, Newton steps) of the zero-shear point of ``system``'s link,
    or None.

    Interior link vertex v carries a factor y_v and a hull vertex 1, and a link
    triangle is the triangle whose side opposite each corner is that corner's
    factor: by the law of sines, sin theta ~ y at the optimum.  Scaled by
    1 / (y_u y_v y_w), triangle uvw has the side 1 / (y_u y_v) on edge uv, so the
    link is the equilateral metric rescaled at its vertices.  The corner opposite
    side l has half-angle tangent r / (s - l), r the inradius and s the
    semiperimeter.  Damped Newton drives each interior vertex's angle sum to 2 pi;
    in log y its Jacobian is the cotangent Laplacian (Springborn, Schroeder &
    Pinkall 2008).  At an optimum where no inequality carries a multiplier this
    point is the optimum.  None when neither the full step nor its half keeps
    every triangle inequality and lowers the residual, or after 30 steps.
    """
    m = system.n_vars
    C = system.A_eq[m // 3:]  # interior vertex x corner incidence
    I, C3 = len(C), C.reshape(len(C), m // 3, 3)
    # L / 2 = D^T diag(2 cot theta) D, a row of D per corner over its opposite side's ends
    D = 0.5 * (C3[:, :, [1, 2, 0]] - C3[:, :, [2, 0, 1]]).reshape(I, m).T
    E = np.concatenate((C3, 1.0 - C3.sum(axis=0, keepdims=True)))  # last row: on the hull
    E = (E.sum(axis=2, keepdims=True) - 2.0 * E).reshape(I + 1, m)  # y E[:I] + E[I]: 2 (s - l)

    def corners(y):
        d = (y @ E[:I] + E[I]).reshape(-1, 3)  # all positive only for a triangle
        if not d.min() > 0.0:
            return None
        t = (np.sqrt(d.prod(axis=1, keepdims=True) / d.sum(axis=1, keepdims=True)) / d).ravel()
        half = np.arctan(t)
        F = C @ half - math.pi  # half the angle-sum defects
        return half, t, F, 2.0 * math.sqrt(F @ F)

    y = np.ones(I)
    half, t, F, r = corners(y)
    for steps in range(31):
        if r < 1e-12:
            return 2.0 * half, steps
        try:  # 1/t - t = 2 cot theta
            dy = y * np.linalg.solve((D.T * (1.0 / t - t)) @ D, F)
        except np.linalg.LinAlgError:
            return None
        for step in (1.0, 0.5):
            y_try = y - step * dy
            trial = corners(y_try)
            if trial is not None and trial[3] < r:
                break
        else:
            return None
        y, (half, t, F, r) = y_try, trial
    return None


_MU_FACTOR = 0.2  # the barrier's mu falls by this factor per round


def _secant(u_prev, u):  # the central path to first order in mu
    return u + _MU_FACTOR * (u - u_prev)


def maximize_volume(link, start=None):
    """Unique volume maximizer for one apex link.

    ``start`` must be strictly interior (true slacks positive, equalities
    within 1e-8); when omitted, the centered witness at the default epsilon
    is used.  An optimum settled on the face its zero-shear point violates
    runs no barrier and never reads the start, which is still checked, or the
    witness computed, first.  Raises InfeasibleStart when no interior start can
    be produced and NumericalFailure when the optimum's face fails its checks.
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

    _, _, theta_p, N, *_ = whole = _face(system, ())  # the barrier's system

    def solve_on(act, theta, floor, exact=False):
        """Newton at mu = 0 from theta's projection onto the face pinning ``act``: (act,
        theta, face gradient norm), or None if the face is inconsistent, its Newton fails or a
        multiplier < 0.  ``exact`` (a zero-shear point) also pins the rows the projection
        violates, 3 projections at most, and runs the Newton exact."""
        for _ in range(3):
            face = _face(system, act) if act else whole
            u2 = face.N.T @ (theta[face.keep] - face.theta_p)
            theta_f = face.base.copy()
            theta_f[face.keep] = face.theta_p + face.N @ u2
            rows = set((m + np.flatnonzero(A_ub @ theta_f >= b_ub)).tolist()) if exact else set()
            if rows <= set(act):
                break
            act = tuple(sorted(rows.union(act)))
        else:
            return None  # the third projection still violates rows
        try:
            u2, gnorm, iters = _newton_max(face, u2, 0.0, 1e-12, 60, floor, exact)
        except _LineSearchStall:
            return None
        steps.append(iters)
        theta_f[face.keep] = theta_k = face.theta_p + face.N @ u2
        if face.residual > 1e-8 or gnorm >= 1e-12 or (
                act and np.any(face.multipliers @ volume_gradient(theta_k) < -1e-9)):
            return None
        return act, theta_f, gnorm

    # The face its zero-shear point violates settles the optimum when its solve meets the
    # KKT conditions: a stationary point, multipliers >= 0 and every free slack above
    # BOUNDARY_TOL.  Otherwise the barrier runs, and names the face from its slacks.
    face, path_volumes, point = None, [], _zero_shear(system)
    if point is not None:
        theta, shear_steps = point
        steps = [shear_steps]
        face = solve_on((), theta, BOUNDARY_TOL, exact=True)
        if face and np.delete(_slacks(face[1], A_ub, b_ub), face[0]).min() <= BOUNDARY_TOL:
            face = None

    if face is None:
        u = u_prev = N.T @ (theta0 - theta_p)
        steps, mu = [], 1e-1  # steps: of each Newton that returned
        vol_now = specfun.lobachevsky_sum(theta_p + N @ u)
        while mu > 1e-9:
            tol = max(1e-10 * (1.0 + abs(vol_now)), 2.0 * mu)
            u0 = u
            if len(path_volumes) >= 2:  # the secant start, if interior and no lower in volume
                guess = _secant(u_prev, u)
                th = theta_p + N @ guess
                if _slacks(th, A_ub, b_ub).min() > 0.0 and specfun.lobachevsky_sum(th) >= vol_now:
                    u0 = guess
            try:
                u_end, _, iters = _newton_max(whole, u0, mu, tol, 200, 0.0)
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

        # A pinned corner with ratio above 0.2^(3/4) is not in the factor's class and may
        # be small but positive at the optimum: free those first, kept unless one collapses.
        free = tuple(i for i in act if i >= m or ratio[i] <= _MU_FACTOR**0.75)
        face = (free != act and solve_on(free, theta, BOUNDARY_TOL)) or solve_on(act, theta, 0.0)
        if face is None:
            raise NumericalFailure(f"the face pinning constraints {act} fails its checks")
    act, theta, kkt = face
    return OptResult(
        link=link,
        angles=theta.reshape(-1, 3),
        volume=specfun.lobachevsky_sum(theta),
        kkt_residual=kkt,
        active_constraints=tuple(("corner", divmod(i, 3)) if i < m else system.ub_kinds[i - m]
                                 for i in act),
        boundary_active=bool(act) or bool(np.any(_slacks(theta, A_ub, b_ub) < BOUNDARY_TOL)),
        barrier_volumes=tuple(path_volumes),
        newton_iterations=sum(steps),
    )


def regular_tetrahedron_volume():
    """Volume of the regular ideal tetrahedron, the n = 4 maximum."""
    return 3.0 * specfun.lobachevsky(math.pi / 3.0)
