"""Volume maximization over the realizability polytope of a fixed type.

The objective (the Lobachevsky sum over all corners) is strictly concave on the
triangle-sum constraint surface (Rivin 1994), so a primal active-set method
(Nocedal & Wright 2006, ch. 16) finds its unique maximizer over P: damped Newton
ascent on one face of P at a time, whose ratio test stops a step on the row it
reaches, which joins the face.  At a face's maximum the pinned row with the most
negative multiplier leaves; once none is negative the KKT conditions hold, and
the last Newton drives the KKT residual to ~1e-13, so rational-angle detection
at 1e-10 is meaningful.  Every step is a Newton step.

Inequalities hold at epsilon = 0 (the relaxed system only gives an interior
start) as corner bounds theta >= 0, whose slacks are the corners themselves,
and 0/1 rows U theta <= pi.  A face pins a corner by removing it from the
variables at exactly 0 and a row by adding it to the equalities.  Corners are
pinned in pairs: a triangle with a corner below BOUNDARY_TOL collapses, its two
smallest corners at 0 and the third at pi, and is released again where moving
out of the collapse gains volume to first order.  Triangle rows have a
closed-form null basis, so one SVD per face, of the rows that couple triangles,
gives its null basis, least-squares point and multipliers.  Boundary optima are
reported through the active set and flagged boundary-active, never clipped.

The ascent starts at the zero-shear point when it can: the equilateral metric
of the link rescaled at its interior vertices (Bobenko, Pinkall & Springborn
2015), which maximizes V over the equalities alone and takes one Newton in
those few unknowns.  Projected onto the face that pins the rows of P it
violates (none for an interior optimum), and the rows that projection violates
in turn, it starts the ascent unless that face is inconsistent or collapses a
triangle, as on 247 of 277 n = 12 Delaunay links; otherwise the start does.
Without a start, that settle certifies realizability where it can: moving the
settled point away from each point it was projected from keeps the equalities
and raises the slacks that point violated, and one LP in those few moves finds
a point with every slack >= 2 epsilon on each of 22 seeded n = 40 Delaunay
types measured.  Only where it finds none does the realizability LP run, for
its verdict alone on a zero-shear start and else to its centered witness, the
start.
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
    barrier_volumes: tuple  # always (): no barrier runs since 0.2.19
    newton_iterations: int
    realizability_lp: str  # the realizability LP this call ran: "none", "verdict" or "full"


def _slacks(theta, U, b):
    """Slacks of the bounds theta >= 0, then of the rows U theta <= b."""
    return np.concatenate((theta, b - U @ theta))


# A face: theta = theta_p + N u (N orthonormal) over ``keep``, the rest at ``base``; its free
# rows U theta <= b, UN = U @ N, their constraint ids ``rows``, its equalities' residual, and
# multipliers @ grad over ``keep`` gives the coupling rows' multipliers, the interior vertices'
# and then the pinned rows'.
_Face = namedtuple("_Face", "keep base theta_p N U b UN rows residual multipliers")


# The orthonormal null basis of a triangle's row over its three corners: (1, -1, 0)/sqrt2
# and (1, 1, -2)/sqrt6.
_TRIANGLE_BASIS = np.array([[math.sqrt(0.5), 1.0 / math.sqrt(6.0)],
                            [-math.sqrt(0.5), 1.0 / math.sqrt(6.0)],
                            [0.0, -2.0 / math.sqrt(6.0)]])


def _face(system, act):
    """The face pinning ``act`` (i < n_vars: theta_i >= 0, else row i - n_vars of A_ub),
    whose corners are pinned two per triangle.  A kept triangle's row has a closed-form
    orthonormal null basis, Q's block, and the point pi/3 on each corner, so one SVD, of
    C Q with C the coupling rows
    (interior vertices and pinned rows), gives N, the least-squares point (refined once)
    and C's multipliers (singular values < 1e-10 s_max: 0)."""
    A_eq, b_eq, A_ub, b_ub, m = system.A_eq, system.b_eq, system.A_ub, system.b_ub, system.n_vars
    F = m // 3
    pinned = np.zeros(m + len(b_ub), dtype=bool)
    pinned[list(act)] = True
    out, rows = pinned[:m].reshape(-1, 3), pinned[m:]
    third = (~out & (out.sum(axis=1, keepdims=True) == 2)).ravel()  # at pi
    base = np.where(third, math.pi, 0.0)
    keep = np.flatnonzero(~(out.ravel() | third))
    if not keep.size:
        raise NumericalFailure(f"the face pinning constraints {tuple(act)} keeps no triangle")
    A = np.concatenate((A_eq, A_ub[rows]))
    A, b = A.take(keep, axis=1), np.concatenate((b_eq, b_ub[rows])) - A @ base
    U_free, b_free = A_ub[~rows].take(keep, axis=1), (b_ub - A_ub @ base)[~rows]
    free = m + np.flatnonzero(~rows)
    i = np.arange(keep.size)  # a kept triangle's three corners are consecutive in keep
    Q = np.zeros((keep.size, keep.size // 3, 2))
    Q[i, i // 3] = np.tile(_TRIANGLE_BASIS, (keep.size // 3, 1))
    Q = Q.reshape(keep.size, -1)
    theta_p, C, d = np.full(keep.size, math.pi / 3.0), A[F:], b[F:]
    N, W, Vr = Q, np.zeros((len(C), 0)), np.zeros((0, Q.shape[1]))
    if len(C):
        CQ, d = C @ Q, d - C @ theta_p
        U, s, Vt = np.linalg.svd(CQ, full_matrices=True)
        r = np.count_nonzero(s > 1e-10 * s[0])
        W, Vr, N = U[:, :r] / s[:r], Vt[:r], Q @ Vt[r:].T  # pinv(CQ) = Vr^T W^T
        y = Vr.T @ (W.T @ d)
        theta_p = theta_p + Q @ (y + Vr.T @ (W.T @ (d - CQ @ y)))
    return _Face(keep, base, theta_p, N, U_free, b_free, U_free @ N, free,
                 float(np.abs(A @ theta_p - b).max()), (W @ Vr) @ Q.T)


_MAX_STEPS = 100  # Newton steps on one face; at most 13 measured


def _newton_max(face, u):
    """Damped Newton ascent of V(theta) at theta = theta_p + N u on ``face``, from u until
    its gradient vanishes or a step reaches the boundary of P: (u, gradient norm, steps,
    hit), hit None at the face's maximum, else the free rows (global ids) to pin.

    The Hessian is -N^T diag(cot theta) N, negative definite on a face whose triangles
    keep all three corners or none (Rivin 1994).  A ratio test cuts each step where it
    reaches a free row, whose id is then the hit, and lets a corner move at most 0.9 of
    the way to 0; a corner below BOUNDARY_TOL ends the ascent with the hit ().  Trial
    steps halve from there and are accepted on either the Armijo condition or a decrease
    of the gradient norm, which a cut of length 0 (a row already at its bound) passes.
    Below 1e-12, from a start above it, the ascent steps on while each full step shrinks
    the gradient norm more than the last (Newton's quadratic tail) and stops at the
    first that does not, its rounding floor.  A singular Newton system, a step that does
    not ascend or a line search that halves below 1e-14 above that floor raises
    NumericalFailure, as does a face that takes _MAX_STEPS steps.
    """
    theta_p, N, U, b, UN = face.theta_p, face.N, face.U, face.b, face.UN
    NT = N.T
    theta = theta_p + N @ u
    sin = np.sin(theta)
    g = NT @ volume_gradient(theta, sin)
    gnorm, rate, shrink = math.sqrt(g @ g), 1.0, 1.0
    for iters in range(_MAX_STEPS):
        if theta.size and theta.min() < BOUNDARY_TOL:
            return u, gnorm, iters, ()
        if gnorm < 1e-12 and not shrink < rate:
            return u, gnorm, iters, None
        try:
            step = np.linalg.solve((NT * _neg_hessian_diag(theta, sin)) @ N, g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not g @ step > 0.0:
            if gnorm < 1e-12:
                return u, gnorm, iters, None
            raise NumericalFailure(f"no ascending Newton step at |grad|={gnorm:g}")
        d_theta, d_rows = N @ step, UN @ step
        reach = np.full(d_rows.size, math.inf)  # the step length at which each row binds
        up = d_rows > 0.0
        reach[up] = np.maximum(b[up] - U[up] @ theta, 0.0) / d_rows[up]
        down = d_theta < 0.0
        t = min(1.0, float(np.min(-0.9 * theta[down] / d_theta[down], initial=math.inf)))
        row = int(np.argmin(reach)) if reach.size and reach.min() < t else None
        t = t if row is None else float(reach[row])
        slope, phi0 = float(g @ step), None  # phi0 is evaluated on demand
        while t > 1e-14 or row is not None:
            u_try = u + t * step
            theta_try = theta_p + N @ u_try
            sin_try = np.sin(theta_try)
            g_try = NT @ volume_gradient(theta_try, sin_try)
            gnorm_try = math.sqrt(g_try @ g_try)
            if gnorm_try <= (1.0 - 1e-4 * t) * gnorm:
                break
            if gnorm < 1e-12 and row is None:  # the full step does not lower it: the floor
                return u, gnorm, iters, None
            phi0 = specfun.lobachevsky_sum(theta) if phi0 is None else phi0
            if specfun.lobachevsky_sum(theta_try) >= phi0 + 1e-4 * t * slope:
                break
            t, row = 0.5 * t, None
        else:
            raise NumericalFailure(f"line search stalled at |grad|={gnorm:g}")
        rate, shrink = shrink, gnorm_try / gnorm
        u, theta, sin, g, gnorm = u_try, theta_try, sin_try, g_try, gnorm_try
        if row is not None:
            return u, gnorm, iters + 1, (int(face.rows[row]),)
    raise NumericalFailure(f"no face maximum after {_MAX_STEPS} Newton steps, |grad|={gnorm:g}")


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


def _release(system, act, face, theta, y):
    """(gain, act, direction) of the release of the collapsed triangle (a, b at 0, c at
    pi) of ``act`` with the largest gain, -inf when ``act`` collapses none that can be
    released alone.

    ``y`` holds the multipliers of ``face``'s coupling rows at theta, and w = C^T y sums
    them per corner.  Moving (a, b, c) by eps (p, 1 - p, -1) gains eps H(p) in the
    triangle's own volume (H the entropy, exact to O(eps^3)), and the moves of the
    variable corners that hold every coupling row cost eps (p w_a + (1 - p) w_b - w_c),
    so the largest first-order gain is log(e^-w_a + e^-w_b) + w_c, at
    p = 1 / (1 + e^(w_a - w_b)).  A pinned row that no variable corner holds keeps a
    or b at 0, so that triangle stays; one through c leaves with the release and does
    not count.  ``direction`` is the move per unit eps, the compensating one
    (face.multipliers^T is Q pinv(C Q)) included.
    """
    m, I = system.n_vars, len(system.b_eq) - system.n_vars // 3
    rows = [i - m for i in act if i >= m]
    C = np.concatenate((system.A_eq[m // 3:], system.A_ub[rows]))
    held = C.take(face.keep, axis=1).any(axis=1)
    w, stuck = (y * held) @ C, C[~held].any(axis=0)
    best = (-math.inf, act, None)
    for f in sorted({i // 3 for i in act if i < m}):
        a, b = (i for i in act if i // 3 == f)
        c = 3 * f + 3 - a % 3 - b % 3
        gain = -math.inf if stuck[a] or stuck[b] else float(np.logaddexp(-w[a], -w[b]) + w[c])
        if gain > best[0]:
            p = 1.0 / (1.0 + math.exp(min(w[a] - w[b], 700.0)))
            direction = np.zeros(m)
            direction[[a, b, c]] = p, 1.0 - p, -1.0
            direction[face.keep] -= face.multipliers.T @ (C @ direction)
            gone = {a, b}.union(m + r for r, h, k in zip(rows, held[I:], C[I:, c]) if k and not h)
            best = (gain, tuple(i for i in act if i not in gone), direction)
    return best


def maximize_volume(link, start=None, epsilon=rivin.DEFAULT_EPSILON):
    """Unique volume maximizer for one apex link.

    ``start`` must be strictly interior (true slacks positive, equalities
    within 1e-8).  Without one, the LP runs only as far as the ascent reads
    it: not at all where the settled zero-shear point, moved away from the
    points it was projected from, has every slack >= 2 epsilon
    (``rivin.certifies``, so t* >= epsilon), for its verdict alone
    (``rivin.check_feasible(verdict_only=True)``) where the ascent otherwise
    starts on the zero-shear face, and else to the centered witness, the
    start; ``realizability_lp`` names the LP that ran.  Raises InputError
    for epsilon outside (0, pi), InfeasibleStart when no start can be
    produced (without one: the link is not realizable at epsilon) and
    NumericalFailure when a face is inconsistent or its Newton fails.
    """
    system = rivin.assemble_constraints(link)
    A_eq, b_eq, A_ub, b_ub = system.A_eq, system.b_eq, system.A_ub, system.b_ub
    m = system.n_vars  # constraint i < m is the bound theta_i >= 0, i >= m row i - m
    I = len(b_eq) - m // 3  # interior link vertices: the first coupling rows of a face

    if start is None:
        rivin.validate_epsilon(epsilon)
    else:
        theta0 = np.asarray(start, dtype=float).reshape(-1)
        if theta0.size != m or not np.all(np.isfinite(theta0)):
            raise InfeasibleStart(f"start must be {m} finite corners, got {theta0.size} values")
        if np.max(np.abs(A_eq @ theta0 - b_eq)) > 1e-8:
            raise InfeasibleStart("start violates the equality constraints")
        if np.any(_slacks(theta0, A_ub, b_ub) <= 0.0):
            raise InfeasibleStart("start is not strictly interior")

    def project(act, theta):
        """(face pinning ``act``, u, theta's projection onto it)."""
        face = _face(system, act)
        u = face.N.T @ (theta[face.keep] - face.theta_p)
        theta = face.base.copy()
        theta[face.keep] = face.theta_p + face.N @ u
        return face, u, theta

    def free_slacks(act, theta):
        s = _slacks(theta, A_ub, b_ub)
        s[list(act)] = math.inf
        return s

    def settle(act, theta, collapse=True, origins=None):
        """Pin ``act``, then what theta's projection violates: each free row at or past
        its bound, and the two smallest corners of each triangle with a free corner below
        BOUNDARY_TOL (its third corner leaves at pi), until nothing more is violated or
        the face is inconsistent (residual > 1e-8).  Without ``collapse`` it stops at the
        first collapse, whose pins it returns with the face before them.  ``origins``
        collects each point it projects onto a face that pins something."""
        while True:
            if origins is not None and act:
                origins.append(theta)
            face, u, theta = project(act, theta)
            if face.residual > 1e-8:
                return act, face, u, theta
            s = free_slacks(act, theta)
            new = set((m + np.flatnonzero(s[m:] <= 0.0)).tolist())
            for f in set((np.flatnonzero(s[:m] < BOUNDARY_TOL) // 3).tolist()):
                new.update((3 * f + np.argsort(theta[3 * f:3 * f + 3])[:2]).tolist())
            if not new:
                return act, face, u, theta
            act = tuple(sorted(new.union(act)))
            if not collapse and act[0] < m:
                return act, face, u, theta

    # The ascent starts on the face of the rows the zero-shear point violates (none for an
    # interior optimum) and those its projection then violates, unless that face is
    # inconsistent or collapses a triangle; else at the checked start.
    act, steps, point, origins, lp = (), 0, _zero_shear(system), [], "none"
    if point is not None:
        act = tuple((m + np.flatnonzero(A_ub @ point[0] >= b_ub)).tolist())
        act, face, u, theta = settle(act, point[0], collapse=False, origins=origins)
        steps = point[1]
    zero_shear = point is not None and face.residual <= 1e-8 and min(act, default=m) >= m
    if start is None and not (zero_shear and rivin.certifies(system, theta, origins, epsilon)):
        lp = "verdict" if zero_shear else "full"
        res = rivin.check_feasible(system, epsilon, verdict_only=zero_shear)
        if not res.realizable:
            raise InfeasibleStart(f"no strictly interior point at epsilon={epsilon:g} "
                                  f"(certificate {res.certificate:g})")
        theta0 = res.witness
    if not zero_shear:
        act = ()
        face, u, theta = project(act, theta0)

    # The primal active-set method (Nocedal & Wright 2006, ch. 16): a row a step reaches
    # joins the face and a triangle with a corner below BOUNDARY_TOL collapses; at a face's
    # maximum the row with the most negative multiplier leaves, or a collapsed triangle is
    # released where its release gain is positive.  With neither, the KKT conditions of a
    # concave maximization over P hold, and the point is the maximizer.
    for _ in range(m + len(b_ub)):
        u, kkt, iters, hit = _newton_max(face, u)
        steps += iters
        theta[face.keep] = face.theta_p + face.N @ u
        if hit is not None:
            act, face, u, theta = settle(tuple(sorted(set(act).union(hit))), theta)
            if face.residual > 1e-8:
                raise NumericalFailure(f"the face pinning constraints {act} is inconsistent")
            continue
        if not act:
            break
        y = face.multipliers @ volume_gradient(theta[face.keep])
        rows = [i for i in act if i >= m]
        if rows and y[I:].min() < -1e-9:  # no settle: it would pin the row's zero slack again
            act = tuple(i for i in act if i != rows[int(np.argmin(y[I:]))])
            face, u, theta = project(act, theta)
            continue
        gain, act_r, direction = _release(system, act, face, theta, y)
        if not gain > 1e-9:
            break
        # the move halves from 1e-3 until V rises and the point stays in P, while the
        # released a and b stay above BOUNDARY_TOL
        released = [i for i in act if i < m and i not in act_r]
        move, volume = 1e-3, specfun.lobachevsky_sum(theta)
        while True:
            face_r, u_r, theta_r = project(act_r, theta + move * direction)
            free = theta_r[released].min() > BOUNDARY_TOL
            if not free or (free_slacks(act_r, theta_r).min() > 0.0
                            and specfun.lobachevsky_sum(theta_r) > volume):
                break
            move *= 0.5
        if not free:
            break  # a gain too small to outgrow the move's second order
        act, face, u, theta = act_r, face_r, u_r, theta_r
    else:
        raise NumericalFailure(f"no maximum after {m + len(b_ub)} faces, the last pinning {act}")
    return OptResult(
        link=link,
        angles=theta.reshape(-1, 3),
        volume=specfun.lobachevsky_sum(theta),
        kkt_residual=kkt,
        active_constraints=tuple(("corner", divmod(i, 3)) if i < m else system.ub_kinds[i - m]
                                 for i in act),
        boundary_active=bool(act) or bool(np.any(_slacks(theta, A_ub, b_ub) < BOUNDARY_TOL)),
        barrier_volumes=(),
        newton_iterations=steps,
        realizability_lp=lp,
    )


def regular_tetrahedron_volume():
    """Volume of the regular ideal tetrahedron, the n = 4 maximum."""
    return 3.0 * specfun.lobachevsky(math.pi / 3.0)
