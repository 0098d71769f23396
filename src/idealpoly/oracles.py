"""Independent oracles used by the test and acceptance suites.

These deliberately avoid the implementation paths they check: the quadrature
oracle integrates the defining integral of the Lobachevsky function instead
of summing its series, and the grid oracle decides feasibility by exhaustive
integer enumeration instead of running the simplex.
"""

import math

import numpy as np


def adaptive_simpson(f, a, b, tol=1e-12, depth=60):
    """Classic recursive Simpson with Richardson acceptance."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0, x2, f0, f1, f2, whole, eps, d):
        x1 = 0.5 * (x0 + x2)
        la, lb = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fla, flb = f(la), f(lb)
        left = simpson(x0, x1, f0, fla, f1)
        right = simpson(x1, x2, f1, flb, f2)
        if d <= 0 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, fla, f1, left, 0.5 * eps, d - 1) + recurse(
            x1, x2, f1, flb, f2, right, 0.5 * eps, d - 1
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def _smooth_part(t):
    # log(sin t / t) extended by 0 at t = 0
    if t == 0.0:
        return 0.0
    return math.log(math.sin(t) / t)


def _partial_integral(theta):
    """-integral_0^theta log(2 sin t) dt for 0 <= theta <= pi/2, computed by
    quadrature of the smooth part plus the closed-form log(2t) piece."""
    if theta == 0.0:
        return 0.0
    smooth = adaptive_simpson(_smooth_part, 0.0, theta)
    return -(smooth + theta * math.log(2.0 * theta) - theta)


def lobachevsky_by_quadrature(theta):
    """Quadrature oracle for the Lobachevsky function on (0, pi).

    Splits at pi/2 so the integrand's endpoint singularities are always
    handled through the explicit log(2t) antiderivative.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("quadrature oracle expects theta in (0, pi)")
    half = 0.5 * math.pi
    if theta <= half:
        return _partial_integral(theta)
    # integral over (pi/2, theta) equals the integral of log|2 sin| over
    # (pi - theta, pi/2) by the substitution t -> pi - t
    return _partial_integral(half) + (
        _partial_integral(half) - _partial_integral(math.pi - theta)
    )


def reduced_grid_dimension(system):
    """Number of free corners once each triangle's third corner is pinned,
    minus independent interior-vertex rows: the grid oracle's search size."""
    kinds = [kind for kind, _ in system.eq_kinds]
    return 2 * kinds.count("triangle") - kinds.count("interior_vertex")


def grid_feasible(system, steps_per_pi=720):
    """Exhaustive grid decision of feasibility, independent of the simplex.

    Works on the integer lattice theta = k * pi/S: triangle rows become
    k1 + k2 + k3 = S, interior-vertex rows sum to 2S, and the strict
    inequality rows become integer sums <= S - 1, which matches the
    epsilon-relaxed system whenever 0 < epsilon <= pi/S.  Free corners (two
    per triangle) are enumerated depth-first with interval propagation on
    every row; the dependent corners are implied exactly.

    Returns True iff some grid point satisfies every constraint.
    """
    S = int(steps_per_pi)
    n_tri = len(system.link.bounded_faces)
    m = system.n_vars

    eq_idx = [tuple(np.flatnonzero(row).tolist()) for row in system.A_eq]
    ub_idx = [tuple(np.flatnonzero(row).tolist()) for row in system.A_ub]
    rows = []  # (indices, lo, hi) as integer constraints on corner units
    for idx, (kind, _) in zip(eq_idx, system.eq_kinds):
        total = S if kind == "triangle" else 2 * S
        rows.append((idx, total, total))
    for idx in ub_idx:
        rows.append((idx, len(idx), S - 1))

    # assignment order: interior-vertex corners first (their equality rows
    # prune hardest), then the remaining free corners; the slot-2 corner of
    # each triangle is dependent.
    dependent = {3 * f + 2 for f in range(n_tri)}
    priority = set()
    for idx, (kind, _) in zip(eq_idx, system.eq_kinds):
        if kind == "interior_vertex":
            priority.update(i for i in idx if i not in dependent)
    free = sorted(priority) + sorted(
        set(range(m)) - dependent - priority
    )

    lo_v = [1] * m
    hi_v = [S - 1] * m

    def propagate(lo_v, hi_v):
        changed = True
        while changed:
            changed = False
            for idx, lo, hi in rows:
                s_lo = sum(lo_v[i] for i in idx)
                s_hi = sum(hi_v[i] for i in idx)
                if s_lo > hi or s_hi < lo:
                    return False
                for i in idx:
                    new_lo = lo - (s_hi - hi_v[i])
                    new_hi = hi - (s_lo - lo_v[i])
                    if new_lo > lo_v[i]:
                        lo_v[i] = new_lo
                        changed = True
                    if new_hi < hi_v[i]:
                        hi_v[i] = new_hi
                        changed = True
                    if lo_v[i] > hi_v[i]:
                        return False
        return True

    def dfs(pos, lo_v, hi_v):
        if pos == len(free):
            return True
        var = free[pos]
        for val in range(lo_v[var], hi_v[var] + 1):
            nlo = list(lo_v)
            nhi = list(hi_v)
            nlo[var] = nhi[var] = val
            if propagate(nlo, nhi):
                if dfs(pos + 1, nlo, nhi):
                    return True
        return False

    if not propagate(lo_v, hi_v):
        return False
    return dfs(0, lo_v, hi_v)


def beta_mle_standard_errors(alpha, beta, n):
    """Asymptotic standard errors of the Beta MLE from the Fisher information."""
    from . import specfun

    tab = specfun.trigamma(alpha + beta)
    i11 = specfun.trigamma(alpha) - tab
    i22 = specfun.trigamma(beta) - tab
    det = i11 * i22 - tab * tab
    var_a = i22 / (det * n)
    var_b = i11 / (det * n)
    return math.sqrt(var_a), math.sqrt(var_b)
