"""Special functions: Lobachevsky function, regularized incomplete beta,
digamma/trigamma, Kolmogorov distribution tail.

All functions are deterministic pure functions with fixed truncation rules.
This module is the one home of the Lobachevsky series: ``lobachevsky_array``
evaluates it over an array in one numpy pass, ``lobachevsky`` is its
one-element case and ``lobachevsky_sum`` is the volume of a set of corner
angles, which the volume optimizer and configuration sampling both use.
The regularized incomplete beta takes a float or an array of points: each
side of its symmetry split is one masked Lentz iteration over all of that
side's points, and a float is the one-point case of the same code.  Each
point's value depends on that point alone, so the KS statistic of a Beta fit
evaluates only the few sorted points where its supremum can lie, in a few
calls (``stats._ks_statistic``).
"""

import math

import numpy as np


def _zeta_even(s):
    # Direct sum plus Euler-Maclaurin tail; s >= 2 gives ~1e-16 accuracy.
    total = 0.0
    for k in range(1, 100):
        total += float(k) ** (-s)
    big = 100.0
    total += big ** (1.0 - s) / (s - 1.0)
    total += 0.5 * big ** (-s)
    total += s * big ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * big ** (-s - 3.0) / 720.0
    return total


# The Lobachevsky function from its logarithmic singularity extraction
#
#     L(x) = x*(1 - log(2x)) + x * sum_{k>=1} c_k * (x/pi)^(2k),   0 <= x <= pi/2
#
# with c_k = zeta(2k) / (k*(2k+1)).  On [0, pi/2] the powers (x/pi)^(2k) are
# at most 4^-k and c_k < 1/k^2, so the first omitted term is below
# 4^-27 / 27^2, about 1e-19 of x: far below one ulp of L.
_LOB_TERMS = 26
_LOB_COEFFS = np.array(
    [_zeta_even(2.0 * k) / (k * (2.0 * k + 1.0)) for k in range(1, _LOB_TERMS + 1)]
)


def lobachevsky_array(theta):
    """The Lobachevsky function at every element of a 1-D float array.

    L is odd and pi-periodic, so each angle is reduced to y in [0, pi/2]
    with L(pi - y) = -L(y), and the series is evaluated in one pass: the
    powers of (y/pi)^2 come from a cumulative product and meet the
    ``_LOB_TERMS`` coefficients in one matrix product.  L is exactly 0 where
    the reduction lands on a multiple of pi.
    """
    x = np.mod(theta, math.pi)
    y = np.minimum(x, math.pi - x)  # L(pi - y) = -L(y)
    powers = np.empty((_LOB_TERMS, len(y)))
    powers[:] = np.square(y / math.pi)
    series = _LOB_COEFFS @ powers.cumprod(axis=0)
    # at y = 0 the log reads the smallest subnormal, finite, so L = 0 there
    val = y * (1.0 - np.log(np.maximum(y + y, 5e-324)) + series)
    return np.copysign(val, 0.5 * math.pi - x)


def lobachevsky(theta):
    """The Lobachevsky function at one float: the one-element case of
    ``lobachevsky_array``."""
    return float(lobachevsky_array(np.array([theta], dtype=float))[0])


def lobachevsky_sum(values):
    """The Lobachevsky sum over the angles in ``values``, any shape, read in
    row-major order: the hyperbolic volume of those corners."""
    return float(lobachevsky_array(np.asarray(values, dtype=float).reshape(-1)).sum())


_TINY = 1e-300
# Largest shape parameter.  The prefactor's exponent sums terms near
# (a + b) log(a + b), whose rounding grows with them: near the mean, against
# scipy.special.betainc, I_x is off by 2e-9 at (a, b) = (3.9e5, 1.5e6), 4e-7
# at (1e9, 3e9) and 2e-5 at (3e9, 1e10).
_MAX_SHAPE = 1e9


def _lentz(a, b, x):
    """Lentz's continued fraction for the incomplete beta integral at every
    point of the array ``x`` (Numerical Recipes section 6.4).

    Each element sees the scalar recurrence's operations in the same order,
    with the same ``_TINY`` clamps and the same ``|delta - 1| < 1e-15`` stop;
    converged elements leave the active set.  Near the mean the fraction
    needs O(sqrt(max(a, b))) rounds (Numerical Recipes section 6.4), so the
    round cap grows with it.
    """
    h_out = np.empty(len(x))
    if len(x) == 0:
        return h_out
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    active = np.arange(len(x))
    c = np.ones(len(x))
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
    h = d
    for m in range(1, 500 + int(math.sqrt(max(a, b)))):
        m2 = 2 * m
        for num, den in (
            (m * (b - m), (qam + m2) * (a + m2)),
            (-(a + m) * (qab + m), (a + m2) * (qap + m2)),
        ):
            aa = num * x / den
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < _TINY, _TINY, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < _TINY, _TINY, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            h_out[active[done]] = h[done]
            keep = ~done
            if not keep.any():
                return h_out
            active, x, c, d, h = active[keep], x[keep], c[keep], d[keep], h[keep]
    raise ValueError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) via the continued fraction with the symmetry reduction.

    ``x`` is a float or an array of floats in [0, 1]; a float gives a float
    and an array gives an array of the same shape.  Points with
    x < (a+1)/(a+b+2) use the continued fraction for I_x(a, b), the others
    1 - I_{1-x}(b, a).  Each side is one masked Lentz iteration over all
    its points, so a call over 10^4 points costs a few array passes per
    round instead of 10^4 Python loops.  A point's value does not depend on
    the other points of the call.
    Raises ValueError for a <= 0, b <= 0, a or b above ``_MAX_SHAPE``, x
    outside [0, 1] (NaN included) or a continued fraction unconverged after
    499 + sqrt(max(a, b)) rounds.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if max(a, b) > _MAX_SHAPE:
        raise ValueError(f"a and b must not exceed {_MAX_SHAPE:g}")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not np.all((flat >= 0.0) & (flat <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    c0 = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    split = (a + 1.0) / (a + b + 2.0)
    out = np.where(flat == 0.0, 0.0, 1.0)
    inner = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    xi = flat[inner]
    # libm, not numpy's log/exp: the two differ in the last bit on some points.
    log_x = np.fromiter(map(math.log, xi.tolist()), float, len(xi))
    log1p_neg_x = np.fromiter(map(math.log1p, (-xi).tolist()), float, len(xi))
    lbeta = c0 + a * log_x + b * log1p_neg_x
    front = np.fromiter(map(math.exp, lbeta.tolist()), float, len(xi))
    left = xi < split
    right = ~left
    out[inner[left]] = front[left] * _lentz(a, b, xi[left]) / a
    out[inner[right]] = 1.0 - front[right] * _lentz(b, a, 1.0 - xi[right]) / b
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


# Bernoulli-number coefficients B_{2n}/(2n) for the digamma asymptotic series.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x):
    """psi(x) for x > 0: recurrence to x >= 10, then the asymptotic series."""
    if x <= 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    p = inv2
    for c in _DIGAMMA_COEFFS:
        series += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x):
    """psi'(x) for x > 0, same recurrence/asymptotic strategy as digamma."""
    if x <= 0.0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # 1/x + 1/(2x^2) + sum B_{2n} x^(-2n-1)
    series = inv + 0.5 * inv2
    p = inv2 * inv
    for b2n in (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0):
        series += b2n * p
        p *= inv2
    return acc + series


def kolmogorov_tail(lam):
    """Q(lambda) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2), Q(0) = 1."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    if lam < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100000):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))
