"""Special functions: Lobachevsky function, regularized incomplete beta,
digamma/trigamma, Kolmogorov distribution tail.

All functions are deterministic pure functions with fixed truncation rules.
The regularized incomplete beta takes a float or an array of points: an
array is evaluated in fixed blocks of points, each block one masked Lentz
iteration, and a float is the one-point case of the same code, so the KS
statistic of a Beta fit costs one call.
"""

import math

import numpy as np

from . import _kernels

lobachevsky = _kernels.lobachevsky


# Points per block of the array incomplete beta: the Lentz state of one
# block is a handful of arrays this long, so memory stays flat in len(x).
_BLOCK = 4096
_TINY = 1e-300


def _lentz(a, b, x):
    """Lentz's continued fraction for the incomplete beta integral at every
    point of the array ``x`` (Numerical Recipes section 6.4).

    Each element sees the scalar recurrence's operations in the same order,
    with the same ``_TINY`` clamps and the same ``|delta - 1| < 1e-15`` stop;
    converged elements leave the active set.
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
    for m in range(1, 500):
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


def _incomplete_beta_block(a, b, c0, split, x):
    """I_x(a, b) on one block; ``c0`` is log(Gamma(a+b) / Gamma(a) Gamma(b))."""
    out = np.where(x == 0.0, 0.0, 1.0)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    xi = x[inner]
    # libm, not numpy's log/exp: the two differ in the last bit on some points.
    log_x = np.fromiter(map(math.log, xi.tolist()), float, len(xi))
    log1p_neg_x = np.fromiter(map(math.log1p, (-xi).tolist()), float, len(xi))
    lbeta = c0 + a * log_x + b * log1p_neg_x
    front = np.fromiter(map(math.exp, lbeta.tolist()), float, len(xi))
    left = xi < split
    right = ~left
    out[inner[left]] = front[left] * _lentz(a, b, xi[left]) / a
    out[inner[right]] = 1.0 - front[right] * _lentz(b, a, 1.0 - xi[right]) / b
    return out


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) via the continued fraction with the symmetry reduction.

    ``x`` is a float or an array of floats in [0, 1]; a float gives a float
    and an array gives an array of the same shape.  Points with
    x < (a+1)/(a+b+2) use the continued fraction for I_x(a, b), the others
    1 - I_{1-x}(b, a).  The array is evaluated in blocks of ``_BLOCK``
    points, each one masked Lentz iteration, so a call over 10^5 points
    costs a few array passes per round instead of 10^5 Python loops.
    Raises ValueError for a <= 0, b <= 0, x outside [0, 1] (NaN included)
    or a continued fraction unconverged after 499 rounds.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not np.all((flat >= 0.0) & (flat <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    c0 = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    split = (a + 1.0) / (a + b + 2.0)
    out = np.empty(len(flat))
    for start in range(0, len(flat), _BLOCK):
        stop = start + _BLOCK
        out[start:stop] = _incomplete_beta_block(a, b, c0, split, flat[start:stop])
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
