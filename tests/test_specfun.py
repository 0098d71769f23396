import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealpoly import oracles, specfun

PI = math.pi

# frozen oracle values (quadrature / series, cross-checked against
# mpmath clsin(2, 2x)/2 and scipy during development)
LOB_PI_3 = 0.3383138688032179
LOB_PI_4 = 0.4579827970886095
LOB_PI_6 = 0.5074708032048268


def test_lobachevsky_reference_values():
    assert specfun.lobachevsky(PI / 3) == pytest.approx(LOB_PI_3, abs=1e-12)
    assert specfun.lobachevsky(PI / 4) == pytest.approx(LOB_PI_4, abs=1e-12)
    assert specfun.lobachevsky(PI / 6) == pytest.approx(LOB_PI_6, abs=1e-12)


def test_lobachevsky_zero_at_multiples_of_pi():
    assert specfun.lobachevsky(0.0) == 0.0
    for k in range(-3, 4):
        assert abs(specfun.lobachevsky(k * PI)) < 1e-13


def test_lobachevsky_vanishes_at_half_pi():
    # L(pi - x) = -L(x) forces a zero at pi/2
    assert abs(specfun.lobachevsky(PI / 2)) < 1e-14


def test_table1_consistency():
    assert 3 * specfun.lobachevsky(PI / 3) == pytest.approx(1.014942, abs=5e-6)
    assert 8 * specfun.lobachevsky(PI / 4) == pytest.approx(3.663862, abs=5e-6)


def test_oddness_and_periodicity():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-10, 10, 1000):
        lob = specfun.lobachevsky
        assert abs(lob(-theta) + lob(theta)) < 1e-12
        assert abs(lob(theta + PI) - lob(theta)) < 1e-12


def test_triplication_point():
    lhs = specfun.lobachevsky(PI / 6)
    rhs = 1.5 * specfun.lobachevsky(PI / 3)
    assert abs(lhs - rhs) < 1e-12


def test_matches_quadrature_oracle_on_grid():
    for i in range(1, 100):
        theta = PI * i / 100
        assert abs(
            specfun.lobachevsky(theta) - oracles.lobachevsky_by_quadrature(theta)
        ) < 1e-10


# Angles where the reduction or the log is delicate: zeros of L, the fold at
# pi/2, the smallest normal and subnormal magnitudes, and periods away.
LOB_EDGE_ANGLES = [
    0.0, -0.0, PI, -PI, 2 * PI, PI / 2, -PI / 2, 3 * PI / 2, 1e-300, -1e-300,
    5e-324, 1e-15, PI - 1e-15, PI + 1e-15, 7.0, -7.0, 100.0,
]
# Bound on |lobachevsky_array - lobachevsky| per angle; the largest gap on
# the angles below was 4.0e-16 (numpy's log, and y * (1 - log 2y + series)
# in place of the float function's two products).
LOB_ARRAY_BOUND = 1e-15


def test_lobachevsky_array_matches_float_function():
    rng = np.random.default_rng(31)
    theta = np.concatenate(
        [rng.uniform(0.0, PI, 60_000), rng.uniform(-10.0, 10.0, 40_000), LOB_EDGE_ANGLES]
    )
    got = specfun.lobachevsky_array(theta)
    ref = np.array([specfun.lobachevsky(t) for t in theta.tolist()])
    assert got.shape == theta.shape
    assert np.max(np.abs(got - ref)) <= LOB_ARRAY_BOUND
    # exact zeros where the float function's reduction lands on 0
    zero = ref == 0.0
    assert np.all(got[zero] == 0.0)


def test_lobachevsky_array_matches_quadrature_oracle():
    theta = PI * np.arange(1, 100) / 100
    got = specfun.lobachevsky_array(theta)
    for t, v in zip(theta.tolist(), got.tolist()):
        assert abs(v - oracles.lobachevsky_by_quadrature(t)) < 1e-10


def test_lobachevsky_array_empty():
    assert specfun.lobachevsky_array(np.array([])).shape == (0,)


def test_incomplete_beta_endpoints_and_symmetry():
    assert specfun.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert specfun.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert specfun.regularized_incomplete_beta(1.0, 1.0, 0.5) == pytest.approx(
        0.5, abs=1e-12
    )
    assert specfun.regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(
        0.5, abs=1e-12
    )
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.uniform(0.2, 20)
        b = rng.uniform(0.2, 20)
        x = rng.uniform(0, 1)
        s = specfun.regularized_incomplete_beta(
            a, b, x
        ) + specfun.regularized_incomplete_beta(b, a, 1 - x)
        assert abs(s - 1.0) < 1e-10


def test_incomplete_beta_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0.1, 40)
        b = rng.uniform(0.1, 40)
        x = rng.uniform(0, 1)
        ours = specfun.regularized_incomplete_beta(a, b, x)
        ref = float(scipy_special.betainc(a, b, x))
        assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))


# I_x(a, b) pinned bit for bit; "L" points lie below the symmetry split
# x < (a+1)/(a+b+2) and use the continued fraction directly, "R" points use
# 1 - I_{1-x}(b, a).
INCOMPLETE_BETA_PINS = [
    (2.0, 3.0, 0.1, "0x1.ac710cb295e9cp-5"),  # L
    (2.0, 3.0, 0.9, "0x1.fe1b089a02752p-1"),  # R
    (0.5, 0.5, 0.2, "0x1.2e4051d9df305p-2"),  # L
    (0.5, 0.5, 0.7, "0x1.43111b092557dp-1"),  # R
    (13.3, 6.1, 0.5, "0x1.72cd23319aaf5p-5"),  # L
    (13.3, 6.1, 0.8, "0x1.bbe3e3f9a8f34p-1"),  # R
    (1.0, 1.0, 0.25, "0x1.0000000000000p-2"),  # L
    (200.0, 3.0, 0.95, "0x1.19688dc254278p-9"),  # L
    (200.0, 3.0, 0.999, "0x1.ff6718a2d13a2p-1"),  # R
    (0.05, 40.0, 1e-06, "0x1.3ccafcd109e25p-1"),  # L
    (0.05, 40.0, 0.3, "0x1.ffffffe6cf0eep-1"),  # R
    (7.5, 0.75, 0.6, "0x1.a2e2cfd09307fp-7"),  # L
]


@pytest.mark.parametrize("a,b,x,expected", INCOMPLETE_BETA_PINS)
def test_incomplete_beta_pinned_values(a, b, x, expected):
    assert specfun.regularized_incomplete_beta(a, b, x) == float.fromhex(expected)
    got = specfun.regularized_incomplete_beta(a, b, np.array([x]))
    assert got[0] == float.fromhex(expected)


def _reference_betacf(a, b, x):
    # the scalar Lentz recurrence that the array code must reproduce bit for bit
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise AssertionError("reference continued fraction did not converge")


def _reference_incomplete_beta(a, b, x):
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _reference_betacf(a, b, x) / a
    return 1.0 - front * _reference_betacf(b, a, 1.0 - x) / b


def _scalar_loop(a, b, xs):
    return np.array([_reference_incomplete_beta(a, b, float(v)) for v in xs])


def test_incomplete_beta_array_endpoints():
    xs = np.array([0.0, 0.3, 1.0, 0.0, 0.9, 1.0])
    got = specfun.regularized_incomplete_beta(2.0, 3.0, xs)
    assert got[0] == got[3] == 0.0
    assert got[2] == got[5] == 1.0
    assert np.array_equal(got, _scalar_loop(2.0, 3.0, xs))
    assert np.array_equal(
        specfun.regularized_incomplete_beta(2.0, 3.0, np.array([0.0, 1.0])),
        [0.0, 1.0],
    )


def test_reference_reproduces_pins():
    for a, b, x, expected in INCOMPLETE_BETA_PINS:
        assert _reference_incomplete_beta(a, b, x) == float.fromhex(expected)


@pytest.mark.parametrize("size", [1, 4095, 4097, 10000])
def test_incomplete_beta_array_lengths_match_scalar(size):
    rng = np.random.default_rng(size)
    xs = np.sort(rng.beta(13.3, 6.1, size))
    got = specfun.regularized_incomplete_beta(13.3, 6.1, xs)
    assert got.shape == (size,)
    assert np.array_equal(got, _scalar_loop(13.3, 6.1, xs))


@pytest.mark.parametrize(
    "a,b", [(0.5, 0.5), (1.0, 1.0), (200.0, 3.0), (0.05, 40.0), (2.0, 3.0)]
)
def test_incomplete_beta_array_matches_reference(a, b):
    rng = np.random.default_rng(7)
    xs = np.sort(rng.beta(a, b, 2000))
    assert np.array_equal(
        specfun.regularized_incomplete_beta(a, b, xs), _scalar_loop(a, b, xs)
    )


def test_incomplete_beta_blocks_on_one_side_of_split():
    # a = b = 2 splits at 0.5; sorted points fill whole blocks on one side
    xs = np.linspace(0.0, 1.0, 3 * 4096 + 7)
    got = specfun.regularized_incomplete_beta(2.0, 2.0, xs)
    idx = np.r_[0:40, 4090:4100, 6140:6160, 12280:len(xs)]
    assert np.array_equal(got[idx], _scalar_loop(2.0, 2.0, xs[idx]))
    left = np.linspace(0.01, 0.4, 5000)
    right = np.linspace(0.6, 0.99, 5000)
    for part in (left, right):
        out = specfun.regularized_incomplete_beta(2.0, 2.0, part)
        assert np.array_equal(out[::50], _scalar_loop(2.0, 2.0, part[::50]))
    # closed form of I_x(2, 2) = 3x^2 - 2x^3
    assert np.allclose(got, 3 * xs**2 - 2 * xs**3, rtol=0, atol=1e-14)


def test_incomplete_beta_empty_array():
    out = specfun.regularized_incomplete_beta(2.0, 3.0, np.array([]))
    assert out.shape == (0,)


@pytest.mark.parametrize(
    "a,b,x",
    [
        (2.0, 3.0, math.nan),
        (2.0, 3.0, np.array([0.2, math.nan, 0.4])),
        (2.0, 3.0, -0.1),
        (2.0, 3.0, 1.5),
        (2.0, 3.0, np.array([0.2, 1.0 + 1e-12])),
        (2.0, 3.0, np.array([-1e-300, 0.5])),
        (0.0, 3.0, 0.5),
        (-1.0, 3.0, np.array([0.5])),
        (2.0, 0.0, 0.5),
        (2.0, -2.0, np.array([0.5])),
    ],
)
def test_incomplete_beta_rejects_bad_input(a, b, x):
    with pytest.raises(ValueError):
        specfun.regularized_incomplete_beta(a, b, x)


def _moment_shapes(x):
    mean = float(np.mean(x))
    common = mean * (1.0 - mean) / float(np.var(x)) - 1.0
    return mean * common, (1.0 - mean) * common


def test_incomplete_beta_converges_at_large_shapes():
    # A near-constant sample's moment fit: alpha 3.9e5, beta 1.5e6.  Points
    # near the mean need about 550 Lentz rounds, more than the 499 that fixed
    # the cap before it grew with sqrt(max(a, b)).
    scipy_special = pytest.importorskip("scipy.special")
    x = 0.2 + 1e-3 * np.random.default_rng(0).uniform(0, 1, 4097)
    a, b = _moment_shapes(x)
    assert 3e5 < a < 5e5 and 1e6 < b < 2e6
    got = specfun.regularized_incomplete_beta(a, b, x)
    assert np.max(np.abs(got - scipy_special.betainc(a, b, x))) < 1e-8
    # points that converge within 499 rounds keep their bits
    kept = 0
    for v, g in zip(x[::41].tolist(), got[::41].tolist()):
        try:
            ref = _reference_incomplete_beta(a, b, v)
        except AssertionError:  # needs more than 499 rounds
            continue
        assert g == ref
        kept += 1
    assert 0 < kept < len(x[::41])


def test_incomplete_beta_rejects_shapes_above_limit():
    limit = specfun._MAX_SHAPE
    specfun.regularized_incomplete_beta(limit, 3.0, 0.999)
    for a, b in ((2.0 * limit, 3.0), (3.0, 2.0 * limit)):
        with pytest.raises(ValueError, match="must not exceed"):
            specfun.regularized_incomplete_beta(a, b, 0.5)


def test_incomplete_beta_return_types():
    scalar = specfun.regularized_incomplete_beta(2.0, 3.0, 0.3)
    assert type(scalar) is float
    assert type(specfun.regularized_incomplete_beta(2.0, 3.0, 0.0)) is float
    assert type(specfun.regularized_incomplete_beta(2.0, 3.0, np.float64(0.3))) is float
    grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    out = specfun.regularized_incomplete_beta(2.0, 3.0, grid)
    assert isinstance(out, np.ndarray)
    assert out.shape == (3, 4)
    assert np.array_equal(out.ravel(), _scalar_loop(2.0, 3.0, grid.ravel()))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 50.0),
    b=st.floats(0.05, 50.0),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
)
def test_incomplete_beta_reflection_and_monotone_property(a, b, xs):
    # 1 - (1 - x) makes 1 - x exact, so the identity is tested, not the
    # rounding of 1 - x (which moves I_{1-x} by ~1e-9 when x ~ 1e-14)
    x = np.sort(1.0 - (1.0 - np.array(xs)))
    lower = specfun.regularized_incomplete_beta(a, b, x)
    upper = specfun.regularized_incomplete_beta(b, a, 1.0 - x)
    assert np.all(np.abs(lower + upper - 1.0) <= 1e-10)
    # nondecreasing up to rounding: the two sides of the symmetry split
    # can disagree by a few ulps where they meet
    assert np.all(np.diff(lower) >= -1e-14)


def test_digamma_values():
    euler_gamma = 0.5772156649015329
    assert specfun.digamma(1.0) == pytest.approx(-euler_gamma, abs=1e-10)
    assert specfun.digamma(2.0) == pytest.approx(1 - euler_gamma, abs=1e-10)
    assert specfun.digamma(0.5) == pytest.approx(
        -euler_gamma - 2 * math.log(2), abs=1e-10
    )
    # recurrence psi(x+1) = psi(x) + 1/x
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.1, 30, 200):
        assert specfun.digamma(x + 1) - specfun.digamma(x) == pytest.approx(
            1 / x, abs=1e-10
        )


def test_digamma_trigamma_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.05, 50, 300):
        assert specfun.digamma(x) == pytest.approx(
            float(scipy_special.digamma(x)), abs=1e-10
        )
        assert specfun.trigamma(x) == pytest.approx(
            float(scipy_special.polygamma(1, x)), abs=1e-9
        )


def test_kolmogorov_tail():
    assert specfun.kolmogorov_tail(0.0) == 1.0
    assert specfun.kolmogorov_tail(6.0) < 1e-10
    assert specfun.kolmogorov_tail(1.0) == pytest.approx(0.2699996716773545, abs=1e-10)


def test_kolmogorov_tail_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for lam in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        ref = float(scipy_stats.kstwobign.sf(lam))
        assert specfun.kolmogorov_tail(lam) == pytest.approx(ref, abs=1e-9)
