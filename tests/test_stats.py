import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealpoly
from idealpoly import oracles, specfun, stats, triang
from idealpoly.errors import FitDiverged, InputError


def test_sample_pool_is_capped_by_count_and_cpus(monkeypatch):
    # an in-process stand-in for the pool: records its size, starts no process
    import concurrent.futures

    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = stats.sample_volumes(6, 5, seed=0).volumes
    assert workers == []
    cpus = os.cpu_count() or 1
    for reported in (cpus, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: reported)
        pooled = stats.sample_volumes(6, 5, seed=0, threads=10**6).volumes
        assert pooled.tobytes() == serial.tobytes()
    assert workers == [w for w in (min(5, cpus), 5) if w > 1]


def test_sample_volumes_basic():
    s = stats.sample_volumes(5, 1, seed=3)
    assert s.count == 1
    assert s.volumes[0] > 0
    assert s.vmax == stats.KNOWN_MAX_VOLUME[5]


def test_sample_and_search_reject_bad_sizes():
    for call in (
        lambda: stats.sample_volumes(3, 10),
        lambda: stats.sample_volumes(6, 0),
        lambda: stats.sample_volumes(13, 10),
        lambda: stats.sample_volumes(6, 10, threads=0),
        lambda: stats.sample_volumes(6, 10, threads=-1),
        lambda: stats.search_max_volume(3, 10),
        lambda: stats.search_max_volume(6, 0),
    ):
        with pytest.raises(InputError):
            call()


def test_sample_volumes_bounded_by_table_max_n4():
    s = stats.sample_volumes(4, 5000, seed=0)
    assert float(np.max(s.volumes)) <= 1.014942 + 1e-9


def test_sample_volumes_deterministic_and_thread_invariant():
    a = stats.sample_volumes(6, 64, seed=9)
    b = stats.sample_volumes(6, 64, seed=9)
    assert np.array_equal(a.volumes, b.volumes)
    c = stats.sample_volumes(6, 64, seed=9, threads=2)
    assert np.array_equal(a.volumes, c.volumes)


def test_import_leaves_out_multiprocessing():
    # The process pool of sample_volumes(threads > 1) is imported on use, so
    # every other command skips multiprocessing, socket and logging. The child
    # gets the directory holding the imported package first on its path, so it
    # imports the same package from a checkout or an install.
    pkg_parent = os.path.dirname(os.path.dirname(idealpoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    code = "import sys, idealpoly.stats; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_fit_beta_uniform():
    rng = np.random.default_rng(17)
    sample = stats.VolumeSample(
        n=4, volumes=rng.uniform(0, 1, 10000), seed=0, vmax=1.0, vmax_mode="given"
    )
    fit = stats.fit_beta(sample)
    assert fit.alpha == pytest.approx(1.0, abs=0.05)
    assert fit.beta == pytest.approx(1.0, abs=0.05)


def test_fit_beta_synthetic_beta23():
    rng = np.random.default_rng(18)
    x = rng.beta(2.0, 3.0, 100000)
    fit = stats.fit_beta(
        stats.VolumeSample(n=4, volumes=x, seed=0, vmax=1.0, vmax_mode="given")
    )
    assert fit.alpha == pytest.approx(2.0, abs=0.05)
    assert fit.beta == pytest.approx(3.0, abs=0.08)
    assert fit.method == "mle"


def test_fit_beta_replicates_within_three_se():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        x = rng.beta(2.0, 3.0, 5000)
        fit = stats.fit_beta(
            stats.VolumeSample(n=4, volumes=x, seed=seed, vmax=1.0, vmax_mode="given")
        )
        se_a, se_b = oracles.beta_mle_standard_errors(2.0, 3.0, 5000)
        if abs(fit.alpha - 2.0) <= 3 * se_a and abs(fit.beta - 3.0) <= 3 * se_b:
            hits += 1
    assert hits >= 18


def test_fit_beta_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(19)
    x = rng.beta(5.0, 2.0, 20000)
    fit = stats.fit_beta(
        stats.VolumeSample(n=4, volumes=x, seed=0, vmax=1.0, vmax_mode="given")
    )
    a_ref, b_ref, _, _ = scipy_stats.beta.fit(x, floc=0, fscale=1)
    assert fit.alpha == pytest.approx(a_ref, rel=1e-3)
    assert fit.beta == pytest.approx(b_ref, rel=1e-3)
    # KS statistic against scipy's, computed at our fitted parameters
    d_ref = scipy_stats.kstest(x, lambda v: scipy_stats.beta.cdf(v, fit.alpha, fit.beta)).statistic
    assert fit.ks_stat == pytest.approx(float(d_ref), abs=1e-9)


def test_fit_beta_needs_enough_samples():
    with pytest.raises(FitDiverged):
        stats.fit_beta(
            stats.VolumeSample(
                n=4, volumes=np.array([0.5] * 5), seed=0, vmax=1.0, vmax_mode="given"
            )
        )


@pytest.mark.parametrize("value", [0.5, 0.1, 0.3, 1.0])
def test_fit_beta_zero_variance(value):
    # 0.5 gives np.var == 0; 0.1 and 0.3 give a rounded variance of ~1e-33;
    # 1.0 is clamped to 1 - 1e-12 for every point
    sample = stats.VolumeSample(
        n=4, volumes=np.full(20, value), seed=0, vmax=1.0, vmax_mode="given"
    )
    with pytest.raises(FitDiverged, match="sample variance is zero"):
        stats.fit_beta(sample)


# Near-constant samples that are not all equal: the moment start is
# alpha ~ 1e13 (first) or ~ 1e20 (second), where the KS CDF fails.
NEAR_CONSTANT = [[0.1] * 19 + [0.1000001], [0.5] * 19 + [0.5000000001]]


@pytest.mark.parametrize("values", NEAR_CONSTANT)
def test_fit_beta_near_constant_sample_diverges(values):
    sample = stats.VolumeSample(
        n=4, volumes=np.array(values), seed=0, vmax=1.0, vmax_mode="given"
    )
    with pytest.raises(FitDiverged, match="KS statistic failed"):
        stats.fit_beta(sample)


# The KS statistic as it was before the branch-and-bound: the CDF at every
# sorted point. The pruned statistic must return the same float.
_full_incomplete_beta = specfun.regularized_incomplete_beta


def _full_ks_statistic(x, a, b):
    xs = np.sort(x)
    n = len(xs)
    cdf = _full_incomplete_beta(a, b, xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([10, 63, 64, 65, 129]) | st.integers(10, 20000),
    a=st.floats(0.3, 300.0),
    b=st.floats(0.3, 300.0),
    skew=st.floats(0.8, 1.25),
    decimals=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    prune_from=st.sampled_from([0, stats._KS_PRUNE_FROM]),
)
def test_ks_statistic_matches_full_evaluation(n, a, b, skew, decimals, seed, prune_from):
    # prune_from = 0 takes the pruned search at every size
    x = np.random.default_rng(seed).beta(a * skew, b, n)
    if decimals is not None:
        x = np.round(x, decimals)  # ties, and points at 0 and 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_KS_PRUNE_FROM", prune_from)
        pruned = stats._ks_statistic(x, a, b)
    assert pruned.hex() == _full_ks_statistic(x, a, b).hex()


@pytest.mark.parametrize("n", [100, 2999, 3000, 5000])
def test_ks_statistic_prunes_from_its_crossover(n, monkeypatch):
    # one call over every point below the crossover; the pruned search,
    # evaluating fewer points, from it on (sample-fit fits 5000 points)
    x = np.random.default_rng(n).beta(13.3, 6.1, n)
    sizes = []

    def counting(a, b, xs):
        sizes.append(len(xs))
        return _full_incomplete_beta(a, b, xs)

    monkeypatch.setattr(specfun, "regularized_incomplete_beta", counting)
    got = stats._ks_statistic(x, 13.3, 6.1)
    assert got.hex() == _full_ks_statistic(x, 13.3, 6.1).hex()
    if n < stats._KS_PRUNE_FROM:
        assert sizes == [n]
    else:
        assert sum(sizes) < n / 4


def test_ks_statistic_fit_large_shape(monkeypatch):
    # 100k Beta(13.3, 6.1) draws at their MLE fit, as in the fit-large load
    x = np.random.default_rng(21).beta(13.3, 6.1, 100000)
    points = []

    def counting(a, b, xs):
        points.append(len(xs))
        return _full_incomplete_beta(a, b, xs)

    monkeypatch.setattr(specfun, "regularized_incomplete_beta", counting)
    fit = stats.fit_beta(
        stats.VolumeSample(n=8, volumes=x, seed=0, vmax=1.0, vmax_mode="given")
    )
    assert fit.method == "mle"
    assert fit.ks_stat.hex() == _full_ks_statistic(x, fit.alpha, fit.beta).hex()
    assert sum(points) <= 0.05 * len(x)


def test_ks_statistic_maximum_on_a_gap_bound(monkeypatch):
    # Grid points 0, 64 and 127. Points 65..127 tie, so the lower deviation
    # at 65 equals the bound of the gap (64, 127) exactly, and it lies 5e-10
    # above the best grid value: only a gap within the margin finds it.
    monkeypatch.setattr(stats, "_KS_PRUNE_FROM", 0)
    n = 128
    x = np.concatenate(
        [np.linspace(0.001, 0.3, 64), [0.9 - 1 / n - 5e-10], np.full(63, 0.9)]
    )
    assert stats._ks_statistic(x, 1.0, 1.0).hex() == _full_ks_statistic(x, 1.0, 1.0).hex()


def _fit_outcome(values):
    sample = stats.VolumeSample(
        n=4, volumes=np.array(values), seed=0, vmax=1.0, vmax_mode="given"
    )
    try:
        return stats.fit_beta(sample).ks_stat.hex()
    except FitDiverged as exc:
        return str(exc)


@pytest.mark.parametrize(
    "values",
    NEAR_CONSTANT
    + [[base] * 19 + [base + 10.0**-e] for base in (0.1, 0.5, 0.9) for e in range(2, 10)]
    + [
        list(base + 1e-8 * np.linspace(0, 1, m))
        for base, m in ((0.1, 100), (0.3, 65), (0.7, 200))
    ],
)
def test_ks_statistic_near_constant_matches_full_evaluation(monkeypatch, values):
    # The moment start lands at alpha ~ 1e3 to 1e20, where the incomplete beta
    # fails to converge, overflows or stops being monotone. The evenly spread
    # samples fail only at points between the grid points, which the search
    # reaches only because the evaluated CDF decreases. The search is forced
    # on these small samples, which lie below its crossover.
    monkeypatch.setattr(stats, "_KS_PRUNE_FROM", 0)
    pruned = _fit_outcome(values)
    monkeypatch.setattr(stats, "_ks_statistic", _full_ks_statistic)
    assert pruned == _fit_outcome(values)


def test_fit_beta_clamps_at_one():
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.beta(2, 3, 1000), [1.0, 1.0000001]])
    fit = stats.fit_beta(
        stats.VolumeSample(n=4, volumes=x, seed=0, vmax=1.0, vmax_mode="given")
    )
    assert fit.clamped == 2


def test_scaling_fit_collinear():
    fits = [
        stats.BetaFit(
            alpha=2.0 * n, beta=1.0 * n, mean=0.5, std=0.1, ks_stat=0.0,
            p_value=1.0, n=n, count=10, vmax=1.0, clamped=0, method="mle",
        )
        for n in (5, 7, 9)
    ]
    sc = stats.scaling_fit(fits)
    assert sc.alpha_slope == pytest.approx(2.0, abs=1e-12)
    assert sc.alpha_intercept == pytest.approx(0.0, abs=1e-10)
    assert sc.beta_slope == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_reference_table():
    # published-style fit table: alpha/beta values at six vertex counts
    table = {
        5: (2.88, 1.53, 0.659),
        6: (6.74, 4.11, 0.623),
        7: (9.67, 4.84, 0.667),
        8: (13.26, 6.12, 0.685),
        10: (23.02, 10.05, 0.696),
        12: (32.56, 14.49, 0.692),
    }
    fits = [
        stats.BetaFit(
            alpha=a, beta=b, mean=m, std=0.1, ks_stat=0.0, p_value=0.5,
            n=n, count=5000, vmax=1.0, clamped=0, method="mle",
        )
        for n, (a, b, m) in table.items()
    ]
    sc = stats.scaling_fit(fits)
    assert sc.alpha_slope == pytest.approx(4.25, abs=0.15)
    assert sc.beta_slope == pytest.approx(1.78, abs=0.15)
    means_high = [m for n, (_, _, m) in table.items() if n >= 8]
    assert all(abs(m - 0.69) <= 0.02 for m in means_high)


def test_search_reproducible_and_prefix_monotone():
    a = stats.search_max_volume(6, 10, seed=4)
    b = stats.search_max_volume(6, 10, seed=4)
    assert a.best_volume == b.best_volume
    assert a.per_trial == b.per_trial
    longer = stats.search_max_volume(6, 20, seed=4)
    assert longer.per_trial[:10] == a.per_trial
    assert longer.best_volume >= a.best_volume
    # best over trials really is the running max
    best = max(v for _, v, _ in longer.per_trial)
    assert longer.best_volume == best


def test_search_small_n():
    r = stats.search_max_volume(4, 1, seed=0)
    assert r.best_volume == pytest.approx(1.014942, abs=1e-6)
    assert triang.canonical_form_full(r.best_triangulation) == (
        triang.canonical_form_full(triang.tetrahedron())
    )
    r = stats.search_max_volume(5, 5, seed=0)
    assert r.best_volume == pytest.approx(2.029883, abs=1e-6)


def test_search_n6_hits_octahedron():
    r = stats.search_max_volume(6, 30, seed=0)
    assert r.best_volume == pytest.approx(3.663862, abs=1e-4)
    assert triang.canonical_form_full(r.best_triangulation) == (
        triang.canonical_form_full(triang.octahedron())
    )
    # the other 6-vertex type optimizes strictly lower (3 V4 < octahedron)
    vols = sorted({round(v, 9) for _, v, _ in r.per_trial})
    if len(vols) == 2:
        assert vols[0] == pytest.approx(3 * 1.0149416064096537, abs=1e-6)


def test_type_hash_is_pinned_and_reported_per_trial():
    key = triang.canonical_form(triang.octahedron())
    assert f"{stats.type_hash(key):08x}" == "871cfe39"
    r = stats.search_max_volume(6, 3, seed=0)
    best = stats.type_hash(triang.canonical_form(r.best_triangulation))
    assert best in {h for _, _, h in r.per_trial}


def test_normalized_volumes_bounded_with_search_vmax():
    s = stats.sample_volumes(5, 500, seed=2, vmax_mode="search")
    assert float(np.max(s.normalized())) <= 1 + 1e-9
