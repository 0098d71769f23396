import os
import subprocess
import sys

import numpy as np
import pytest

import idealpoly
from idealpoly import oracles, stats, triang
from idealpoly.errors import FitDiverged, InputError


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
