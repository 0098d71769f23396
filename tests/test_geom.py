import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealpoly import _kernels, geom, optvol, rivin, stats, triang
from idealpoly.errors import DegenerateSample

from test_kernels import MISSED_BOUNDARY_EDGE

PI = math.pi


def test_sample_sphere_statistics():
    rng = np.random.default_rng(0)
    pts = geom.sample_sphere(100000, rng)
    norms = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # Var(z) = 1/3 for the uniform sphere; 3 sigma / sqrt(N) ~ 0.0055
    assert abs(float(np.mean(pts[:, 2]))) < 0.0055
    cap = float(np.mean(pts[:, 2] > 0.5))
    assert abs(cap - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 100000)


def test_sample_sphere_empty():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert geom.sample_sphere(0, rng).shape == (0, 3)
    assert rng.bit_generator.state == state  # drew nothing


def test_stereographic_special_points():
    assert geom.stereographic((0.0, 0.0, 1.0)) is None
    assert geom.stereographic((0.0, 0.0, -1.0)) == 0
    assert geom.stereographic((1.0, 0.0, 0.0)) == 1
    # inverse round trip
    rng = np.random.default_rng(1)
    for p in geom.sample_sphere(200, rng):
        w = geom.stereographic(p)
        q = geom.inverse_stereographic(w)
        assert np.allclose(p, q, atol=1e-12)


def test_random_configuration_counts_and_separation():
    rng = np.random.default_rng(2)
    cfg = geom.random_configuration(4, rng)
    assert cfg.n == 4
    assert len(cfg.finite) == 3
    cfg = geom.random_configuration(12, rng)
    assert len(cfg.finite) == 11
    pts = cfg.finite
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(pts[i] - pts[j]) > 1e-6


def _scalar_random_configuration(n, rng):
    """``geom.random_configuration`` drawing one point per attempt with two
    ``rng.uniform`` calls, and the number of candidates it rejected.  The
    sampler drew its points this way until 0.2.15."""
    finite = [complex(0.0, 0.0), complex(1.0, 0.0)]
    rejected = 0
    for _ in range(n - 3):
        for _attempt in range(100):
            z = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(max(0.0, 1.0 - z * z))
            w = geom.stereographic(np.array([(r * math.cos(phi), r * math.sin(phi), z)])[0])
            if w is not None and all(abs(w - q) > geom.MIN_SEPARATION for q in finite):
                finite.append(w)
                break
            rejected += 1
        else:
            raise DegenerateSample("resampling budget exhausted")
    return geom.PointConfiguration(finite=tuple(finite)), rejected


def _assert_sampler_matches_scalar(n, trials):
    """Same configurations, and the same generator state after each, as the
    per-point sampler; returns the candidates the latter rejected."""
    rejected = 0
    for trial in range(trials):
        rng, oracle_rng = stats.trial_rng(0, trial), stats.trial_rng(0, trial)
        expected, count = _scalar_random_configuration(n, oracle_rng)
        assert geom.random_configuration(n, rng) == expected, (n, trial)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, (n, trial)
        rejected += count
    return rejected


@pytest.mark.parametrize("n", [4, 5, 8, 12, 40, 60])
def test_random_configuration_matches_scalar_sampler(n):
    _assert_sampler_matches_scalar(n, 200)


@pytest.mark.parametrize("n", [4, 5, 8, 12, 40, 60])
def test_random_configuration_matches_scalar_sampler_with_rejections(n, monkeypatch):
    # a separation this wide rejects candidates, so blocks are drawn again
    monkeypatch.setattr(geom, "MIN_SEPARATION", 0.3)
    assert _assert_sampler_matches_scalar(n, 200) >= 1


class _ListedDoubles:
    """A generator stub whose ``random(size)`` hands out listed doubles in
    order and records each size asked for."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.sizes = []

    def random(self, size):
        assert size <= len(self.doubles), "drew past the listed doubles"
        self.sizes.append(size)
        out, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(out)


def test_random_configuration_skips_the_north_pole():
    # u = 1 - 2^-53 gives z = 1 - 2^-52: the north pole, which is skipped;
    # (0.25, 0) is the point (sqrt(3)/2, 0, -1/2) and (0.75, 0.25) the point
    # (0, sqrt(3)/2, 1/2)
    rng = _ListedDoubles([1.0 - 2.0**-53, 0.5, 0.25, 0.0, 0.75, 0.25])
    cfg = geom.random_configuration(5, rng)
    assert cfg.finite[2:] == (
        geom.stereographic((math.sqrt(0.75), 0.0, -0.5)),
        geom.stereographic((math.sqrt(0.75) * math.cos(PI / 2), math.sqrt(0.75), 0.5)),
    )
    # one block per vertex still missing: two, then the one the pole left
    assert rng.sizes == [4, 2] and not rng.doubles


def test_random_configuration_resampling_budget():
    # (0.5, 0) is the point (1, 0, 0), which coincides with the fixed vertex 1:
    # the 100th coincident candidate ends the sampling
    rng = _ListedDoubles([0.5, 0.0] * 100)
    with pytest.raises(DegenerateSample, match="resampling budget exhausted"):
        geom.random_configuration(4, rng)
    assert rng.sizes == [2] * 100


def test_delaunay_rejects_duplicate_and_too_few_points():
    with pytest.raises(DegenerateSample, match="duplicate points"):
        geom.delaunay(geom.make_configuration([0, 1, 1 + 1e-12j]))
    with pytest.raises(DegenerateSample, match="at least 3 points"):
        geom.delaunay(geom.make_configuration([0, 1]))


def test_kernel_cones_pass_validate():
    # cone() builds its triangulation without validate, on the kernel's word
    # that its triangles form a disk: validate must accept every cone of the
    # c07 configurations unchanged
    for trial in range(1000):
        cfg = geom.random_configuration(5 + trial % 8, stats.trial_rng(99, trial))
        t = geom.cone(geom.delaunay(cfg))
        assert triang.validate(t.n, t.faces) == t


def test_delaunay_hull_with_missed_boundary_edge_is_degenerate_sample():
    # degenerate geometry, not an invalid triangulation: the kernel's disk
    # check raises before any cone is built
    cfg = geom.make_configuration([complex(x, y) for x, y in zip(*MISSED_BOUNDARY_EDGE)])
    with pytest.raises(DegenerateSample, match="hull misses a boundary edge"):
        geom.delaunay(cfg)


def test_delaunay_single_triangle():
    pt = geom.delaunay(geom.make_configuration([0, 1, 1j]))
    assert pt.triangles == ((0, 1, 2),)
    assert list(pt.hull) == [0, 1, 2]


def test_delaunay_cocircular_square_deterministic():
    cfg = geom.make_configuration([0, 1, 1 + 1j, 1j])
    pt = geom.delaunay(cfg)
    assert len(pt.triangles) == 2
    again = geom.delaunay(cfg)
    assert pt.triangles == again.triangles


def test_delaunay_collinear_rejected():
    with pytest.raises(DegenerateSample):
        geom.delaunay(geom.make_configuration([0, 1, 2, 3]))


def test_delaunay_empty_circumcircle_100_random():
    for trial in range(100):
        cfg = geom.random_configuration(10, stats.trial_rng(42, trial))
        pt = geom.delaunay(cfg)
        xs = [w.real for w in pt.points]
        ys = [w.imag for w in pt.points]
        for a, b, c in pt.triangles:
            for d in range(len(pt.points)):
                if d in (a, b, c):
                    continue
                det = _kernels.incircle_det(
                    xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
                )
                assert det <= 1e-12


def test_close_with_infinity_tetrahedron():
    pt = geom.delaunay(geom.make_configuration([0, 1, 1j]))
    t, link = geom.close_with_infinity(pt)
    assert t.n == 4
    assert triang.canonical_form_full(t) == triang.canonical_form_full(
        triang.tetrahedron()
    )
    assert link.apex == 3
    assert link.bounded_faces == pt.triangles


def test_close_with_infinity_square_gives_bipyramid():
    pt = geom.delaunay(geom.make_configuration([0, 1, 1 + 1j, 1j]))
    t, _ = geom.close_with_infinity(pt)
    assert t.n == 5
    assert triang.canonical_form_full(t) == triang.canonical_form_full(
        triang.bipyramid()
    )


def test_close_with_infinity_octahedral_configuration():
    pt = geom.delaunay(
        geom.make_configuration([0, 1, 1 + 1j, 1j, 0.5 + 0.5j])
    )
    t, _ = geom.close_with_infinity(pt)
    assert triang.canonical_form_full(t) == triang.canonical_form_full(
        triang.octahedron()
    )


def test_euclidean_angles():
    pt = geom.delaunay(
        geom.make_configuration([0, 1, complex(0.5, math.sqrt(3) / 2)])
    )
    a = geom.euclidean_angles(pt)
    assert np.allclose(a, PI / 3, atol=1e-12)
    pt = geom.delaunay(geom.make_configuration([0, 1, 1j]))
    a = np.sort(geom.euclidean_angles(pt)[0])
    assert np.allclose(a, [PI / 4, PI / 4, PI / 2], atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        cfg = geom.random_configuration(8, rng)
        sums = geom.euclidean_angles(geom.delaunay(cfg)).sum(axis=1)
        assert np.max(np.abs(sums - PI)) < 1e-10


def test_config_volume_closed_forms():
    v = geom.config_volume(
        geom.make_configuration([0, 1, complex(0.5, math.sqrt(3) / 2)])
    )
    assert v == pytest.approx(1.014942, abs=5e-6)
    v = geom.config_volume(
        geom.make_configuration([0, 1, 1 + 1j, 1j, 0.5 + 0.5j])
    )
    assert v == pytest.approx(3.663862, abs=5e-6)
    with pytest.raises(DegenerateSample):
        geom.config_volume(geom.make_configuration([0, 1, 1 + 1e-12j]))


def test_config_volume_similarity_invariance():
    rng = np.random.default_rng(4)
    for trial in range(20):
        cfg = geom.random_configuration(9, stats.trial_rng(7, trial))
        v0 = geom.config_volume(cfg)
        a = cmath.rect(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, 2 * PI)))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        moved = geom.make_configuration([a * w + b for w in cfg.finite])
        assert geom.config_volume(moved) == pytest.approx(v0, abs=1e-10)


def test_n4_random_volumes_below_regular_tetrahedron():
    vmax = optvol.regular_tetrahedron_volume()
    for trial in range(10000):
        cfg = geom.random_configuration(4, stats.trial_rng(11, trial))
        assert geom.config_volume(cfg) <= vmax + 1e-9


def test_duality_with_realizability_constraints():
    # Euclidean angles of a strictly Delaunay configuration satisfy the
    # epsilon = 0 system with strict slack
    for trial in range(25):
        cfg = geom.random_configuration(9, stats.trial_rng(21, trial))
        pt = geom.delaunay(cfg)
        t, link = geom.close_with_infinity(pt)
        th = geom.euclidean_angles(pt).reshape(-1)
        system = rivin.assemble_constraints(link)
        assert np.max(np.abs(system.A_eq @ th - system.b_eq)) < 1e-9
        assert np.min(th) > 0
        assert np.min(system.b_ub - system.A_ub @ th) > 0


def test_layout_round_trips():
    # single triangle: equilateral up to similarity
    link = triang.build_link(triang.tetrahedron(), 3)
    lay = geom.layout(link, np.full((1, 3), PI / 3))
    pts = lay.triangulation.points
    assert pts[0] == 0 and pts[1] == 1
    assert pts[2] == pytest.approx(complex(0.5, math.sqrt(3) / 2), abs=1e-12)

    # octahedron optimum reproduces the square-with-center layout
    res = rivin.is_realizable(triang.octahedron())
    out = optvol.maximize_volume(res.link)
    lay = geom.layout(res.link, out.angles)
    assert lay.residual < 1e-12
    again = geom.euclidean_angles(lay.triangulation)
    assert np.max(np.abs(again - out.angles)) < 1e-10
    # random configurations: see the property test below


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 14), seed=st.integers(0, 2**32 - 1))
def test_layout_round_trips_euclidean_angles_and_interior_optima(n, seed):
    pt = geom.delaunay(geom.random_configuration(n, stats.trial_rng(seed, 0)))
    _, link = geom.close_with_infinity(pt)
    angles = geom.euclidean_angles(pt)
    lay = geom.layout(link, angles)
    assert lay.residual < 1e-6
    assert np.max(np.abs(geom.euclidean_angles(lay.triangulation) - angles)) < 1e-8

    # a boundary optimum may collapse a corner to 0, which cannot be laid out
    out = optvol.maximize_volume(link, start=angles.reshape(-1))
    if not out.boundary_active:
        lay = geom.layout(out.link, out.angles)
        assert lay.residual < 1e-6
        again = geom.euclidean_angles(lay.triangulation)
        assert np.max(np.abs(again - out.angles)) < 1e-8
