import functools
import math

import numpy as np
import pytest

from idealpoly import corpus, optvol, rivin, specfun, triang
from idealpoly.errors import InfeasibleStart

PI = math.pi


def optimum(t, apex=None):
    res = rivin.is_realizable(t, apex=apex)
    assert res.realizable
    return rivin, optvol.maximize_volume(res.link)


def test_volume_examples():
    link = triang.build_link(triang.tetrahedron(), 3)
    a = optvol.AngleAssignment(link=link, values=np.full((1, 3), PI / 3))
    assert optvol.volume(a) == pytest.approx(1.014942, abs=5e-6)
    # a right isoceles triangle contributes 2 L(pi/4) since L(pi/2) = 0
    b = optvol.AngleAssignment(link=link, values=np.array([[PI / 2, PI / 4, PI / 4]]))
    assert optvol.volume(b) == pytest.approx(
        2 * specfun.lobachevsky(PI / 4), abs=1e-12
    )
    with pytest.raises(ValueError):
        optvol.volume(optvol.AngleAssignment(link=link, values=np.array([[PI, 0.0, 0.0]])))


def test_octahedron_volume_value():
    link = triang.build_link(triang.octahedron(), 0)
    vals = np.array([[PI / 2, PI / 4, PI / 4]] * 4)
    a = optvol.AngleAssignment(link=link, values=vals)
    assert optvol.volume(a) == pytest.approx(3.663862, abs=5e-6)


def test_maximize_tetrahedron():
    _, out = optimum(triang.tetrahedron())
    assert out.volume == pytest.approx(1.014942, abs=5e-6)
    assert np.allclose(out.angles.flat, PI / 3, atol=1e-9)
    assert out.kkt_residual < 1e-10
    for e, v in out.dihedrals.per_edge.items():
        assert v == pytest.approx(PI / 3, abs=1e-9)


def test_maximize_bipyramid():
    _, out = optimum(triang.bipyramid(), apex=0)
    assert out.volume == pytest.approx(2.029883, abs=5e-6)
    per_edge = out.dihedrals.per_edge
    # equator edges open to 2 pi/3, edges into either tip to pi/3
    for e in ((1, 2), (2, 3), (1, 3)):
        assert per_edge[e] == pytest.approx(2 * PI / 3, abs=1e-9)
    for e in ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)):
        assert per_edge[e] == pytest.approx(PI / 3, abs=1e-9)


def test_maximize_octahedron():
    _, out = optimum(triang.octahedron())
    assert out.volume == pytest.approx(3.663862, abs=5e-6)
    for v in out.dihedrals.per_edge.values():
        assert v == pytest.approx(PI / 2, abs=1e-9)
    # interior corners pi/2, hull corners pi/4
    vals = sorted(round(x, 9) for x in out.angles.flat)
    assert vals[:8] == [round(PI / 4, 9)] * 8
    assert vals[8:] == [round(PI / 2, 9)] * 4


def test_restart_stability_is_certified_by_uniqueness():
    rng = np.random.default_rng(12)
    t = corpus.all_types(7)[3]
    res = rivin.is_realizable(t)
    outs = [
        optvol.maximize_volume(res.link, start=s)
        for s in rivin.random_interior_points(res.system, 10, rng)
    ]
    vols = [o.volume for o in outs]
    assert max(vols) - min(vols) < 1e-9
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.max(np.abs(outs[i].angles.flat - outs[j].angles.flat)) < 1e-6


def test_apex_invariance_of_max_volume():
    for t in corpus.all_types(6):
        vols = []
        for apex in range(t.n):
            res = rivin.is_realizable(t, apex=apex)
            if res.realizable:
                vols.append(optvol.maximize_volume(res.link).volume)
        assert max(vols) - min(vols) < 1e-8


def test_infeasible_start_rejected():
    link = triang.build_link(triang.tetrahedron(), 3)
    with pytest.raises(InfeasibleStart):
        optvol.maximize_volume(link, start=np.array([2.0, 2.0, 2.0]))
    with pytest.raises(InfeasibleStart):
        optvol.maximize_volume(link, start=np.array([-0.1, PI / 2, PI - 0.4 - PI / 2 + 0.1]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    link = triang.build_link(triang.octahedron(), 0)
    res = rivin.check_feasible(rivin.assemble_constraints(link))
    theta = res.witness
    g = optvol.volume_gradient(theta)
    h = 1e-6
    for i in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd = (optvol._volume_flat(up) - optvol._volume_flat(dn)) / (2 * h)
        assert abs(fd - g[i]) < 1e-6


def _reference_lobachevsky_deriv(theta):
    s = math.sin(theta)
    return -math.log(2.0 * abs(s))


def _reference_gradient(theta):
    # the per-corner loop the optimizer used before its array gradient
    out = np.zeros_like(theta)
    for i, t in enumerate(theta):
        if 1e-12 < t < math.pi - 1e-12:
            out[i] = _reference_lobachevsky_deriv(t)
    return out


def _reference_hessian_diag(theta):
    out = np.zeros_like(theta)
    for i, t in enumerate(theta):
        if 1e-12 < t < math.pi - 1e-12:
            out[i] = -math.cos(t) / math.sin(t)
    return out


EDGE_ANGLES = [0.0, 1e-12, 2e-12, PI / 2, PI - 1e-12, PI]


def test_derivatives_match_scalar_reference_bitwise():
    rng = np.random.default_rng(17)
    theta = np.concatenate([rng.uniform(0.0, PI, 10_000), EDGE_ANGLES])
    assert np.array_equal(optvol.volume_gradient(theta), _reference_gradient(theta))
    assert np.array_equal(optvol._hessian_diag(theta), _reference_hessian_diag(theta))


def test_gradient_values():
    g = optvol.volume_gradient(np.array([PI / 6, PI / 2, PI / 3]))
    assert g[0] == pytest.approx(0.0, abs=1e-15)
    assert g[1] == pytest.approx(-math.log(2), abs=1e-15)
    assert g[2] == pytest.approx(-math.log(math.sqrt(3)), abs=1e-14)


def test_gradient_matches_central_differences_of_lobachevsky():
    h = 1e-5
    theta = np.linspace(0.2, PI - 0.2, 25)
    g = optvol.volume_gradient(theta)
    for t, gt in zip(theta, g):
        fd = (specfun.lobachevsky(t + h) - specfun.lobachevsky(t - h)) / (2 * h)
        assert abs(fd - gt) < 1e-6


def test_hessian_diag_values():
    d = optvol._hessian_diag(np.array([PI / 2, PI / 4, PI / 3]))
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(-1.0, abs=1e-14)
    assert d[2] == pytest.approx(-1 / math.sqrt(3), abs=1e-14)


def test_hessian_diag_matches_central_differences_of_gradient():
    h = 1e-6
    theta = np.linspace(0.2, PI - 0.2, 25)
    up, dn = optvol.volume_gradient(theta + h), optvol.volume_gradient(theta - h)
    assert np.max(np.abs((up - dn) / (2 * h) - optvol._hessian_diag(theta))) < 1e-6


def test_pinned_corners_have_zero_derivatives():
    # log|2 sin| and cot diverge at 0 and pi; corners within 1e-12 of either
    # are pinned by the active set, so both derivatives read 0 there
    theta = np.array([0.0, 1e-12, PI - 1e-12, PI, -0.0])
    assert np.array_equal(optvol.volume_gradient(theta), np.zeros(5))
    assert np.array_equal(optvol._hessian_diag(theta), np.zeros(5))
    assert optvol.volume_gradient(np.array([2e-12]))[0] > 26.0
    assert optvol._hessian_diag(np.array([2e-12]))[0] < -1e11


@functools.lru_cache(maxsize=None)
def _pinned_types():
    types = {"tetrahedron": triang.tetrahedron(), "octahedron": triang.octahedron()}
    for i, t in enumerate(corpus.all_types(8)):
        types[f"n8-{i:02d}"] = t
    return types


# float.hex of volume and kkt_residual, and newton_iterations, of the optimum
# from the centered witness (None: not realizable).  Taken with numpy 2.4 on
# OpenBLAS 0.3.31; another LAPACK build may round the SVD differently.
OPTIMUM_PINS = {
    "tetrahedron": ("0x1.03d3368ee1110p+0", "0x1.9e95450b0a3b6p-56", 0),
    "octahedron": ("0x1.d4f9713e8135ep+1", "0x1.e01110c367b85p-51", 0),
    "n8-00": ("0x1.44c8043299554p+2", "0x1.9dbd3979125f5p-41", 64),
    "n8-01": ("0x1.44c8043299557p+2", "0x1.d2069f2bcb2b5p-41", 66),
    "n8-02": ("0x1.3bb8a48b11982p+2", "0x1.9e808a583a700p-52", 264),
    "n8-03": ("0x1.3a270531d120ap+2", "0x1.253dd149a6cb3p-52", 262),
    "n8-04": ("0x1.44c8043299555p+2", "0x1.f26bfbeb8d283p-42", 68),
    "n8-05": ("0x1.69f60748b14bep+2", "0x1.6b288ac867b7bp-52", 67),
    "n8-06": ("0x1.279a05fba0e3bp+2", "0x1.1bb9ca18b40b4p-52", 269),
    "n8-07": ("0x1.6c6653e6b1236p+2", "0x1.8e427f926100ep-52", 14),
    "n8-08": ("0x1.6c6653e6b1235p+2", "0x1.f43954c6f2845p-53", 14),
    "n8-09": ("0x1.801c197f4e24cp+2", "0x1.6d799bc911edcp-52", 14),
    "n8-10": ("0x1.69f60748b14c5p+2", "0x1.0b8d46f7bab25p-52", 78),
    "n8-11": None,
    "n8-12": ("0x1.9f43136a1496ep+2", "0x1.924ddf89ee781p-52", 13),
    "n8-13": ("0x1.85bcd1d65199fp+2", "0x1.c70048047a94fp-52", 0),
}


@pytest.mark.parametrize("name", sorted(OPTIMUM_PINS))
def test_optimum_pinned_bitwise(name):
    res = rivin.is_realizable(_pinned_types()[name])
    if OPTIMUM_PINS[name] is None:
        assert not res.realizable
        return
    out = optvol.maximize_volume(res.link)
    got = (out.volume.hex(), out.kkt_residual.hex(), out.newton_iterations)
    assert got == OPTIMUM_PINS[name]


# Types and apexes whose active-set polish takes its rare branches, found by
# counting branch hits over every apex of every type with n <= 9: the pin of
# a row violated by the projected start (n = 8, apex 0; n = 9 first type,
# apex 0), the drop of a negative multiplier (n = 9 first type, apexes 0 and
# 6) and the least-squares fallback of a singular Newton system (n = 9 last
# type, apex 0).  None of them fires at the default apex.
RARE_BRANCH_TYPES = [
    (8, [(1, 2, 4), (2, 3, 5), (3, 0, 5), (0, 3, 6), (1, 3, 7), (3, 2, 7),
         (2, 1, 7), (2, 5, 4), (0, 6, 5), (4, 5, 6), (1, 4, 3), (6, 3, 4)], 0),
    (9, [(1, 2, 4), (2, 0, 4), (1, 0, 6), (2, 1, 7), (0, 1, 8), (1, 4, 8),
         (4, 0, 8), (3, 6, 5), (0, 2, 6), (5, 6, 2), (1, 6, 7), (3, 7, 6),
         (2, 7, 5), (3, 5, 7)], 0),
    (9, [(1, 2, 4), (2, 0, 4), (1, 0, 6), (2, 1, 7), (0, 1, 8), (1, 4, 8),
         (4, 0, 8), (3, 6, 5), (0, 2, 6), (5, 6, 2), (1, 6, 7), (3, 7, 6),
         (2, 7, 5), (3, 5, 7)], 6),
    (9, [(1, 2, 4), (0, 3, 6), (3, 1, 6), (1, 3, 7), (2, 1, 7), (1, 4, 8),
         (4, 0, 8), (0, 6, 8), (1, 8, 6), (2, 5, 4), (0, 4, 3), (5, 3, 4),
         (2, 7, 5), (3, 5, 7)], 0),
]


@pytest.mark.parametrize("n,faces,apex", RARE_BRANCH_TYPES)
def test_rare_polish_branches_keep_apex_invariance(n, faces, apex):
    t = triang.validate(n, faces)
    _, ref = optimum(t)
    res = rivin.is_realizable(t, apex=apex)
    assert res.apex != rivin.choose_apex(t)
    out = optvol.maximize_volume(res.link)
    assert out.volume == pytest.approx(ref.volume, abs=1e-12)
    assert out.kkt_residual < 1e-12
    assert out.boundary_active


def test_constraints_assembled_once_per_optimization(monkeypatch):
    calls = []
    assemble = rivin.assemble_constraints

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(rivin, "assemble_constraints", counting)
    link = triang.build_link(triang.octahedron(), 0)
    optvol.maximize_volume(link)
    assert len(calls) == 1
    witness = rivin.check_feasible(assemble(link)).witness
    optvol.maximize_volume(link, start=witness)
    assert len(calls) == 2


def test_barrier_path_volumes_nondecreasing():
    t = corpus.all_types(7)[2]
    res = rivin.is_realizable(t)
    out = optvol.maximize_volume(res.link)
    pv = out.barrier_volumes
    assert all(pv[i + 1] >= pv[i] - 1e-12 for i in range(len(pv) - 1))


def test_optimizer_against_grid_oracle_tetrahedron():
    # brute force over the reduced simplex at step pi/2000
    _, out = optimum(triang.tetrahedron())
    step = PI / 2000
    best = (-1.0, None)
    for i in range(1, 2000):
        for j in range(1, 2000 - i):
            a, b = i * step, j * step
            c = PI - a - b
            v = (
                specfun.lobachevsky(a)
                + specfun.lobachevsky(b)
                + specfun.lobachevsky(c)
            )
            if v > best[0]:
                best = (v, (a, b, c))
    assert out.volume >= best[0] - 1e-12
    assert np.max(np.abs(np.sort(out.angles.flat) - np.sort(best[1]))) <= step


def test_dihedral_totality_and_rationality():
    _, out4 = optimum(triang.tetrahedron())
    assert set(out4.dihedrals.per_edge) == set(triang.tetrahedron().edges())
    rats = [optvol.detect_rational(v) for v in out4.dihedrals.per_edge.values()]
    assert all(r is not None and (r.p, r.q) == (1, 3) for r in rats)

    _, out6 = optimum(triang.octahedron())
    assert set(out6.dihedrals.per_edge) == set(triang.octahedron().edges())
    rats = [optvol.detect_rational(v) for v in out6.dihedrals.per_edge.values()]
    assert all(r is not None and (r.p, r.q) == (1, 2) for r in rats)


def test_detect_rational_examples():
    r = optvol.detect_rational(PI / 3)
    assert (r.p, r.q) == (1, 3)
    r = optvol.detect_rational(4 * PI / 11)
    assert (r.p, r.q) == (4, 11)
    assert optvol.detect_rational(PI * 0.3183098862) is None
    r = optvol.detect_rational(PI)  # flat edge
    assert (r.p, r.q) == (1, 1)
    assert optvol.detect_rational(2 * PI / 3 + 1e-6) is None
    r = optvol.detect_rational(2 * PI / 3 + 1e-12)
    assert (r.p, r.q) == (2, 3)


def test_detect_rational_against_fraction_oracle():
    from fractions import Fraction

    rng = np.random.default_rng(14)
    for _ in range(500):
        if rng.uniform() < 0.5:
            p = int(rng.integers(1, 99))
            q = int(rng.integers(p + 1, 101))
            x = p / q
        else:
            x = float(rng.uniform(0.01, 0.99))
        theta = x * PI
        ours = optvol.detect_rational(theta)
        best = Fraction(theta / PI).limit_denominator(100)
        matches = abs(theta / PI - best) < 1e-10 and best.numerator >= 1
        if matches:
            assert ours is not None
            assert (ours.p, ours.q) == (best.numerator, best.denominator)
        else:
            assert ours is None


def test_shape_parameters():
    _, out6 = optimum(triang.octahedron())
    shapes = optvol.shape_parameters(out6.angles).per_interior_edge
    assert len(shapes) == 4
    for z in shapes.values():
        assert abs(abs(z) - 1.0) < 1e-12
        assert z == pytest.approx(complex(0.0, 1.0), abs=1e-9)  # exp(i pi/2)

    _, out5 = optimum(triang.bipyramid(), apex=0)
    shapes = optvol.shape_parameters(out5.angles).per_interior_edge
    for z in shapes.values():
        assert z == pytest.approx(
            complex(math.cos(PI / 3), math.sin(PI / 3)), abs=1e-9
        )


def test_degenerate_type_reports_boundary_active():
    # stacked 6-vertex type seen from the stacking vertex: its optimum
    # collapses one link triangle, pinning two corners at zero
    t = triang.validate(
        6,
        [(0, 3, 1), (1, 3, 2), (0, 1, 4), (1, 2, 4), (2, 0, 4),
         (0, 2, 5), (2, 3, 5), (3, 0, 5)],
    )
    res = rivin.is_realizable(t, apex=5)
    out = optvol.maximize_volume(res.link)
    assert out.boundary_active
    assert any(kind == "corner" for kind, _ in out.active_constraints)
    assert out.volume == pytest.approx(3 * 1.0149416064096537, abs=1e-9)
