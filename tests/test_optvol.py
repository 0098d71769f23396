import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealpoly import cli, geom, optvol, rivin, specfun, stats, triang
from idealpoly.errors import InfeasibleStart, NumericalFailure

from catalog import all_types, flip_walk

PI = math.pi


def optimum(t, apex=None):
    res = rivin.is_realizable(t, apex=apex)
    assert res.realizable
    return rivin, optvol.maximize_volume(res.link)


def test_volume_examples():
    a = np.full((1, 3), PI / 3)
    assert optvol.volume(a) == pytest.approx(1.014942, abs=5e-6)
    # a right isoceles triangle contributes 2 L(pi/4) since L(pi/2) = 0
    b = np.array([[PI / 2, PI / 4, PI / 4]])
    assert optvol.volume(b) == pytest.approx(
        2 * specfun.lobachevsky(PI / 4), abs=1e-12
    )
    with pytest.raises(ValueError):
        optvol.volume(np.array([[PI, 0.0, 0.0]]))


def test_octahedron_volume_value():
    vals = np.array([[PI / 2, PI / 4, PI / 4]] * 4)
    assert optvol.volume(vals) == pytest.approx(3.663862, abs=5e-6)


def test_maximize_tetrahedron():
    _, out = optimum(triang.tetrahedron())
    assert out.volume == pytest.approx(1.014942, abs=5e-6)
    assert np.allclose(out.angles.ravel(), PI / 3, atol=1e-9)
    assert out.kkt_residual < 1e-10
    for e, v in optvol.dihedral_angles(out.link, out.angles).items():
        assert v == pytest.approx(PI / 3, abs=1e-9)


def test_maximize_bipyramid():
    _, out = optimum(triang.bipyramid(), apex=0)
    assert out.volume == pytest.approx(2.029883, abs=5e-6)
    # equator edges open to 2 pi/3, edges into either tip to pi/3
    dihedrals = optvol.dihedral_angles(out.link, out.angles)
    for e in ((1, 2), (2, 3), (1, 3)):
        assert dihedrals[e] == pytest.approx(2 * PI / 3, abs=1e-9)
    for e in ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)):
        assert dihedrals[e] == pytest.approx(PI / 3, abs=1e-9)


def test_maximize_octahedron():
    _, out = optimum(triang.octahedron())
    assert out.volume == pytest.approx(3.663862, abs=5e-6)
    for v in optvol.dihedral_angles(out.link, out.angles).values():
        assert v == pytest.approx(PI / 2, abs=1e-9)
    # interior corners pi/2, hull corners pi/4
    vals = sorted(round(x, 9) for x in out.angles.ravel())
    assert vals[:8] == [round(PI / 4, 9)] * 8
    assert vals[8:] == [round(PI / 2, 9)] * 4


def test_restart_stability_is_certified_by_uniqueness():
    rng = np.random.default_rng(12)
    t = all_types(7)[3]
    res = rivin.is_realizable(t)
    outs = [
        optvol.maximize_volume(res.link, start=s)
        for s in rivin.random_interior_points(res, 10, rng)
    ]
    vols = [o.volume for o in outs]
    assert max(vols) - min(vols) < 1e-9
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.max(np.abs(outs[i].angles.ravel() - outs[j].angles.ravel())) < 1e-6


def test_apex_invariance_of_max_volume():
    for t in all_types(6):
        vols = []
        for apex in range(t.n):
            res = rivin.is_realizable(t, apex=apex)
            if res.realizable:
                vols.append(optvol.maximize_volume(res.link).volume)
        assert max(vols) - min(vols) < 1e-8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 10), seed=st.integers(0, 2**32 - 1))
def test_apex_invariance_on_random_flip_walks(n, seed):
    t = flip_walk(n, seed)
    results = [rivin.is_realizable(t, apex=apex) for apex in range(n)]
    assert len({res.realizable for res in results}) == 1
    if results[0].realizable:
        vols = [optvol.maximize_volume(res.link, start=res.witness).volume for res in results]
        assert max(vols) - min(vols) <= 1e-10


def test_infeasible_start_rejected():
    link = triang.build_link(triang.tetrahedron(), 3)
    with pytest.raises(InfeasibleStart, match="violates the equality"):
        optvol.maximize_volume(link, start=np.array([2.0, 2.0, 2.0]))
    # sums to pi, so only the negative corner is wrong
    with pytest.raises(InfeasibleStart, match="not strictly interior"):
        optvol.maximize_volume(link, start=np.array([-0.1, PI / 2, PI / 2 + 0.1]))


def test_no_start_on_a_polytope_without_interior():
    # the triakis tetrahedron: t* = 0 up to rounding, so the centring LP
    # gives no start
    res = rivin.is_realizable(all_types(8)[11])
    assert abs(res.min_slack) < 1e-12
    with pytest.raises(InfeasibleStart, match="no strictly interior point"):
        optvol.maximize_volume(res.link)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_volume_rejects_non_finite_corners(bad):
    with pytest.raises(ValueError):
        optvol.volume([[bad, 1.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_rejected(bad):
    # a matrix product turns one non-finite corner into NaN in every row, and
    # NaN fails no comparison: the start must still be refused up front
    res = rivin.is_realizable(triang.octahedron())
    start = res.witness.copy()
    start[1] = bad
    with pytest.raises(InfeasibleStart):
        optvol.maximize_volume(res.link, start=start)


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
        fd = (specfun.lobachevsky_sum(up) - specfun.lobachevsky_sum(dn)) / (2 * h)
        assert abs(fd - g[i]) < 1e-6


def _reference_lobachevsky_deriv(theta):
    s = math.sin(theta)
    return -math.log(2.0 * abs(s))


def _reference_gradient(theta):
    # the per-corner loop the optimizer used before its array gradient
    return np.array([_reference_lobachevsky_deriv(t) for t in theta])


def _reference_hessian_diag(theta):
    return np.array([-math.cos(t) / math.sin(t) for t in theta])


EDGE_ANGLES = [1e-300, 1e-12, 2e-12, PI / 2, PI - 1e-12, PI]


def test_derivatives_match_scalar_reference_bitwise():
    # the domain is (0, pi]: a corner pinned at 0 is not a variable
    rng = np.random.default_rng(17)
    theta = np.concatenate([PI - rng.uniform(0.0, PI, 10_000), EDGE_ANGLES])
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


@functools.lru_cache(maxsize=None)
def _pinned_types():
    types = {"tetrahedron": triang.tetrahedron(), "octahedron": triang.octahedron()}
    for i, t in enumerate(all_types(8)):
        types[f"n8-{i:02d}"] = t
    return types


# float.hex of volume and kkt_residual, and newton_iterations, of the optimum
# from the centered witness (None: not realizable).  Taken with numpy 2.4 on
# OpenBLAS 0.3.31; another LAPACK build may round the SVD differently.
OPTIMUM_PINS = {
    "tetrahedron": ("0x1.03d3368ee1111p+0", "0x1.8e1f0c1b745c8p-56", 0),
    "octahedron": ("0x1.d4f9713e8135dp+1", "0x1.8a85c24f70659p-53", 0),
    "n8-00": ("0x1.44c8043299556p+2", "0x1.7d7de72a7a36cp-52", 34),
    "n8-01": ("0x1.44c8043299556p+2", "0x1.723e807f69c09p-53", 35),
    "n8-02": ("0x1.3bb8a48b11985p+2", "0x1.f2a35d7e68948p-53", 49),
    "n8-03": ("0x1.3a270531d120ap+2", "0x1.ef50f9e4d02d4p-53", 40),
    "n8-04": ("0x1.44c8043299556p+2", "0x1.69b0c2ff0aea8p-52", 37),
    "n8-05": ("0x1.69f60748b14c0p+2", "0x1.50de3070be353p-52", 25),
    "n8-06": ("0x1.279a05fba0e3dp+2", "0x1.37370b49194f8p-52", 47),
    "n8-07": ("0x1.6c6653e6b1237p+2", "0x1.3ad7485b30657p-52", 9),
    "n8-08": ("0x1.6c6653e6b1237p+2", "0x1.26ac360da2f1cp-53", 9),
    "n8-09": ("0x1.801c197f4e24bp+2", "0x1.a722cb2080f74p-52", 9),
    "n8-10": ("0x1.69f60748b14bfp+2", "0x1.8d076a5427bbbp-53", 26),
    "n8-11": None,
    "n8-12": ("0x1.9f43136a14977p+2", "0x1.28fe971d03f7ap-52", 8),
    "n8-13": ("0x1.85bcd1d65199ap+2", "0x1.d82089b9d6a11p-52", 0),
}

# The same volumes from the witness of the LP under Bland's pricing
# (simplex._DEGENERATE_RUN = 0), another optimal vertex: the optimum does not
# depend on the start beyond rounding.
BLAND_START_VOLUMES = {
    "tetrahedron": "0x1.03d3368ee1111p+0",
    "octahedron": "0x1.d4f9713e8135dp+1",
    "n8-00": "0x1.44c8043299555p+2",
    "n8-01": "0x1.44c8043299556p+2",
    "n8-02": "0x1.3bb8a48b11985p+2",
    "n8-03": "0x1.3a270531d120ap+2",
    "n8-04": "0x1.44c8043299556p+2",
    "n8-05": "0x1.69f60748b14bfp+2",
    "n8-06": "0x1.279a05fba0e3dp+2",
    "n8-07": "0x1.6c6653e6b1237p+2",
    "n8-08": "0x1.6c6653e6b1237p+2",
    "n8-09": "0x1.801c197f4e24bp+2",
    "n8-10": "0x1.69f60748b14bfp+2",
    "n8-12": "0x1.9f43136a14976p+2",
    "n8-13": "0x1.85bcd1d65199ap+2",
}

# The exact optima to 25 digits: 40-digit volumes (Clausen's function) of the
# optimizer's points projected onto their equality and active constraints in
# 40-digit arithmetic.  The volume is stationary there, so the projection
# moves it only to second order.
EXACT_VOLUMES = {
    "tetrahedron": "1.014941606409653625021203",
    "octahedron": "3.663862376708876060218414",
    "n8-00": "5.074708032048268125106012",
    "n8-01": "5.074708032048268125106012",
    "n8-02": "4.933144698914820670434693",
    "n8-03": "4.908631609582253517635966",
    "n8-04": "5.074708032048268125106013",
    "n8-05": "5.65564138506778087394403",
    "n8-06": "4.61877584050267654355993",
    "n8-07": "5.693745589528183310260819",
    "n8-08": "5.693745589528183310260819",
    "n8-09": "6.00171506340172751835762",
    "n8-10": "5.65564138506778087394403",
    "n8-12": "6.488468984216855345754985",
    "n8-13": "6.089649638457921750127215",
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
    other = float.fromhex(BLAND_START_VOLUMES[name])
    assert abs(out.volume - other) <= 2 * math.ulp(other)
    exact = float(EXACT_VOLUMES[name])
    assert abs(out.volume - exact) <= 3 * math.ulp(exact)


# Non-default apexes that took rare branches of the active-set polish that
# the optimizer ran until 0.2.11: the pin of a row violated by the projected
# start, the drop of a negative multiplier and the fallback of a singular
# Newton system.  Two were regressions: at n = 9 #1, apex 8, a dropped row
# violated by rounding at the next projected start was pinned and dropped
# again until the rounds ran out; at n = 9 #0, apex 7, the last polish Newton
# ran out of iterations, leaving a KKT residual of 6e-10.  Each optimum
# collapses a link triangle whose two corners fall more slowly than the
# barrier's factor over its last round, so the face solve first leaves them
# free; that Newton stops at its first step that does not ascend, and the
# face that pins them is kept.  They test apex invariance through that path.
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
    (9, [(1, 2, 4), (2, 0, 4), (2, 3, 5), (3, 2, 7), (2, 1, 7), (0, 1, 8),
         (1, 4, 8), (4, 0, 8), (3, 6, 5), (0, 2, 6), (5, 6, 2), (3, 7, 6),
         (1, 0, 7), (6, 7, 0)], 8),
    (9, [(0, 2, 5), (2, 3, 5), (3, 0, 5), (0, 3, 6), (3, 1, 6), (1, 3, 7),
         (3, 2, 7), (2, 1, 7), (1, 4, 8), (1, 8, 6), (0, 6, 4), (8, 4, 6),
         (2, 0, 1), (4, 1, 0)], 5),
    (9, [(1, 2, 4), (2, 0, 4), (1, 0, 6), (2, 1, 7), (0, 1, 8), (1, 4, 8),
         (4, 0, 8), (3, 6, 5), (0, 2, 6), (5, 6, 2), (1, 6, 7), (3, 7, 6),
         (2, 7, 5), (3, 5, 7)], 7),
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


# Types (index in corpus.all_types(n)) whose last barrier round used to run
# all 200 Newton iterations from the witness at the default apex, with the
# gradient norm stuck at the rounding floor of its barrier term, and the
# active set of their optimum before barrier rounds ended on a stall.
STALLED_ROUND_ACTIVE_SETS = {
    (7, 1): (("hull_vertex", 3),),
    (8, 2): (("hull_vertex", 2), ("hull_vertex", 4)),
    (8, 3): (("hull_vertex", 6), ("hull_vertex", 1), ("hull_vertex", 3)),
    (8, 6): (("hull_vertex", 3),),
    (8, 10): (("hull_vertex", 3),),
}


@pytest.mark.parametrize("n", range(4, 10))
def test_barrier_rounds_end_before_the_iteration_cap(n, monkeypatch):
    rounds = []
    newton_max = optvol._newton_max

    def recording(*args):
        out = newton_max(*args)
        mu, _, max_iter = args[-3:]
        rounds.append((mu, out[2], max_iter))
        return out

    monkeypatch.setattr(optvol, "_newton_max", recording)
    capped = []
    for i, t in enumerate(all_types(n)):
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        rounds.clear()
        out = optvol.maximize_volume(res.link, start=res.witness)
        if any(mu > 0.0 and iters == cap for mu, iters, cap in rounds):
            capped.append(i)
        assert out.kkt_residual <= 1e-12
        pv = out.barrier_volumes
        assert all(pv[k + 1] >= pv[k] - 1e-12 for k in range(len(pv) - 1))
        if (n, i) in STALLED_ROUND_ACTIVE_SETS:
            assert out.active_constraints == STALLED_ROUND_ACTIVE_SETS[n, i]
    assert capped == []


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


@functools.lru_cache(maxsize=None)
def _optimizer_links():
    """Links of the rare-branch types at their apex and of every realizable
    type with n <= 8 at the default apex."""
    links = []
    for n, faces, apex in RARE_BRANCH_TYPES:
        links.append(rivin.is_realizable(triang.validate(n, faces), apex=apex).link)
    for n in range(4, 9):
        for t in all_types(n):
            res = rivin.is_realizable(t)
            if res.realizable:
                links.append(res.link)
    return links


def test_one_svd_per_constraint_system_and_no_lstsq(monkeypatch):
    factored = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        factored.append((a.shape, a.tobytes()))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("maximize_volume called np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    pinned_systems = 0
    for link in _optimizer_links():
        factored.clear()
        out = optvol.maximize_volume(link)
        assert len(factored) == len(set(factored))
        assert 1 <= len(factored) <= 3  # the barrier's and at most two faces
        pinned_systems += len(factored) - 1
        if out.active_constraints:
            assert len(factored) >= 2
    assert pinned_systems > 0


def _configuration_start(name):
    """Link and Euclidean start of a planar configuration: the octahedron
    (a square around an off-centre point) or a seeded n = 8 sample."""
    if name == "octahedron":
        cfg = geom.make_configuration([0.1 + 0.05j, 1.0, 1j, -1.0, -1j])
    else:
        cfg = geom.random_configuration(8, stats.trial_rng(0, int(name[-1])))
    pt = geom.delaunay(cfg)
    _, link = geom.close_with_infinity(pt)
    return link, geom.euclidean_angles(pt).reshape(-1)


# (volume_gradient calls, lobachevsky_sum calls, newton_iterations) of one
# maximize_volume from a configuration's own angles, which does not depend on
# the LP.  The Newton loop evaluates each accepted point once, the barrier
# objective only at the Armijo test, and each round's closing volume once;
# each round from the third on adds one volume at its secant start when that
# start is interior.  The face's gradient, evaluated once, gives both its
# multipliers and the KKT residual.
EVALUATION_COUNTS = {
    "octahedron": (18, 24, 4),
    "n8-trial0": (25, 24, 11),
    "n8-trial1": (39, 26, 24),
    "n8-trial4": (23, 24, 9),
}


@pytest.mark.parametrize("name", sorted(EVALUATION_COUNTS))
def test_optimizer_evaluates_each_point_once(name, monkeypatch):
    link, start = _configuration_start(name)
    calls = {"volume_gradient": 0, "lobachevsky_sum": 0}

    def counting(module, fname):
        f = getattr(module, fname)

        def counted(*args):
            calls[fname] += 1
            return f(*args)

        monkeypatch.setattr(module, fname, counted)

    counting(optvol, "volume_gradient")
    counting(specfun, "lobachevsky_sum")
    out = optvol.maximize_volume(link, start=start)
    got = (calls["volume_gradient"], calls["lobachevsky_sum"], out.newton_iterations)
    assert got == EVALUATION_COUNTS[name]


def _active_rows_differ_only_at_their_bound(link, out, ref):
    """Whether every constraint active at one optimum and not the other is
    within 2e-12 of its bound at both."""
    system = rivin.assemble_constraints(link)
    U, b, m = system.A_ub, system.b_ub, system.n_vars
    kinds = [("corner", divmod(i, 3)) for i in range(m)] + list(system.ub_kinds)
    at = [optvol._slacks(o.angles.reshape(-1), U, b) for o in (out, ref)]
    differ = set(out.active_constraints) ^ set(ref.active_constraints)
    return all(max(abs(s[kinds.index(k)]) for s in at) <= 2e-12 for k in differ)


def test_secant_start_moves_the_optimum_only_by_rounding(monkeypatch):
    # Run every optimization again with the secant replaced by the round's own
    # end point, the start every round took before the prediction.  The
    # optimum may move only in its last bits, and every optimization of three
    # or more barrier rounds must have started at least one from a secant.
    cases = [(link, None) for link in _optimizer_links()]
    cases += [_configuration_start(name) for name in sorted(EVALUATION_COUNTS)]
    secant, newton_max = optvol._secant, optvol._newton_max
    guesses, starts = [], []

    def recording_secant(*args):
        guesses.append(secant(*args))
        return guesses[-1]

    def recording_newton(theta_p, N, U, b, u, *rest):
        starts.append(u)
        return newton_max(theta_p, N, U, b, u, *rest)

    monkeypatch.setattr(optvol, "_secant", recording_secant)
    monkeypatch.setattr(optvol, "_newton_max", recording_newton)
    results = []
    for link, start in cases:
        guesses.clear()
        starts.clear()
        out = optvol.maximize_volume(link, start=start)
        if len(out.barrier_volumes) >= 3:
            assert any(u is g for u in starts for g in guesses)
        results.append(out)

    monkeypatch.setattr(optvol, "_secant", lambda u_prev, u: u)
    for (link, start), out in zip(cases, results):
        ref = optvol.maximize_volume(link, start=start)
        assert abs(out.volume - ref.volume) <= 2 * math.ulp(ref.volume)
        assert np.max(np.abs(out.angles - ref.angles)) <= 1e-12
        assert max(out.kkt_residual, ref.kkt_residual) <= 1e-12
        assert _active_rows_differ_only_at_their_bound(link, out, ref)


def test_barrier_path_volumes_nondecreasing():
    # n = 10 #230: without the volume test on the secant start, its rounds
    # 4-6 closed up to 2.7e-9 below round 3
    for n, index in ((7, 2), (10, 230)):
        res = rivin.is_realizable(all_types(n)[index])
        pv = optvol.maximize_volume(res.link).barrier_volumes
        assert len(pv) >= 3
        assert all(pv[i + 1] >= pv[i] - 1e-12 for i in range(len(pv) - 1))


def test_optimizer_against_grid_oracle_tetrahedron():
    # brute force over the reduced simplex at step pi/2000, a row of the grid
    # per array call
    _, out = optimum(triang.tetrahedron())
    step = PI / 2000
    best = (-1.0, None)
    for i in range(1, 1999):
        a = i * step
        b = np.arange(1, 2000 - i) * step
        c = PI - a - b
        v = specfun.lobachevsky(a) + specfun.lobachevsky_array(b) + specfun.lobachevsky_array(c)
        j = int(np.argmax(v))
        if v[j] > best[0]:
            best = (float(v[j]), (a, b[j], c[j]))
    assert out.volume >= best[0] - 1e-12
    assert np.max(np.abs(np.sort(out.angles.ravel()) - np.sort(best[1]))) <= step


def test_dihedral_totality_and_rationality():
    _, out4 = optimum(triang.tetrahedron())
    dihedrals4 = optvol.dihedral_angles(out4.link, out4.angles)
    assert set(dihedrals4) == set(triang.tetrahedron().edges())
    rats = [optvol.detect_rational(v) for v in dihedrals4.values()]
    assert all(r is not None and (r.p, r.q) == (1, 3) for r in rats)

    _, out6 = optimum(triang.octahedron())
    dihedrals6 = optvol.dihedral_angles(out6.link, out6.angles)
    assert set(dihedrals6) == set(triang.octahedron().edges())
    rats = [optvol.detect_rational(v) for v in dihedrals6.values()]
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
    def shapes(t, apex=None):
        _, out = optimum(t, apex=apex)
        payload = cli.optimize_payload(t, out.link.apex, out, 100, 1e-10)
        return [complex(z["re"], z["im"]) for z in payload["shape_parameters"]]

    shapes6 = shapes(triang.octahedron())
    assert len(shapes6) == 4
    for z in shapes6:
        assert abs(abs(z) - 1.0) < 1e-12
        assert z == pytest.approx(complex(0.0, 1.0), abs=1e-9)  # exp(i pi/2)

    for z in shapes(triang.bipyramid(), apex=0):
        assert z == pytest.approx(
            complex(math.cos(PI / 3), math.sin(PI / 3)), abs=1e-9
        )


def test_singular_newton_system_ends_the_barrier_round(monkeypatch):
    # a LinAlgError from the first Newton solve ends the barrier: the start
    # already meets the first round's tolerance, so the second round raises
    # and the barrier keeps one of its twelve rounds.  The face read off its
    # last two points pins nothing, and its Newton at mu = 0 still reaches
    # the octahedron's optimum.  The centered witness is already the optimum,
    # so start off it.
    res = rivin.is_realizable(triang.octahedron())
    system = rivin.assemble_constraints(res.link)
    start = res.witness + 0.1 * optvol._factor(system.A_eq, system.b_eq)[0][:, 0]
    solve = np.linalg.solve
    raised = []

    def singular_once(a, b):
        if not raised:
            raised.append(True)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    out = optvol.maximize_volume(res.link, start=start)
    assert raised
    assert len(out.barrier_volumes) == 1
    assert out.active_constraints == ()
    assert out.volume == pytest.approx(8 * specfun.lobachevsky(PI / 4), abs=1e-12)
    assert out.kkt_residual < 1e-12


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
    for kind, key in out.active_constraints:
        if kind == "corner":
            f, s = key
            assert key == (f, s) and out.angles[f, s] < 1e-9
    assert out.volume == pytest.approx(3 * 1.0149416064096537, abs=1e-9)


# The default-apex optima with n <= 10 that collapse a link triangle: two of
# its corners are pinned at 0 and the third is pi.
COLLAPSED_OPTIMA = [(9, 0), (10, 0), (10, 1), (10, 14), (10, 81), (10, 146)]


@functools.lru_cache(maxsize=None)
def _witness_optimum(n, index):
    res = rivin.is_realizable(all_types(n)[index])
    return optvol.maximize_volume(res.link, start=res.witness) if res.realizable else None


@functools.lru_cache(maxsize=None)
def _apex_optima(n):
    """(index, apex, realizability result, optimum from its witness) at every
    apex of every realizable type with n vertices."""
    optima = []
    for i, t in enumerate(all_types(n)):
        for apex in range(n):
            res = rivin.is_realizable(t, apex=apex)
            if res.realizable:
                optima.append((i, apex, res, optvol.maximize_volume(res.link, start=res.witness)))
    return optima


@pytest.mark.parametrize(
    "n", range(4, 11), ids=[f"n{n}" for n in range(4, 10)] + ["n10-collapsed"]
)
def test_optimum_corners_lie_in_closed_range(n):
    # every apex for n <= 9, the collapsed default-apex optima at n = 10.  A
    # pinned corner leaves the variables, so it reads exactly 0; pinned
    # corners come in pairs, and the third corner of their triangle leaves the
    # variables too, at exactly pi
    if n <= 9:
        optima = _apex_optima(n)
    else:
        optima = [(i, None, None, _witness_optimum(n, i)) for m, i in COLLAPSED_OPTIMA if m == n]
    collapsed = []
    for i, apex, res, out in optima:
        assert 0.0 <= out.angles.min() and out.angles.max() <= PI
        assert out.kkt_residual <= 1e-12
        pins = [key for kind, key in out.active_constraints if kind == "corner"]
        assert all(out.angles[key] == 0.0 for key in pins)
        for f in {f for f, _ in pins}:
            assert sorted(out.angles[f]) == [0.0, 0.0, PI], (n, i, apex)
        if pins and (res is None or res.apex == rivin.choose_apex(all_types(n)[i])):
            collapsed.append((n, i))
    assert collapsed == [nt for nt in COLLAPSED_OPTIMA if nt[0] == n]


def test_frank_wolfe_gap_certifies_every_uncollapsed_optimum():
    # V is concave on P, so V* <= V(theta) + max over y in P of g.(y - theta)
    # with g the gradient at theta (Frank & Wolfe 1956): an LP whose bound
    # does not depend on how the optimizer chose its face.  The gradient is
    # infinite at a collapsed corner, so those optima are left out
    certified = 0
    for n in range(4, 10):
        for i, apex, res, out in _apex_optima(n):
            theta = out.angles.reshape(-1)
            if theta.min() == 0.0:
                continue
            g = optvol.volume_gradient(theta)
            lp, y = rivin._lp_on_p(res.system)(g, 0.0)
            assert lp.status == "optimal"
            assert g @ (y - theta) <= 1e-12, (n, i, apex)
            certified += 1
    assert certified == 385


def test_transient_small_corner_stays_free():
    # search n = 12, seed 3, trial 84 from its Euclidean start: two corners of
    # link triangle 15 are 6.84e-5 at the optimum, but over the last barrier
    # rounds they fall at ratios near 0.5, so the ratio alone pins them and
    # loses 3.3e-9 of volume.  The face that leaves them free converges with
    # every corner above BOUNDARY_TOL and is kept.
    pt = geom.delaunay(geom.random_configuration(12, stats.trial_rng(3, 84)))
    _, link = geom.close_with_infinity(pt)
    out = optvol.maximize_volume(link, start=geom.euclidean_angles(pt).reshape(-1))
    assert all(kind != "corner" for kind, _ in out.active_constraints)
    assert out.angles[15, 1] == out.angles.min() == pytest.approx(6.84e-5, rel=1e-3)
    assert out.angles[15, 2] == pytest.approx(6.84e-5, rel=1e-3)
    ref = float.fromhex("0x1.6e7a6fee2b729p+3")
    assert abs(out.volume - ref) <= 2 * math.ulp(ref)


# newton_iterations of the collapsed default-apex optima whose face solve
# first leaves the collapsing corners free (all but n = 10 #81).  That face's
# Newton stops at its first step that does not ascend, so it adds no steps; a
# gradient step in place of each such step would run it to its cap of 60.
FREE_CORNER_FACE_STEPS = {(9, 0): 36, (10, 0): 35, (10, 1): 36, (10, 14): 37, (10, 146): 38}


def test_rejected_free_corner_face_stops_at_its_first_non_ascent_step():
    got = {nt: _witness_optimum(*nt).newton_iterations for nt in FREE_CORNER_FACE_STEPS}
    assert got == FREE_CORNER_FACE_STEPS


def stall_every_face_newton(monkeypatch):
    """Make every Newton at mu = 0 raise, as a face no Newton can solve."""
    newton_max = optvol._newton_max

    def stalling(theta_p, N, U, b, u, mu, tol, max_iter):
        if mu == 0.0:
            raise optvol._LineSearchStall("face Newton stalls")
        return newton_max(theta_p, N, U, b, u, mu, tol, max_iter)

    monkeypatch.setattr(optvol, "_newton_max", stalling)


def test_face_that_fails_its_checks_raises_numerical_failure(monkeypatch):
    # no measured input reaches this guard.  At n = 9 #0 both the free-corner
    # face and the face that pins the collapsing corners fail; the error names
    # the constraints of the pinned one, which the unpatched optimum keeps
    ref = _witness_optimum(9, 0)
    system = rivin.assemble_constraints(ref.link)
    act = tuple(3 * key[0] + key[1] if kind == "corner"
                else system.n_vars + system.ub_kinds.index((kind, key))
                for kind, key in ref.active_constraints)
    assert any(kind == "corner" for kind, _ in ref.active_constraints)
    stall_every_face_newton(monkeypatch)
    res = rivin.is_realizable(all_types(9)[0])
    with pytest.raises(NumericalFailure, match=re.escape(f"constraints {act} fails")):
        optvol.maximize_volume(res.link, start=res.witness)


def test_collapsed_optima_match_smaller_types():
    # a collapsed optimum's volume is that of a type with one vertex fewer
    n9 = _witness_optimum(9, 38).volume
    for i in (0, 1, 14, 146):
        assert abs(_witness_optimum(10, i).volume - n9) <= 2 * math.ulp(n9)
    n8 = float(EXACT_VOLUMES["n8-13"])
    assert abs(_witness_optimum(9, 0).volume - n8) <= 3 * math.ulp(n8)


def test_collapse_does_not_depend_on_the_start():
    # each collapsed optimum pins its triangle from every random interior
    # start.  Except at n = 10 #81, the triangle's two corners fall more
    # slowly than the barrier's factor over its last round, so the face solve
    # first leaves them free; that Newton stops at its first step that does
    # not ascend, and the face that pins them is solved instead
    rng = np.random.default_rng(0)
    for n, i in COLLAPSED_OPTIMA:
        res = rivin.is_realizable(all_types(n)[i])
        ref = _witness_optimum(n, i)
        for start in rivin.random_interior_points(res, 8, rng):
            out = optvol.maximize_volume(res.link, start=start)
            pins = [key for kind, key in out.active_constraints if kind == "corner"]
            assert pins and all(out.angles[key] == 0.0 for key in pins), (n, i)
            assert abs(out.volume - ref.volume) <= 20 * math.ulp(ref.volume), (n, i)
            assert out.kkt_residual <= 1e-12
