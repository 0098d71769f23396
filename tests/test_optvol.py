import functools
import math

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
    a = np.full(3, PI / 3)
    assert specfun.lobachevsky_sum(a) == pytest.approx(1.014942, abs=5e-6)
    # a right isoceles triangle contributes 2 L(pi/4) since L(pi/2) = 0
    b = np.array([PI / 2, PI / 4, PI / 4])
    assert specfun.lobachevsky_sum(b) == pytest.approx(
        2 * specfun.lobachevsky(PI / 4), abs=1e-12
    )


def test_octahedron_volume_value():
    vals = np.array([PI / 2, PI / 4, PI / 4] * 4)
    assert specfun.lobachevsky_sum(vals) == pytest.approx(3.663862, abs=5e-6)


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


def _reference_neg_hessian_diag(theta):
    return np.array([math.cos(t) / math.sin(t) for t in theta])


EDGE_ANGLES = [1e-300, 1e-12, 2e-12, PI / 2, PI - 1e-12, PI]


def test_derivatives_match_scalar_reference_bitwise():
    # the domain is (0, pi]: a corner pinned at 0 is not a variable
    rng = np.random.default_rng(17)
    theta = np.concatenate([PI - rng.uniform(0.0, PI, 10_000), EDGE_ANGLES])
    assert np.array_equal(optvol.volume_gradient(theta), _reference_gradient(theta))
    assert np.array_equal(optvol._neg_hessian_diag(theta), _reference_neg_hessian_diag(theta))


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
    d = optvol._neg_hessian_diag(np.array([PI / 2, PI / 4, PI / 3]))
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(1.0, abs=1e-14)
    assert d[2] == pytest.approx(1 / math.sqrt(3), abs=1e-14)


def test_hessian_diag_matches_central_differences_of_gradient():
    h = 1e-6
    theta = np.linspace(0.2, PI - 0.2, 25)
    up, dn = optvol.volume_gradient(theta + h), optvol.volume_gradient(theta - h)
    assert np.max(np.abs((up - dn) / (2 * h) + optvol._neg_hessian_diag(theta))) < 1e-6


@functools.lru_cache(maxsize=None)
def _pinned_types():
    types = {"tetrahedron": triang.tetrahedron(), "octahedron": triang.octahedron()}
    for i, t in enumerate(all_types(8)):
        types[f"n8-{i:02d}"] = t
    return types


# float.hex of volume and kkt_residual, and newton_iterations, of the optimum
# from the centered witness (None: not realizable).  The interior optima (the
# tetrahedron, the octahedron and n8-07, 08, 09, 12 and 13) are zero-shear
# points; the others are settled on the face their zero-shear point violates.
# Taken with numpy 2.4 on OpenBLAS 0.3.31; another LAPACK build may round the
# SVD differently.
OPTIMUM_PINS = {
    "tetrahedron": ("0x1.03d3368ee1111p+0", "0x1.3cf6982ab9cf8p-55", 0),
    "octahedron": ("0x1.d4f9713e8135ep+1", "0x1.cd9f647c06e48p-55", 4),
    "n8-00": ("0x1.44c8043299556p+2", "0x1.525f611f5892cp-52", 6),
    "n8-01": ("0x1.44c8043299557p+2", "0x1.1c59d04ec5810p-54", 0),
    "n8-02": ("0x1.3bb8a48b11985p+2", "0x1.1f291f8f27751p-53", 4),
    "n8-03": ("0x1.3a270531d120bp+2", "0x1.46a2eb6ced999p-53", 4),
    "n8-04": ("0x1.44c8043299555p+2", "0x1.341d961dd7669p-51", 6),
    "n8-05": ("0x1.69f60748b14c0p+2", "0x1.1c7b63cde8ad2p-52", 8),
    "n8-06": ("0x1.279a05fba0e3fp+2", "0x1.026bf9455296dp-52", 0),
    "n8-07": ("0x1.6c6653e6b1237p+2", "0x1.2cf152a20072dp-51", 7),
    "n8-08": ("0x1.6c6653e6b1237p+2", "0x1.22a8d44a36163p-54", 4),
    "n8-09": ("0x1.801c197f4e24bp+2", "0x1.2e7929be01649p-53", 4),
    "n8-10": ("0x1.69f60748b14bfp+2", "0x1.c78efc67a238fp-53", 8),
    "n8-11": None,
    "n8-12": ("0x1.9f43136a14975p+2", "0x1.9714e0a62bf6cp-52", 4),
    "n8-13": ("0x1.85bcd1d65199ap+2", "0x1.da07739352dd5p-54", 0),
}

# The same volumes from the witness of the LP under Bland's pricing
# (simplex._DEGENERATE_RUN = 0), another optimal vertex: the optimum does not
# depend on the start beyond rounding.
BLAND_START_VOLUMES = {
    "tetrahedron": "0x1.03d3368ee1111p+0",
    "octahedron": "0x1.d4f9713e8135ep+1",
    "n8-00": "0x1.44c8043299556p+2",
    "n8-01": "0x1.44c8043299557p+2",
    "n8-02": "0x1.3bb8a48b11986p+2",
    "n8-03": "0x1.3a270531d120bp+2",
    "n8-04": "0x1.44c8043299555p+2",
    "n8-05": "0x1.69f60748b14c0p+2",
    "n8-06": "0x1.279a05fba0e3ep+2",
    "n8-07": "0x1.6c6653e6b1237p+2",
    "n8-08": "0x1.6c6653e6b1237p+2",
    "n8-09": "0x1.801c197f4e24ap+2",
    "n8-10": "0x1.69f60748b14bfp+2",
    "n8-12": "0x1.9f43136a14977p+2",
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
# collapses a link triangle; until 0.2.18 the barrier's face solve first left
# its two corners free.  They test apex invariance through the collapse.
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


# Types (index in corpus.all_types(n)) whose last barrier round ran all 200
# Newton iterations until 0.2.10, with the gradient norm stuck at the rounding
# floor of its barrier term, and the active set of their optimum.
STALLED_ROUND_ACTIVE_SETS = {
    (7, 1): (("hull_vertex", 3),),
    (8, 2): (("hull_vertex", 2), ("hull_vertex", 4)),
    (8, 3): (("hull_vertex", 6), ("hull_vertex", 1), ("hull_vertex", 3)),
    (8, 6): (("hull_vertex", 3),),
    (8, 10): (("hull_vertex", 3),),
}


def test_active_sets_of_once_stalled_types():
    for (n, i), active in STALLED_ROUND_ACTIVE_SETS.items():
        out = _witness_optimum(n, i)
        assert out.active_constraints == active, (n, i)
        assert out.kkt_residual <= 1e-12


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
    # each triangle's row has a closed-form null basis, so a face's SVD sees
    # one row per interior link vertex and per pinned row and two columns per
    # triangle it keeps, and a face with no such row (the tetrahedron's) takes
    # none
    faces, factored = [], []
    face_of, svd = optvol._face, np.linalg.svd

    def recording_face(system, act):
        faces.append((system, act))
        return face_of(system, act)

    def recording_svd(a, *args, **kwargs):
        factored.append(a.shape)
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("maximize_volume called np.linalg.lstsq")

    monkeypatch.setattr(optvol, "_face", recording_face)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    pinned = unfactored = 0
    for link in _optimizer_links():
        faces.clear()
        factored.clear()
        optvol.maximize_volume(link)
        expected = []
        for system, act in faces:
            m = system.n_vars
            rows = sum(i >= m for i in act)
            coupling = len(system.b_eq) - m // 3 + rows
            if coupling:
                expected.append((coupling, 2 * (m // 3 - sum(i < m for i in act) // 2)))
            else:
                unfactored += 1
            pinned += rows > 0
        assert factored == expected
    assert pinned > 0 and unfactored > 0


def _dense_factor(A, b):
    """Null basis, least-squares point V_r S_r^-1 U_r^T b (refined once), its
    largest residual and the multiplier map grad -> U_r S_r^-1 V_r^T grad of
    A theta = b, from one SVD of all of A.  Singular values below 1e-10 of the
    largest are 0.  The optimizer factored every face this way until 0.2.14."""
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > 1e-10 * s[0]))
    W, Vr = U[:, :r] / s[:r], Vt[:r]
    theta_p = Vr.T @ (W.T @ b)
    theta_p += Vr.T @ (W.T @ (b - A @ theta_p))
    residual = float(np.max(np.abs(A @ theta_p - b)))
    return Vt[r:].T, theta_p, residual, lambda grad: W @ (Vr @ grad)


def _dense_face(system, act):
    """``optvol._face`` from a dense SVD of the face's whole equality system:
    (keep, base, N, theta_p, residual, coupling rows' multipliers map)."""
    m = system.n_vars
    out = np.zeros(m, dtype=bool)
    out[[i for i in act if i < m]] = True
    base = np.where(~out & np.repeat(out.reshape(-1, 3).sum(axis=1) == 2, 3), PI, 0.0)
    keep = np.flatnonzero(~out & (base == 0.0))
    rows = [i - m for i in act if i >= m]
    A = np.vstack([system.A_eq, system.A_ub[rows]])
    b = np.concatenate([system.b_eq, system.b_ub[rows]]) - A @ base
    N, theta_p, residual, multipliers = _dense_factor(A.take(keep, axis=1), b)
    return keep, base, N, theta_p, residual, lambda g: multipliers(g)[m // 3:]


def _active_indices(system, out):
    """``maximize_volume``'s constraint indices of an optimum's active set."""
    return tuple(3 * key[0] + key[1] if kind == "corner"
                 else system.n_vars + system.ub_kinds.index((kind, key))
                 for kind, key in out.active_constraints)


def _assert_face_matches_dense_oracle(system, act, theta=None):
    face = optvol._face(system, act)
    keep, base, N, theta_p, residual, multipliers = _dense_face(system, act)
    assert np.array_equal(face.keep, keep) and np.array_equal(face.base, base)
    assert face.N.shape == N.shape
    assert np.max(np.abs(face.N.T @ face.N - np.eye(N.shape[1])), initial=0.0) <= 1e-12
    assert np.max(np.abs(face.N @ face.N.T - N @ N.T), initial=0.0) <= 1e-12
    assert np.max(np.abs(face.theta_p - theta_p)) <= 1e-12
    assert face.residual <= 1e-12 and residual <= 1e-12
    if theta is not None:
        g = optvol.volume_gradient(theta[keep])
        lam = multipliers(g)
        assert (face.multipliers @ g).shape == lam.shape
        assert np.max(np.abs(face.multipliers @ g - lam), initial=0.0) <= 1e-9


@pytest.mark.parametrize("n", range(4, 9))
def test_face_factor_matches_dense_svd_oracle(n):
    # every realizable link with n <= 8 at every apex: the face that pins
    # nothing and the face its optimum pins, with the multipliers of the
    # interior vertex rows and the pinned rows at the optimum
    for i, apex, res, out in _apex_optima(n):
        _assert_face_matches_dense_oracle(res.system, ())
        act = _active_indices(res.system, out)
        if act:
            _assert_face_matches_dense_oracle(res.system, act, out.angles.reshape(-1))


def test_face_factor_without_coupling_rows(monkeypatch):
    # the tetrahedron's link is one triangle with no interior vertex: no SVD,
    # N is the triangle's closed-form basis and theta_p its centre
    system = rivin.assemble_constraints(triang.build_link(triang.tetrahedron(), 0))

    def forbidden(*args, **kwargs):
        raise AssertionError("an SVD without coupling rows")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    face = optvol._face(system, ())
    r2, r6 = 1 / math.sqrt(2), 1 / math.sqrt(6)
    assert np.allclose(face.N, [[r2, r6], [-r2, r6], [0, -2 * r6]], rtol=0, atol=1e-15)
    assert np.array_equal(face.theta_p, np.full(3, PI / 3))
    assert face.multipliers.shape == (0, 3)
    monkeypatch.undo()
    _assert_face_matches_dense_oracle(system, ())


def test_face_factor_of_a_doubly_pinned_triangle():
    # n = 9 #0 collapses a link triangle at its optimum: two corners leave the
    # variables at 0 and the third at pi, so that triangle has no column in N
    out = _witness_optimum(9, 0)
    system = rivin.assemble_constraints(out.link)
    act = _active_indices(system, out)
    (f,) = {i // 3 for i in act if i < system.n_vars}
    face = optvol._face(system, act)
    assert sum(i // 3 == f for i in act if i < system.n_vars) == 2
    assert not np.isin(np.arange(3 * f, 3 * f + 3), face.keep).any()
    assert sorted(face.base[3 * f:3 * f + 3]) == [0.0, 0.0, PI]
    _assert_face_matches_dense_oracle(system, act, out.angles.reshape(-1))


def from_the_start(monkeypatch):
    """Skip the zero-shear point, so that the ascent starts at the given start,
    as where that point's projection misses P."""
    monkeypatch.setattr(optvol, "_zero_shear", lambda system: None)


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
# the LP, with the ascent started there.  Each face Newton evaluates the
# gradient at its start and at each trial point, V only at an Armijo test, and
# the result's volume once; the last gradient norm is the KKT residual.  A
# face maximum that pins a row takes the gradient once more for its
# multipliers: n8-trial0 reaches a row that leaves again at its face's maximum,
# and n8-trial1 keeps one.  No trial here needs an Armijo test.
EVALUATION_COUNTS = {
    "octahedron": (6, 1, 5),
    "n8-trial0": (15, 1, 11),
    "n8-trial1": (19, 1, 13),
    "n8-trial4": (8, 1, 7),
}


@pytest.mark.parametrize("name", sorted(EVALUATION_COUNTS))
def test_optimizer_evaluates_each_point_once(name, monkeypatch):
    from_the_start(monkeypatch)
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
        payload = cli.optimize_payload(out, 100, 1e-10)
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


def _release_at(system, out):
    """(theta, gain, direction) of releasing the collapsed triangle of an
    optimum with the largest first-order volume gain, gain -inf when it
    collapses none that can be released alone."""
    act = _active_indices(system, out)
    face = optvol._face(system, act)
    theta = out.angles.reshape(-1)
    y = face.multipliers @ optvol.volume_gradient(theta[face.keep])
    gain, _, direction = optvol._release(system, act, face, theta, y)
    return theta, gain, direction


def test_release_gain_certifies_every_collapsed_optimum():
    # the collapsed optima the Frank-Wolfe gap leaves out: no release of a
    # collapsed triangle, with the variable corners holding every coupling
    # row, gains volume to first order
    certified = 0
    for n in range(4, 10):
        for i, apex, res, out in _apex_optima(n):
            if out.angles.min() == 0.0:
                assert _release_at(res.system, out)[1] <= 1e-9, (n, i, apex)
                certified += 1
    assert certified == 216


def test_release_gain_at_the_collapsed_default_apex_optima():
    # zero to rounding exactly at the five whose volume equals an optimum with
    # one vertex fewer (test_collapsed_optima_match_smaller_types), where the
    # collapse is a limit that a release neither gains nor loses from; at
    # n = 10 #81, which matches nothing, releasing loses volume
    gains = {}
    for n, i in COLLAPSED_OPTIMA:
        out = _witness_optimum(n, i)
        gains[n, i] = _release_at(rivin.assemble_constraints(out.link), out)[1]
    assert gains.pop((10, 81)) == pytest.approx(-0.0626, abs=1e-4)
    assert all(abs(g) <= 1e-15 for g in gains.values()), gains


def test_release_gain_is_the_directional_derivative():
    # along the release direction, the variable corners' compensation
    # included, V changes by eps * gain to first order: at each collapsed
    # default-apex optimum the difference quotient at eps = 1e-5 is within
    # 3e-6 of the gain (its second order)
    eps = 1e-5
    for n, i in COLLAPSED_OPTIMA:
        out = _witness_optimum(n, i)
        theta, gain, direction = _release_at(rivin.assemble_constraints(out.link), out)
        quotient = (specfun.lobachevsky_sum(theta + eps * direction)
                    - specfun.lobachevsky_sum(theta)) / eps
        assert abs(quotient - gain) <= 3e-6, (n, i, quotient, gain)


def _active_sets_differ_only_at_their_bound(system, out, ref):
    """Whether every constraint active at one optimum and not the other is
    within 2e-12 of its bound at both."""
    m = system.n_vars
    kinds = [("corner", divmod(i, 3)) for i in range(m)] + list(system.ub_kinds)
    at = [optvol._slacks(o.angles.reshape(-1), system.A_ub, system.b_ub) for o in (out, ref)]
    differ = set(out.active_constraints) ^ set(ref.active_constraints)
    return all(max(abs(s[kinds.index(k)]) for s in at) <= 2e-12 for k in differ)


@pytest.mark.parametrize("n", range(4, 10))
def test_optimum_does_not_depend_on_where_the_ascent_starts(n, monkeypatch):
    # every apex: the ascent from the witness itself, as where the zero-shear
    # point misses P, ends at the same optimum as from the zero-shear face
    optima = _apex_optima(n)
    from_the_start(monkeypatch)
    for i, apex, res, ref in optima:
        out = optvol.maximize_volume(res.link, start=res.witness)
        assert abs(out.volume - ref.volume) <= 4 * math.ulp(ref.volume), (n, i, apex)
        assert np.max(np.abs(out.angles - ref.angles)) <= 1e-11, (n, i, apex)
        assert out.kkt_residual <= 1e-12
        assert _active_sets_differ_only_at_their_bound(res.system, out, ref), (n, i, apex)


# (n, index, apex) of optima from the witness that broke drafts of the
# active-set ascent, with the float.hex volume of 0.2.18 (its barrier's) and
# the active set.  At n = 10 #65 apex 5 and #134 apex 7 a triangle collapses on
# the way and is released again: an orthogonal projection of the release onto
# its face lowered V at #65 and the ascent cycled.  At #185 apex 7 the release
# also frees the row through the collapsed triangle's third corner.  #185
# apex 2 stalled a draft that ran the volume test on a step too short for it
# to see; at n = 9 #4 apex 8 a step stops on a row already at its bound, a
# step of length 0 that the gradient-norm test accepts.
ASCENT_PINS = {
    (9, 4, 8): ("0x1.85bcd1d651998p+2", (("corner", (0, 0)), ("corner", (0, 2)),
                                         ("corner", (4, 0)), ("corner", (4, 1)),
                                         ("interior_edge", (0, 1)), ("interior_edge", (1, 2)))),
    (10, 65, 5): ("0x1.926ba68fec436p+2", (("interior_edge", (1, 2)), ("interior_edge", (1, 3)),
                                           ("interior_edge", (1, 4)), ("hull_vertex", 1))),
    (10, 134, 7): ("0x1.c23ec9a673649p+2", (("corner", (6, 0)), ("corner", (6, 1)))),
    (10, 185, 2): ("0x1.fc0d80fda735bp+2", (("interior_edge", (1, 3)), ("interior_edge", (1, 4)),
                                            ("hull_vertex", 1))),
    (10, 185, 7): ("0x1.fc0d80fda735bp+2", (("corner", (1, 0)), ("corner", (1, 1)),
                                            ("corner", (2, 0)), ("corner", (2, 1)),
                                            ("interior_edge", (1, 4)))),
}


@pytest.mark.parametrize("n,index,apex", sorted(ASCENT_PINS))
def test_active_set_ascent_regressions(n, index, apex):
    res = rivin.is_realizable(all_types(n)[index], apex=apex)
    out = optvol.maximize_volume(res.link, start=res.witness)
    ref, active = ASCENT_PINS[n, index, apex]
    ref = float.fromhex(ref)
    assert abs(out.volume - ref) <= 4 * math.ulp(ref)
    assert out.active_constraints == active
    assert out.kkt_residual <= 1e-12
    assert 0.0 <= out.angles.min() and out.angles.max() <= PI


def test_transient_small_corner_stays_free():
    # search n = 12, seed 3, trial 84 from its Euclidean start: two corners of
    # link triangle 15 are 6.84e-5 at the optimum, but over the last barrier
    # rounds of 0.2.17 they fell at ratios near 0.5, so the barrier's ratio
    # alone would have pinned them and lost 3.3e-9 of volume.  At the optimum
    # the two are equal, so which of them rounds lower is not pinned
    pt = geom.delaunay(geom.random_configuration(12, stats.trial_rng(3, 84)))
    _, link = geom.close_with_infinity(pt)
    out = optvol.maximize_volume(link, start=geom.euclidean_angles(pt).reshape(-1))
    assert all(kind != "corner" for kind, _ in out.active_constraints)
    assert min(out.angles[15, 1:]) == out.angles.min() == pytest.approx(6.84e-5, rel=1e-3)
    assert max(out.angles[15, 1:]) == pytest.approx(6.84e-5, rel=1e-3)
    ref = float.fromhex("0x1.6e7a6fee2b72cp+3")
    assert abs(out.volume - ref) <= 2 * math.ulp(ref)


# n = 11 #190 at its default apex 2, the near miss of the barrier's face rule
# until 0.2.18: over its last round the slack of interior_edge (1, 6) fell by
# 0.7223, just above the pinning threshold 0.2^(1/4) = 0.6687, so the edge
# stayed free; one round earlier the ratio read 0.5789, and that face failed
# its multiplier check (-5.4e-5 < -1e-9) and raised NumericalFailure.
NEAR_MISS_TYPE = (11, [(3, 1, 6), (1, 3, 7), (2, 1, 7), (1, 4, 8), (4, 0, 8), (1, 2, 9),
                       (2, 4, 9), (4, 1, 9), (0, 4, 10), (4, 2, 10), (1, 8, 6), (0, 10, 5),
                       (2, 5, 10), (5, 2, 0), (0, 2, 8), (6, 8, 2), (2, 7, 6), (3, 6, 7)])


def test_zero_shear_point_is_the_optimum_where_no_active_row_has_a_multiplier():
    # an independent check of the zero-shear start: at an optimum whose active
    # rows all carry zero multipliers (measured |lambda| <= 3e-15; the others
    # >= 0.057), the KKT conditions make it the zero-shear point, which lies on
    # P's boundary.  Where a row carries a multiplier, the zero-shear point
    # lies outside P.  Pinned corners have no zero-shear point and are left out
    free = pushed = 0
    for n in range(4, 11):
        for i in range(len(all_types(n))):
            out = _witness_optimum(n, i)
            if out is None or not out.active_constraints:
                continue
            if any(kind == "corner" for kind, _ in out.active_constraints):
                continue
            system = rivin.assemble_constraints(out.link)
            face = optvol._face(system, _active_indices(system, out))
            theta = out.angles.reshape(-1)
            multipliers = face.multipliers @ optvol.volume_gradient(theta[face.keep])
            multipliers = multipliers[len(system.b_eq) - system.n_vars // 3:]  # the rows'
            point = optvol._zero_shear(system)
            slack = None if point is None else optvol._slacks(point[0], system.A_ub, system.b_ub)
            if np.max(np.abs(multipliers)) <= 1e-9:
                free += 1
                assert slack.min() >= -1e-12, (n, i)
                assert np.max(np.abs(point[0] - theta)) <= 1e-10, (n, i)
            else:
                pushed += 1
                assert slack is None or slack.min() < -1e-3, (n, i)
    assert (free, pushed) == (29, 219)


def test_face_rule_near_miss_keeps_the_slow_edge_free():
    res = rivin.is_realizable(triang.validate(*NEAR_MISS_TYPE))
    assert res.apex == 2
    out = optvol.maximize_volume(res.link, start=res.witness)
    ref = float.fromhex("0x1.eadde465a1195p+2")
    assert abs(out.volume - ref) <= 2 * math.ulp(ref)
    assert out.kkt_residual <= 1e-12
    assert out.active_constraints == tuple(("hull_vertex", w) for w in (0, 4, 1, 8))


# n = 11 #305, whose default apex 2 crashed in 0.2.19-0.2.21: from the
# zero-shear point the start's settle collapsed link triangles until none was
# kept, and the face solve raised a bare ValueError.  The start stops at its
# first collapse, which the ascent drops anyway.
CRASH_TYPE = (11, [(2, 3, 5), (3, 1, 6), (1, 3, 7), (3, 2, 7), (2, 1, 7), (1, 2, 9),
                   (2, 4, 9), (4, 1, 9), (2, 0, 10), (4, 2, 10), (0, 6, 8), (3, 6, 5),
                   (0, 8, 10), (0, 2, 6), (5, 6, 2), (1, 4, 6), (4, 10, 6), (8, 6, 10)])


def test_start_that_collapses_every_triangle_optimizes():
    res = rivin.is_realizable(triang.validate(*CRASH_TYPE))
    assert res.apex == 2
    out = optvol.maximize_volume(res.link)
    ref = float.fromhex("0x1.ca63639f8031ap+2")
    assert abs(out.volume - ref) <= 2 * math.ulp(ref)
    assert out.kkt_residual <= 1e-12
    assert out.active_constraints == (("interior_edge", (6, 10)),) + tuple(
        ("hull_vertex", w) for w in (4, 1, 3, 6))


def test_face_that_keeps_no_triangle_raises_numerical_failure():
    system = rivin.assemble_constraints(rivin.is_realizable(triang.tetrahedron()).link)
    act = tuple(i for i in range(system.n_vars) if i % 3 < 2)
    with pytest.raises(NumericalFailure, match="keeps no triangle"):
        optvol._face(system, act)


def singular_newton_systems(monkeypatch):
    """Make every Newton system singular, as on a face no Newton can solve; the
    zero-shear Newton then gives up, and the ascent starts at the start."""

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)


def test_face_that_fails_its_checks_raises_numerical_failure(monkeypatch):
    # no measured input reaches this guard: a Newton system that has no
    # ascending step above the gradient's rounding floor
    singular_newton_systems(monkeypatch)
    res = rivin.is_realizable(all_types(9)[0])
    with pytest.raises(NumericalFailure, match="no ascending Newton step"):
        optvol.maximize_volume(res.link, start=res.witness)


def test_collapsed_optima_match_smaller_types():
    # a collapsed optimum's volume is that of a type with one vertex fewer
    n9 = _witness_optimum(9, 38).volume
    for i in (0, 1, 14, 146):
        assert abs(_witness_optimum(10, i).volume - n9) <= 2 * math.ulp(n9)
    n8 = float(EXACT_VOLUMES["n8-13"])
    assert abs(_witness_optimum(9, 0).volume - n8) <= 3 * math.ulp(n8)


def test_collapse_does_not_depend_on_the_start(monkeypatch):
    # each collapsed optimum pins its triangle from every random interior
    # start, the ascent started there
    from_the_start(monkeypatch)
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
