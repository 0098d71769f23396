import math

import numpy as np
import pytest

from idealpoly import corpus, geom, oracles, rivin, simplex, stats, triang


def tetra_link():
    return triang.build_link(triang.tetrahedron(), 3)


def test_system_dimensions_tetrahedron():
    system = rivin.assemble_constraints(tetra_link())
    assert system.n_vars == 3
    kinds = [r[2] for r in system.eq_rows]
    assert kinds == ["triangle"]
    ub_kinds = [r[2] for r in system.ub_rows]
    assert ub_kinds.count("interior_edge") == 0
    assert ub_kinds.count("hull_vertex") == 3


def test_system_dimensions_octahedron():
    link = triang.build_link(triang.octahedron(), 0)
    system = rivin.assemble_constraints(link)
    assert system.n_vars == 12
    eq_kinds = [r[2] for r in system.eq_rows]
    assert eq_kinds.count("triangle") == 4
    assert eq_kinds.count("interior_vertex") == 1
    ub_kinds = [r[2] for r in system.ub_rows]
    assert ub_kinds.count("interior_edge") == 4
    assert ub_kinds.count("hull_vertex") == 4


def test_system_dimensions_bipyramid():
    link = triang.build_link(triang.bipyramid(), 0)  # degree-3 apex
    system = rivin.assemble_constraints(link)
    assert system.n_vars == 9
    eq_kinds = [r[2] for r in system.eq_rows]
    assert eq_kinds.count("triangle") == 3
    assert eq_kinds.count("interior_vertex") == 1
    ub_kinds = [r[2] for r in system.ub_rows]
    assert ub_kinds.count("interior_edge") == 3
    assert ub_kinds.count("hull_vertex") == 3


def test_rows_are_zero_one_and_well_formed():
    link = triang.build_link(triang.octahedron(), 2)
    system = rivin.assemble_constraints(link)
    for idx, rhs, kind, _ in system.eq_rows:
        assert len(set(idx)) == len(idx)
        assert all(0 <= i < system.n_vars for i in idx)
        assert len(idx) == 3 if kind == "triangle" else len(idx) >= 3
    for idx, rhs, kind, _ in system.ub_rows:
        assert all(0 <= i < system.n_vars for i in idx)
        if kind == "interior_edge":
            assert len(idx) == 2


def test_tetrahedron_feasible_with_centered_witness():
    res = rivin.check_feasible(rivin.assemble_constraints(tetra_link()))
    assert res.feasible
    assert res.witness == pytest.approx([math.pi / 3] * 3, abs=1e-9)
    assert res.min_slack > 1.0


def test_octahedron_feasible():
    link = triang.build_link(triang.octahedron(), 0)
    res = rivin.check_feasible(rivin.assemble_constraints(link))
    assert res.feasible
    ms, eq_res = rivin.witness_slacks(rivin.assemble_constraints(link), res.witness)
    assert ms > 0
    assert eq_res < 1e-9


def test_huge_epsilon_infeasible():
    system = rivin.assemble_constraints(tetra_link(), 1.1)  # 3 * 1.1 > pi
    res = rivin.check_feasible(system)
    assert not res.feasible
    assert res.certificate > 0.1


def _ulps_from_pi_over_3(k):
    eps = math.pi / 3
    for _ in range(abs(k)):
        eps = math.nextafter(eps, math.inf if k > 0 else -math.inf)
    return eps


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("make", [triang.tetrahedron, triang.bipyramid])
def test_empty_by_rounding_is_infeasible(make, k):
    # for k > 0, 3 * epsilon > pi: no corner assignment meets a triangle row
    # with every corner >= epsilon.  Phase 1 passes the system within its
    # tolerance, and the optimal t comes out negative.
    res = rivin.is_realizable(make(), epsilon=_ulps_from_pi_over_3(k))
    feas = rivin.check_feasible(res.system)
    assert res.realizable == feas.feasible == (k <= 0)
    if k <= 0:
        assert feas.min_slack >= 0.0
    else:
        assert res.witness is None
        assert feas.certificate > 0.0
        assert math.isnan(feas.min_slack)


def test_epsilon_monotonicity():
    for t in corpus.all_types(6) + corpus.all_types(7):
        link = triang.build_link(t, triang.choose_apex(t))
        feas6 = rivin.check_feasible(rivin.assemble_constraints(link, 1e-6)).feasible
        feas8 = rivin.check_feasible(rivin.assemble_constraints(link, 1e-8)).feasible
        if feas6:
            assert feas8


def test_realizable_small_cases():
    assert rivin.is_realizable(triang.tetrahedron()).realizable
    assert rivin.is_realizable(triang.octahedron()).realizable
    assert rivin.is_realizable(triang.bipyramid()).realizable


def test_witness_validity_over_small_types():
    for n in (4, 5, 6, 7):
        for t in corpus.all_types(n):
            res = rivin.is_realizable(t)
            if not res.realizable:
                continue
            min_slack, eq_res = rivin.witness_slacks(res.system, res.witness)
            assert eq_res < 1e-9
            assert min_slack >= -1e-12


def test_apex_invariance_enumerated_and_random():
    cases = []
    for n in (4, 5, 6, 7):
        cases.extend(corpus.all_types(n))
    # 100 random Delaunay types with at most 10 vertices (weighted toward
    # n = 8..10, where the type counts are large)
    seen = set()
    trial = 0
    while len(cases) < 109 and trial < 2000:
        n = 8 + trial % 3
        cfg = geom.random_configuration(n, stats.trial_rng(55, trial))
        t, _ = geom.close_with_infinity(geom.delaunay(cfg))
        key = triang.canonical_form(t)
        if key not in seen:
            seen.add(key)
            cases.append(t)
        trial += 1
    assert len(cases) >= 100
    for t in cases:
        answers = {rivin.is_realizable(t, apex=a).realizable for a in range(t.n)}
        assert len(answers) == 1, f"apex disagreement for {t.faces}"


def test_two_n6_types_against_coarse_grid_oracle():
    for t in corpus.all_types(6):
        link = triang.build_link(t, triang.choose_apex(t))
        system = rivin.assemble_constraints(link)
        lp = rivin.check_feasible(system).feasible
        grid = oracles.grid_feasible(system, 24)
        assert lp == grid


def test_grid_oracle_agreement_low_dimension():
    checked = 0
    for n in (4, 5, 6, 7):
        for t in corpus.all_types(n):
            for apex in range(t.n):
                system = rivin.assemble_constraints(triang.build_link(t, apex))
                if oracles.reduced_grid_dimension(system) > 5:
                    continue
                lp = rivin.check_feasible(system).feasible
                assert oracles.grid_feasible(system, 720) == lp
                checked += 1
    assert checked >= 9


def random_lps():
    """60 small random LPs as (c, A_eq, b_eq, A_ub, b_ub)."""
    rng = np.random.default_rng(8)
    lps = []
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 5))
        m_eq = int(rng.integers(0, 3))
        c = rng.standard_normal(n)
        A_ub = rng.standard_normal((m_ub, n))
        b_ub = rng.uniform(0.5, 2.0, m_ub)
        A_eq = rng.standard_normal((m_eq, n)) if m_eq else None
        b_eq = rng.uniform(0.1, 1.0, m_eq) if m_eq else None
        lps.append((c, A_eq, b_eq, A_ub, b_ub))
    return lps


def test_simplex_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    agreements = 0
    for c, A_eq, b_eq, A_ub, b_ub in random_lps():
        ours = simplex.solve(c, A_eq, b_eq, A_ub, b_ub)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"
        elif ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            agreements += 1
    assert agreements > 10


def test_random_interior_points_are_interior():
    rng = np.random.default_rng(9)
    for t in corpus.all_types(6):
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        for theta in rivin.random_interior_points(res.system, 5, rng):
            min_slack, eq_res = rivin.witness_slacks(res.system, theta)
            assert min_slack > 0
            assert eq_res < 1e-8


# -- the scalar simplex loops, kept as the bitwise reference -----------------


def _scalar_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _scalar_simplex_iterate(T, basis, ncols, degenerate_run=None):
    """The pricing loop with scalar scans; degenerate_run=0 is Bland's rule."""
    if degenerate_run is None:
        degenerate_run = simplex._DEGENERATE_RUN
    pivots = 0
    degenerate = 0
    while True:
        col = -1
        if degenerate < degenerate_run:
            for j in range(ncols):  # Dantzig: most negative, first on ties
                if col < 0 or T[-1, j] < T[-1, col]:
                    col = j
            if not T[-1, col] < -simplex._TOL:
                return
        else:
            for j in range(ncols):  # Bland: first improving column
                if T[-1, j] < -simplex._TOL:
                    col = j
                    break
            if col < 0:
                return
        row = -1
        best = np.inf
        for r in range(T.shape[0] - 1):
            a = T[r, col]
            if a > simplex._PIVOT_TOL:
                ratio = T[r, -1] / a
                if ratio < best - 1e-12 or (
                    ratio < best + 1e-12 and (row < 0 or basis[r] < basis[row])
                ):
                    best = ratio
                    row = r
        if row < 0:
            raise simplex._Unbounded()
        simplex._pivot(T, basis, row, col)
        degenerate = degenerate + 1 if best <= 1e-12 else 0
        pivots += 1
        if pivots > simplex.MAX_PIVOTS:
            raise simplex.NumericalFailure("simplex pivot cap exceeded")


ARRAY_SIMPLEX = (simplex._pivot, simplex._simplex_iterate)
SCALAR_SIMPLEX = (_scalar_pivot, _scalar_simplex_iterate)
BLAND_SIMPLEX = (
    simplex._pivot,
    lambda T, basis, ncols: _scalar_simplex_iterate(T, basis, ncols, degenerate_run=0),
)


def solve_counting(loops, args, kwargs):
    """simplex.solve run with the given (pivot, iterate) pair, and its pivot count."""
    pivot, iterate = loops
    count = 0

    def counted(T, basis, row, col):
        nonlocal count
        count += 1
        pivot(T, basis, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", counted)
        mp.setattr(simplex, "_simplex_iterate", iterate)
        res = simplex.solve(*args, **kwargs)
    return res, count


def recorded_lps(run):
    """The (args, kwargs) of every simplex.solve call that run() makes."""
    lps = []
    solve = simplex.solve

    def record(*args, **kwargs):
        lps.append((args, kwargs))
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "solve", record)
        run()
    return lps


def corpus_systems(epsilons):
    for n in (4, 5, 6, 7, 8):
        for t in corpus.all_types(n):
            link = triang.build_link(t, triang.choose_apex(t))
            for eps in epsilons:
                yield rivin.assemble_constraints(link, eps)


def test_array_simplex_matches_scalar_loops_bitwise(monkeypatch):
    def check_feasible_everywhere():
        for system in corpus_systems((1e-6, 0.3, 1.1)):
            rivin.check_feasible(system)

    lps = [(lp, {}) for lp in random_lps()] + recorded_lps(check_feasible_everywhere)
    # No LP here has 50 degenerate pivots in a row; a run of 2 sends 28 of
    # them through the Bland fallback as well.
    for run in (simplex._DEGENERATE_RUN, 2):
        monkeypatch.setattr(simplex, "_DEGENERATE_RUN", run)
        statuses = set()
        for args, kwargs in lps:
            ref, ref_pivots = solve_counting(SCALAR_SIMPLEX, args, kwargs)
            res, pivots = solve_counting(ARRAY_SIMPLEX, args, kwargs)
            assert res.status == ref.status
            assert pivots == ref_pivots
            assert res.phase1_objective == ref.phase1_objective
            assert res.objective == ref.objective
            if ref.x is None:
                assert res.x is None
            else:
                assert res.x.tobytes() == ref.x.tobytes()
            statuses.add(res.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}


# Chvatal's cycling example (Linear Programming, 1983, ch. 3): Dantzig
# pricing with the smallest-index leaving rule returns to its first basis
# after six degenerate pivots.
CHVATAL_LP = (
    [10.0, -57.0, -9.0, -24.0],
    None,
    None,
    [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_simplex_terminates_on_chvatal_cycling_lp():
    res = simplex.solve(*CHVATAL_LP, maximize=True)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_dantzig_without_bland_fallback_cycles_on_chvatal_lp(monkeypatch):
    # the fallback is what ends the cycle: switched off, the pivot cap trips
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 200)
    with pytest.raises(simplex.NumericalFailure):
        simplex.solve(*CHVATAL_LP, maximize=True)


def test_dantzig_pricing_needs_fewer_pivots_at_n40():
    cfg = geom.random_configuration(40, stats.trial_rng(0, 0))
    t, _ = geom.close_with_infinity(geom.delaunay(cfg))
    system = rivin.assemble_constraints(triang.build_link(t, triang.choose_apex(t)))
    (args, kwargs), = recorded_lps(lambda: rivin.check_feasible(system))
    ref, bland_pivots = solve_counting(BLAND_SIMPLEX, args, kwargs)
    res, pivots = solve_counting(ARRAY_SIMPLEX, args, kwargs)
    assert res.status == ref.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-12)
    assert pivots < 0.6 * bland_pivots


# -- the two-LP check_feasible, kept as the reference for the compact LP -----


def two_lp_check_feasible(system):
    """Zero-objective feasibility LP, then a centering LP with explicit
    lower-bound rows t - y_c <= 0."""
    A_eq, b_eq, A_ub, b_ub = rivin._standard_form(system)
    n = system.n_vars
    res = simplex.solve(np.zeros(n), A_eq, b_eq, A_ub, b_ub)
    if res.status == "infeasible":
        return rivin.FeasibilityResult(False, None, float(res.phase1_objective), float("nan"))
    assert res.status == "optimal"
    m_ub = A_ub.shape[0]
    A_eq2 = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    rows = []
    rhs = []
    if m_ub:
        rows.append(np.hstack([A_ub, np.ones((m_ub, 1))]))
        rhs.append(b_ub)
    rows.append(np.hstack([-np.eye(n), np.ones((n, 1))]))
    rhs.append(np.zeros(n))
    c2 = np.zeros(n + 1)
    c2[-1] = 1.0
    res2 = simplex.solve(c2, A_eq2, b_eq, np.vstack(rows), np.concatenate(rhs), maximize=True)
    assert res2.status == "optimal"
    t = float(res2.x[-1])
    return rivin.FeasibilityResult(True, res2.x[:n] + system.epsilon, 0.0, t)


def test_compact_check_feasible_matches_two_lp_version():
    verdicts = set()
    for system in corpus_systems((1e-6, 0.3, 1.1)):
        ref = two_lp_check_feasible(system)
        res = rivin.check_feasible(system)
        assert res.feasible == ref.feasible
        verdicts.add(res.feasible)
        if res.feasible:
            assert res.min_slack == pytest.approx(ref.min_slack, abs=1e-12)
            min_slack, eq_res = rivin.witness_slacks(system, res.witness)
            assert min_slack >= res.min_slack - 1e-12
            assert eq_res < 1e-9
        else:
            assert res.witness is None
            assert res.certificate == pytest.approx(ref.certificate, rel=1e-12)
    assert verdicts == {True, False}
