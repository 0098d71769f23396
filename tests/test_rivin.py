import itertools
import math

import numpy as np
import pytest

from idealpoly import geom, oracles, rivin, simplex, stats, triang
from idealpoly.errors import InputError

from catalog import all_types, flip_walk


def witness_slacks(system, epsilon, theta):
    """Minimum slack over all constraints relaxed by epsilon, and max
    equality residual."""
    A_eq, b_eq = system.A_eq, system.b_eq
    A_ub, b_ub = system.A_ub, system.b_ub - epsilon
    eq_res = 0.0
    if A_eq.shape[0]:
        eq_res = float(np.max(np.abs(A_eq @ theta - b_eq)))
    slacks = [float(np.min(theta) - epsilon)]
    if A_ub.shape[0]:
        slacks.append(float(np.min(b_ub - A_ub @ theta)))
    return min(slacks), eq_res


def assert_witness_on_polytope(system, res):
    """The witness meets A_eq theta = b_eq to 1e-12, and every corner and
    every inequality slack is at least t* - 1e-12."""
    min_slack, eq_res = witness_slacks(system, res.min_slack, res.witness)
    assert eq_res <= 1e-12
    assert min_slack >= -1e-12


def tetra_link():
    return triang.build_link(triang.tetrahedron(), 3)


def test_system_dimensions_tetrahedron():
    system = rivin.assemble_constraints(tetra_link())
    assert system.n_vars == 3
    kinds = [kind for kind, _ in system.eq_kinds]
    assert kinds == ["triangle"]
    ub_kinds = [kind for kind, _ in system.ub_kinds]
    assert ub_kinds.count("interior_edge") == 0
    assert ub_kinds.count("hull_vertex") == 3


def test_system_dimensions_octahedron():
    link = triang.build_link(triang.octahedron(), 0)
    system = rivin.assemble_constraints(link)
    assert system.n_vars == 12
    eq_kinds = [kind for kind, _ in system.eq_kinds]
    assert eq_kinds.count("triangle") == 4
    assert eq_kinds.count("interior_vertex") == 1
    ub_kinds = [kind for kind, _ in system.ub_kinds]
    assert ub_kinds.count("interior_edge") == 4
    assert ub_kinds.count("hull_vertex") == 4


def test_system_dimensions_bipyramid():
    link = triang.build_link(triang.bipyramid(), 0)  # degree-3 apex
    system = rivin.assemble_constraints(link)
    assert system.n_vars == 9
    eq_kinds = [kind for kind, _ in system.eq_kinds]
    assert eq_kinds.count("triangle") == 3
    assert eq_kinds.count("interior_vertex") == 1
    ub_kinds = [kind for kind, _ in system.ub_kinds]
    assert ub_kinds.count("interior_edge") == 3
    assert ub_kinds.count("hull_vertex") == 3


def row_indices(link, kind, key):
    """Flat corner indices a constraint row of this kind and key should hold."""
    if kind == "triangle":
        return [3 * key, 3 * key + 1, 3 * key + 2]
    return list(link.opposite[key] if kind == "interior_edge" else link.corners_at[key])


def test_rows_are_zero_one_and_well_formed():
    link = triang.build_link(triang.octahedron(), 2)
    system = rivin.assemble_constraints(link)
    for A, kinds in ((system.A_eq, system.eq_kinds), (system.A_ub, system.ub_kinds)):
        assert A.shape == (len(kinds), system.n_vars)
        assert set(np.unique(A)) <= {0.0, 1.0}
        for row, (kind, key) in zip(A, kinds):
            idx = row_indices(link, kind, key)
            assert len(set(idx)) == len(idx)
            assert all(0 <= i < system.n_vars for i in idx)
            # a repeated or wrapped index would not survive this comparison
            assert np.flatnonzero(row).tolist() == sorted(idx)
            if kind == "triangle":
                assert len(idx) == 3
            elif kind == "interior_edge":
                assert len(idx) == 2
            elif kind == "interior_vertex":
                assert len(idx) >= 3


def test_polytope_arrays_do_not_depend_on_epsilon():
    # the arrays hold the polytope P, and check_feasible records one LP for
    # every epsilon: epsilon only thresholds its optimum t*, and the witness
    # lies on P with every corner and every inequality slack at least t*
    octahedron = rivin.assemble_constraints(triang.build_link(triang.octahedron(), 0))
    for system in (octahedron, seeded_system(12, 0)):
        rhs = [math.pi if kind == "triangle" else 2.0 * math.pi
               for kind, _ in system.eq_kinds]
        assert system.b_eq.tolist() == rhs
        assert system.b_ub.tolist() == [math.pi] * len(system.ub_kinds)
        lps = [recorded_lps(lambda: rivin.check_feasible(system, eps))
               for eps in (1e-8, 1e-6, 0.3, 1.1)]
        (first, first_kwargs), = lps[0]
        for ((args, kwargs),) in lps:
            assert kwargs == first_kwargs
            assert [a.tobytes() for a in args] == [a.tobytes() for a in first]
        res = rivin.check_feasible(system)
        assert_witness_on_polytope(system, res)


def test_tetrahedron_feasible_with_centered_witness():
    res = rivin.check_feasible(rivin.assemble_constraints(tetra_link()))
    assert res.realizable
    assert res.witness == pytest.approx([math.pi / 3] * 3, abs=1e-9)
    assert res.min_slack > 1.0


def test_octahedron_feasible():
    system = rivin.assemble_constraints(triang.build_link(triang.octahedron(), 0))
    res = rivin.check_feasible(system)
    assert res.realizable
    ms, eq_res = witness_slacks(system, rivin.DEFAULT_EPSILON, res.witness)
    assert ms > 0
    assert eq_res < 1e-9


def test_huge_epsilon_infeasible():
    system = rivin.assemble_constraints(tetra_link())
    res = rivin.check_feasible(system, 1.1)  # 3 * 1.1 > pi
    assert not res.realizable
    assert res.min_slack == pytest.approx(math.pi / 3, abs=1e-12)
    assert res.certificate == pytest.approx(1.1 - math.pi / 3, abs=1e-12)  # 0.0528


@pytest.mark.parametrize("eps", [0.0, -1.0, math.pi, math.nan, math.inf])
def test_check_feasible_rejects_epsilon_outside_open_interval(eps):
    with pytest.raises(InputError):
        rivin.check_feasible(rivin.assemble_constraints(tetra_link()), eps)


def _ulps_from_pi_over_3(k):
    eps = math.pi / 3
    for _ in range(abs(k)):
        eps = math.nextafter(eps, math.inf if k > 0 else -math.inf)
    return eps


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("make", [triang.tetrahedron, triang.bipyramid])
def test_empty_by_rounding_is_infeasible(make, k):
    # for k > 0, 3 * epsilon > pi: no corner assignment meets a triangle row
    # with every corner >= epsilon.  The largest minimum slack t* of P is
    # pi/3 in floats too, so the verdict turns exactly at epsilon = pi/3.
    eps = _ulps_from_pi_over_3(k)
    res = rivin.is_realizable(make(), epsilon=eps)
    assert res.realizable == (k <= 0)
    if k <= 0:
        assert res.min_slack >= eps
    else:
        assert res.witness is None
        assert res.min_slack == float(math.pi / 3)
        assert res.certificate == eps - res.min_slack > 0.0


def test_epsilon_monotonicity():
    for t in all_types(6) + all_types(7):
        link = triang.build_link(t, triang.choose_apex(t))
        system = rivin.assemble_constraints(link)
        feas6 = rivin.check_feasible(system, 1e-6).realizable
        feas8 = rivin.check_feasible(system, 1e-8).realizable
        if feas6:
            assert feas8


def test_realizable_small_cases():
    assert rivin.is_realizable(triang.tetrahedron()).realizable
    assert rivin.is_realizable(triang.octahedron()).realizable
    assert rivin.is_realizable(triang.bipyramid()).realizable


def _separating_triangles(t):
    """3-cycles of t that are not faces."""
    edges, faces = set(t.edges()), {tuple(sorted(f)) for f in t.faces}
    return [
        tri for tri in itertools.combinations(range(t.n), 3)
        if tri not in faces and all(e in edges for e in itertools.combinations(tri, 2))
    ]


def _max_independent_set(t):
    """Size of a largest set of pairwise non-adjacent vertices, by brute force."""
    nbrs = [0] * t.n
    for u, v in t.edges():
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return max(
        bin(s).count("1") for s in range(1 << t.n)
        if all(not (s >> v & 1 and s & nbrs[v]) for v in range(t.n))
    )


def test_realizability_against_combinatorial_oracles():
    # Dillencourt & Smith (1996, Discrete Math. 161): a sphere triangulation
    # with no separating triangle (a 4-connected one, for n >= 6) is of
    # inscribable type.
    no_separating = {n: 0 for n in range(4, 10)}
    large_independent, undecided = [], []
    for n in range(4, 10):
        for i, t in enumerate(all_types(n)):
            realizable = rivin.is_realizable(t).realizable
            if not _separating_triangles(t):
                no_separating[n] += 1
                assert realizable, (n, i)
            if 2 * _max_independent_set(t) >= n:
                large_independent.append((n, i, realizable))
            elif not realizable and _separating_triangles(t):
                undecided.append((n, i))
    assert no_separating == {4: 1, 5: 0, 6: 1, 7: 1, 8: 2, 9: 4}
    # A regression pin, not a theorem oracle: its source is not checked
    # here.  The criterion it would rest on (Steinitz 1928) has the
    # hypothesis: the vertices of a 3-polytope split into black and white
    # with no two black vertices adjacent, and there are more black than
    # white vertices, or as many with two white vertices adjacent.  In a
    # triangulation every face has at most one black vertex, so two white
    # vertices are always adjacent.  The one such type with n <= 9 is the
    # triakis tetrahedron, the tetrahedron stacked on every face.
    assert large_independent == [(8, 11, False)]
    # the one non-realizable type that neither rule decides
    assert undecided == [(9, 30)]


def test_witness_validity_over_small_types():
    for n in (4, 5, 6, 7):
        for t in all_types(n):
            res = rivin.is_realizable(t)
            if not res.realizable:
                continue
            min_slack, eq_res = witness_slacks(res.system, rivin.DEFAULT_EPSILON, res.witness)
            assert eq_res < 1e-9
            assert min_slack >= -1e-12


def test_apex_invariance_enumerated_and_random():
    cases = []
    for n in (4, 5, 6, 7):
        cases.extend(all_types(n))
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
    for t in all_types(6):
        link = triang.build_link(t, triang.choose_apex(t))
        system = rivin.assemble_constraints(link)
        lp = rivin.check_feasible(system).realizable
        grid = oracles.grid_feasible(system, 24)
        assert lp == grid


def test_grid_oracle_agreement_low_dimension():
    checked = 0
    for n in (4, 5, 6, 7):
        for t in all_types(n):
            for apex in range(t.n):
                system = rivin.assemble_constraints(triang.build_link(t, apex))
                if oracles.reduced_grid_dimension(system) > 5:
                    continue
                lp = rivin.check_feasible(system).realizable
                assert oracles.grid_feasible(system, 720) == lp
                checked += 1
    assert checked >= 9


def test_grid_oracle_matches_lp_on_every_n8_and_n9_type():
    # 12 steps per pi, not c12's 720: the search over an infeasible type
    # grows steeply with the steps, and a type whose polytope has no
    # interior point (t* = 0) is infeasible at every resolution
    infeasible = []
    for n in (8, 9):
        for i, t in enumerate(all_types(n)):
            system = rivin.assemble_constraints(triang.build_link(t, triang.choose_apex(t)))
            lp = rivin.check_feasible(system).realizable
            assert oracles.grid_feasible(system, 12) == lp, (n, i)
            if not lp:
                infeasible.append((n, i))
    assert infeasible == [(8, 11), (9, 30)]


def test_largest_minimum_slack_at_the_default_apex():
    # min_slack is t*, the largest minimum slack over P: pi/3 for the
    # tetrahedron, pi/q at the least centred type of each n, and 0 up to
    # rounding exactly where P has no interior point (ROADMAP item 7's hard
    # cases: n = 8 #11, n = 9 #30 and the nine non-inscribable n = 10 types)
    tetra = rivin.is_realizable(triang.tetrahedron())
    assert tetra.min_slack == pytest.approx(math.pi / 3, abs=1e-12)
    smallest = {6: 4, 7: 6, 8: 8, 9: 10, 10: 16}
    zero = {}
    for n in range(4, 11):
        results = [rivin.is_realizable(t) for t in all_types(n)]
        slacks = [res.min_slack for res in results]
        flat = [i for i, s in enumerate(slacks) if abs(s) <= 1e-12]
        assert flat == [i for i, res in enumerate(results) if not res.realizable], n
        if flat:
            zero[n] = len(flat)
        if n in smallest:
            least = min(s for s in slacks if s > 1e-12)
            assert least == pytest.approx(math.pi / smallest[n], abs=1e-12), n
    assert zero == {8: 1, 9: 1, 10: 9}


# n = 11 #1189: the one type with n <= 11 whose polytope P is empty at the
# default apex, so the LP's phase 1 ends with a positive residual
N11_EMPTY_POLYTOPE = [
    [0, 2, 5], [2, 3, 5], [3, 0, 5], [0, 3, 6], [3, 1, 6], [1, 0, 6],
    [1, 3, 7], [3, 2, 7], [2, 1, 7], [0, 1, 8], [1, 4, 8], [4, 0, 8],
    [1, 2, 9], [2, 4, 9], [4, 1, 9], [2, 0, 10], [0, 4, 10], [4, 2, 10],
]


def test_empty_polytope_certificate_is_phase1_residual():
    res = rivin.is_realizable(triang.validate(11, N11_EMPTY_POLYTOPE))
    assert not res.realizable
    assert res.witness is None
    assert math.isnan(res.min_slack)
    assert res.certificate == pytest.approx(math.pi, abs=1e-12)


def test_simplex_rejects_negative_right_hand_side():
    with pytest.raises(ValueError):
        simplex.solve([1.0], np.zeros((0, 1)), np.zeros(0), [[-1.0]], [-1.0])


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
        A_eq = rng.standard_normal((m_eq, n))
        b_eq = rng.uniform(0.1, 1.0, m_eq)
        lps.append((c, A_eq, b_eq, A_ub, b_ub))
    return lps


def degenerate_lps():
    """40 small 0/+-1 LPs whose last equality row is the sum of the others.

    Phase 1 can end with an artificial basic at zero, which the drive-out
    then pivots out or leaves on its redundant row.
    """
    rng = np.random.default_rng(3)
    lps = []
    for _ in range(40):
        n = int(rng.integers(3, 6))
        m_eq = int(rng.integers(2, 4))
        m_ub = int(rng.integers(0, 3))
        A_eq = rng.integers(-1, 2, (m_eq, n)).astype(float)
        b_eq = rng.integers(0, 2, m_eq).astype(float)
        A_eq[-1] = A_eq[:-1].sum(axis=0)
        b_eq[-1] = b_eq[:-1].sum()
        A_ub = np.vstack([rng.integers(-1, 2, (m_ub, n)), np.ones((1, n))])
        b_ub = np.append(rng.integers(0, 3, m_ub), 3.0)
        c = rng.integers(-2, 3, n).astype(float)
        lps.append((c, A_eq, b_eq, A_ub, b_ub))
    return lps


def test_simplex_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    agreements = 0
    for c, A_eq, b_eq, A_ub, b_ub in random_lps():
        ours = simplex.solve(-c, A_eq, b_eq, A_ub, b_ub)  # min c.x is max -c.x
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"
        elif ref.status == 0:
            assert ours.status == "optimal"
            assert -ours.objective == pytest.approx(ref.fun, abs=1e-7)
            agreements += 1
    assert agreements > 10


def test_random_interior_points_are_interior():
    rng = np.random.default_rng(9)
    for t in all_types(6):
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        for theta in rivin.random_interior_points(res, 5, rng):
            min_slack, eq_res = witness_slacks(res.system, rivin.DEFAULT_EPSILON, theta)
            assert min_slack > 0
            assert eq_res < 1e-8


def test_random_interior_points_reuse_the_witness():
    # the result's witness is the centre: only the random-objective LPs run
    res = rivin.is_realizable(triang.octahedron())
    assert len(recorded_lps(lambda: rivin.is_realizable(triang.octahedron()))) == 1
    lps = recorded_lps(lambda: rivin.random_interior_points(res, 5, np.random.default_rng(9)))
    assert len(lps) == 8


# -- the full-tableau simplex with scalar loops, kept as the bitwise reference


class _Unbounded(Exception):
    pass


def _scalar_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _scalar_simplex_iterate(T, basis, ncols, degenerate_run, stop=np.inf):
    """The pricing loop with scalar scans, stopping early once T[-1, -1]
    reaches ``stop``; returns its pivot count, which an unbounded ray
    carries instead.  degenerate_run=0 is Bland's rule."""
    pivots = 0
    degenerate = 0
    while True:
        if T[-1, -1] >= stop:
            return pivots
        col = -1
        if degenerate < degenerate_run:
            for j in range(ncols):  # Dantzig: most negative, first on ties
                if col < 0 or T[-1, j] < T[-1, col]:
                    col = j
            if not T[-1, col] < -simplex._TOL:
                return pivots
        else:
            for j in range(ncols):  # Bland: first improving column
                if T[-1, j] < -simplex._TOL:
                    col = j
                    break
            if col < 0:
                return pivots
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
            raise _Unbounded(pivots)
        _scalar_pivot(T, basis, row, col)
        degenerate = degenerate + 1 if best <= 1e-12 else 0
        pivots += 1
        if pivots > simplex.MAX_PIVOTS:
            raise simplex.NumericalFailure("simplex pivot cap exceeded")


def full_tableau_solve(c, A_eq, b_eq, A_ub, b_ub, target=np.inf):
    """Max c.x by the two-phase simplex on the full tableau, every basic
    column stored, with the module's tolerances and _DEGENERATE_RUN, for
    right-hand sides >= 0, stopping phase 2 once c.x >= target; returns
    (LPResult, pivot count)."""
    run = simplex._DEGENERATE_RUN
    c = np.asarray(c, dtype=float)
    n = c.size
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    m_eq = A_eq.shape[0]
    m_ub = A_ub.shape[0]
    m = m_eq + m_ub

    # columns: structural, slacks, one artificial per equality row
    ncols = n + m_ub
    T = np.zeros((m + 1, ncols + m_eq + 1))
    T[:m_eq, :n] = A_eq
    T[m_eq:m, :n] = A_ub
    T[m_eq:m, n:ncols] = np.eye(m_ub)
    T[:m_eq, ncols:-1] = np.eye(m_eq)
    T[:m, -1] = np.concatenate([b_eq, b_ub])
    basis = list(range(ncols, ncols + m_eq)) + list(range(n, ncols))

    T[-1, ncols:-1] = 1.0
    for r in range(m_eq):
        T[-1] -= T[r]
    pivots = _scalar_simplex_iterate(T, basis, ncols + m_eq, run)
    phase1 = -T[-1, -1]
    if phase1 > simplex._TOL:
        return simplex.LPResult("infeasible", phase1_objective=phase1), pivots

    for r in range(m):
        if basis[r] >= ncols:
            piv = np.flatnonzero(np.abs(T[r, :ncols]) > simplex._PIVOT_TOL)
            if piv.size:
                _scalar_pivot(T, basis, r, int(piv[0]))
                pivots += 1

    obj = np.zeros(T.shape[1])
    obj[:n] = -c
    T[-1] = obj
    for r in range(m):
        if basis[r] < ncols and obj[basis[r]] != 0.0:
            T[-1] -= obj[basis[r]] * T[r]
    try:
        pivots += _scalar_simplex_iterate(T, basis, ncols, run, target)
    except _Unbounded as ray:
        return simplex.LPResult("unbounded", phase1_objective=0.0), pivots + ray.args[0]

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    val = float(c @ x)
    status = "target" if T[-1, -1] >= target else "optimal"
    return simplex.LPResult(status, x=x, objective=val, phase1_objective=0.0), pivots


def solve_counting(args, kwargs):
    """simplex.solve and its pivot count."""
    count = 0
    pivot = simplex._pivot

    def counted(*pivot_args):
        nonlocal count
        count += 1
        pivot(*pivot_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", counted)
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
    """(system, epsilon) for every type at n = 4..8 and every epsilon."""
    for n in (4, 5, 6, 7, 8):
        for t in all_types(n):
            system = rivin.assemble_constraints(triang.build_link(t, triang.choose_apex(t)))
            for eps in epsilons:
                yield system, eps


def seeded_system(n, seed):
    cfg = geom.random_configuration(n, stats.trial_rng(seed, 0))
    t, _ = geom.close_with_infinity(geom.delaunay(cfg))
    return rivin.assemble_constraints(triang.build_link(t, triang.choose_apex(t)))


def test_array_simplex_matches_scalar_loops_bitwise(monkeypatch):
    def check_feasible_everywhere():
        # the check LP does not depend on epsilon: one per type
        for system, _ in corpus_systems((rivin.DEFAULT_EPSILON,)):
            rivin.check_feasible(system)
        for n in (40, 60):
            for seed in range(3):
                rivin.check_feasible(seeded_system(n, seed))
                rivin.check_feasible(seeded_system(n, seed), verdict_only=True)

    # the small LPs minimize c.x: the solver maximizes -c.x
    lps = [((-c, *rest), {}) for c, *rest in random_lps() + degenerate_lps()]
    lps += recorded_lps(check_feasible_everywhere)
    # No LP here has 50 degenerate pivots in a row (the longest run is 11);
    # a run of 2 sends 32 of the 135 through the Bland fallback as well.  The
    # six verdict-only LPs stop early, and the reference stops with them.
    for run in (simplex._DEGENERATE_RUN, 2):
        monkeypatch.setattr(simplex, "_DEGENERATE_RUN", run)
        statuses = set()
        for args, kwargs in lps:
            ref, ref_pivots = full_tableau_solve(*args, **kwargs)
            res, pivots = solve_counting(args, kwargs)
            assert res.status == ref.status
            assert pivots == ref_pivots
            assert res.phase1_objective == ref.phase1_objective
            assert res.objective == ref.objective
            if ref.x is None:
                assert res.x is None
            else:
                assert res.x.tobytes() == ref.x.tobytes()
            statuses.add(res.status)
        assert statuses == {"optimal", "target", "infeasible", "unbounded"}


# Chvatal's cycling example (Linear Programming, 1983, ch. 3): Dantzig
# pricing with the smallest-index leaving rule returns to its first basis
# after six degenerate pivots.
CHVATAL_LP = (
    [10.0, -57.0, -9.0, -24.0],
    np.zeros((0, 4)),
    np.zeros(0),
    [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_simplex_terminates_on_chvatal_cycling_lp():
    res = simplex.solve(*CHVATAL_LP)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_dantzig_without_bland_fallback_cycles_on_chvatal_lp(monkeypatch):
    # the fallback is what ends the cycle: switched off, the pivot cap trips
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 200)
    with pytest.raises(simplex.NumericalFailure):
        simplex.solve(*CHVATAL_LP)


def test_dantzig_pricing_needs_fewer_pivots_at_n40(monkeypatch):
    system = seeded_system(40, 0)
    (args, kwargs), = recorded_lps(lambda: rivin.check_feasible(system))
    res, pivots = solve_counting(args, kwargs)
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 0)  # Bland's rule throughout
    ref, bland_pivots = solve_counting(args, kwargs)
    assert res.status == ref.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-12)
    assert pivots < 0.6 * bland_pivots


# -- the two-LP check_feasible, kept as the reference for the compact LP -----


def two_lp_check_feasible(system, epsilon):
    """Zero-objective feasibility LP on P, then a centering LP with explicit
    lower-bound rows t - theta_c <= 0."""
    A_eq, b_eq, A_ub, b_ub = system.A_eq, system.b_eq, system.A_ub, system.b_ub
    n = system.n_vars
    res = simplex.solve(np.zeros(n), A_eq, b_eq, A_ub, b_ub)
    if res.status == "infeasible":
        return rivin.RealizabilityResult(
            False, system, None, float(res.phase1_objective), float("nan")
        )
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
    res2 = simplex.solve(c2, A_eq2, b_eq, np.vstack(rows), np.concatenate(rhs))
    assert res2.status == "optimal"
    t = float(res2.x[-1])
    if t < epsilon:
        return rivin.RealizabilityResult(False, system, None, epsilon - t, t)
    return rivin.RealizabilityResult(True, system, res2.x[:n], 0.0, t)


def test_compact_check_feasible_matches_two_lp_version():
    verdicts = set()
    for system, eps in corpus_systems((1e-6, 0.3, 1.1)):
        ref = two_lp_check_feasible(system, eps)
        res = rivin.check_feasible(system, eps)
        assert res.realizable == ref.realizable
        verdicts.add(res.realizable)
        assert res.min_slack == pytest.approx(ref.min_slack, abs=1e-12)
        if res.realizable:
            min_slack, eq_res = witness_slacks(system, 0.0, res.witness)
            assert min_slack >= res.min_slack - 1e-12
            assert eq_res < 1e-9
        else:
            assert res.witness is None
            assert res.certificate == pytest.approx(ref.certificate, rel=1e-12)
    assert verdicts == {True, False}


# -- the LP with every corner a variable, kept as the reference for the reduced LP


def full_form_check_feasible(system, epsilon):
    """check_feasible's LP on P's own arrays: every corner a variable, every
    triangle an equality row."""
    A_eq, A_ub, n = system.A_eq, system.A_ub, system.n_vars
    A_eq2 = np.hstack([A_eq, A_eq.sum(axis=1, keepdims=True)])
    A_ub2 = np.hstack([A_ub, A_ub.sum(axis=1, keepdims=True) + 1.0])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = simplex.solve(c, A_eq2, system.b_eq, A_ub2, system.b_ub)
    if res.status == "infeasible":
        return rivin.RealizabilityResult(
            False, system, None, float(res.phase1_objective), float("nan")
        )
    assert res.status == "optimal"
    t = float(res.x[-1])
    if t < epsilon:
        return rivin.RealizabilityResult(False, system, None, epsilon - t, t)
    return rivin.RealizabilityResult(True, system, res.x[:n] + t, 0.0, t)


def flip_walk_systems():
    """Links at three apexes of 30 random flip walks with n = 8..22."""
    rng = np.random.default_rng(21)
    for walk in range(30):
        t = flip_walk(8 + walk % 15, walk)
        for apex in rng.choice(t.n, 3, replace=False):
            yield rivin.assemble_constraints(triang.build_link(t, int(apex)))


def test_reduced_lp_matches_full_form():
    systems = [seeded_system(n, seed) for n in range(16, 41, 4) for seed in range(3)]
    systems += list(flip_walk_systems())
    # the triakis tetrahedron (t* = 0) and n = 11 #1189 (P empty)
    for t in (all_types(8)[11], triang.validate(11, N11_EMPTY_POLYTOPE)):
        systems.append(rivin.is_realizable(t).system)
    verdicts, kept_rows = set(), 0
    for system in systems:
        ref = full_form_check_feasible(system, rivin.DEFAULT_EPSILON)
        (args, kwargs), = recorded_lps(lambda: rivin.check_feasible(system))
        res = rivin.check_feasible(system)
        # every right-hand side is >= 0, and each inequality's is pi or 0
        _, _, b_eq, _, b_ub = args
        assert b_eq.min(initial=0.0) >= 0.0
        assert set(b_ub.tolist()) <= {0.0, math.pi}
        kept_rows += len(system.link.bounded_faces) - len(rivin._eliminated(system))
        assert res.realizable == ref.realizable
        verdicts.add("empty" if math.isnan(ref.min_slack) else res.realizable)
        if math.isnan(ref.min_slack):
            assert math.isnan(res.min_slack)
            assert res.certificate == pytest.approx(ref.certificate, abs=1e-12)
            continue
        assert res.min_slack == pytest.approx(ref.min_slack, abs=1e-12)
        if res.realizable:
            assert_witness_on_polytope(system, res)
        else:
            assert res.certificate == pytest.approx(ref.certificate, abs=1e-12)
    assert verdicts == {True, False, "empty"}
    assert kept_rows > 0  # some triangle keeps its equality row


def test_random_vertices_match_full_form(monkeypatch):
    # random_interior_points' LP vertices against max c.theta on P's own
    # arrays, with the same standard-normal objectives; it builds the reduced
    # LP once for all of them
    vertices, built = [], []
    lp_on_p = rivin._lp_on_p

    def recording(system):
        solve = lp_on_p(system)
        built.append(system)

        def recorded(*args):
            res, theta = solve(*args)
            vertices.append(theta)
            return res, theta

        return recorded

    monkeypatch.setattr(rivin, "_lp_on_p", recording)
    for n in range(8, 41, 4):
        for seed in range(2):
            system = seeded_system(n, seed)
            lps = recorded_lps(lambda: rivin.check_feasible(system))
            res = rivin.check_feasible(system)
            assert res.realizable
            vertices.clear()
            built.clear()
            lps += recorded_lps(
                lambda: rivin.random_interior_points(res, 3, np.random.default_rng(seed))
            )
            assert len(built) == 1 and built[0] is system
            assert len(vertices) == 8
            # no library LP runs on P's full arrays
            columns = system.n_vars - len(rivin._eliminated(system)) + 1
            assert [len(args[0]) for args, _ in lps] == [columns] * 9
            rng = np.random.default_rng(seed)
            for theta in vertices:
                c = rng.standard_normal(system.n_vars)
                ref = simplex.solve(c, system.A_eq, system.b_eq, system.A_ub, system.b_ub)
                assert ref.status == "optimal"
                assert np.max(np.abs(theta - ref.x)) <= 1e-12, (n, seed)
