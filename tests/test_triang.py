import numpy as np
import pytest

from idealpoly import geom, stats, triang
from idealpoly.errors import (
    DegenerateFace,
    Disconnected,
    EulerViolation,
    InvalidVertex,
    NonManifoldEdge,
)

from catalog import all_types

TETRA_FACES = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]


def test_validate_tetrahedron():
    t = triang.validate(4, TETRA_FACES)
    assert t.n == 4
    assert len(t.faces) == 4
    assert t.degrees() == [3, 3, 3, 3]
    assert len(t.edges()) == 6


def test_validate_octahedron():
    t = triang.octahedron()
    assert len(t.faces) == 2 * 6 - 4
    assert t.degrees() == [4] * 6


def test_missing_face_is_euler_violation():
    with pytest.raises(EulerViolation):
        triang.validate(4, TETRA_FACES[:3])


def test_flipped_face_is_non_manifold():
    bad = [f[:] for f in TETRA_FACES]
    bad[3] = [2, 3, 1]  # reversed orientation duplicates directed edges
    with pytest.raises(NonManifoldEdge):
        triang.validate(4, bad)


def test_degenerate_face_rejected():
    bad = [f[:] for f in TETRA_FACES]
    bad[0] = [0, 0, 1]
    with pytest.raises(DegenerateFace):
        triang.validate(4, bad)


@pytest.mark.parametrize(
    "vertex",
    [1.9, 1.0, "1", True, np.True_, None],
    ids=["float", "integral-float", "str", "bool", "numpy-bool", "none"],
)
def test_non_integer_vertex_rejected(vertex):
    # int() would truncate 1.9, parse "1" and read True as 1
    bad = [f[:] for f in TETRA_FACES]
    bad[0][1] = vertex
    with pytest.raises(DegenerateFace, match="not a list of integer vertices"):
        triang.validate(4, bad)


def test_numpy_integer_vertices_accepted():
    t = triang.validate(4, np.array(TETRA_FACES, dtype=np.int32))
    assert t == triang.tetrahedron()
    assert all(type(v) is int for f in t.faces for v in f)


def test_disconnected_rejected():
    # tetrahedron plus a 7-vertex torus: 18 faces and 27 edges match the
    # n=11 sphere counts exactly, so only the connectivity walk can object
    torus = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    torus += [(i, (i + 3) % 7, (i + 2) % 7) for i in range(7)]
    faces = [[v + 7 for v in f] for f in TETRA_FACES]
    faces += [list(f) for f in torus]
    with pytest.raises(Disconnected):
        triang.validate(11, faces)


def test_choose_apex_prefers_degree_then_id():
    t = triang.tetrahedron()
    assert triang.choose_apex(t) == 0
    assert triang.choose_apex(triang.octahedron()) == 0
    # bipyramid with equator {0, 1, 2} at degree 4
    t = triang.validate(
        5, [(3, 0, 1), (3, 1, 2), (3, 2, 0), (4, 1, 0), (4, 2, 1), (4, 0, 2)]
    )
    assert t.degrees() == [4, 4, 4, 3, 3]
    assert triang.choose_apex(t) == 0


def _hull_edge_count(link):
    return sum(len(cs) == 1 for cs in link.opposite.values())


def test_build_link_tetrahedron():
    link = triang.build_link(triang.tetrahedron(), 3)
    assert link.bounded_faces == ((0, 1, 2),)
    assert len(link.hull_cycle) == 3
    assert link.interior_vertices == ()
    assert link.interior_edges == ()
    assert _hull_edge_count(link) == 3


def test_build_link_octahedron():
    t = triang.octahedron()
    for apex in range(6):
        link = triang.build_link(t, apex)
        assert len(link.bounded_faces) == 4
        assert len(link.interior_vertices) == 1
        assert len(link.interior_edges) == 4
        assert _hull_edge_count(link) == 4


def test_build_link_bipyramid_degree3_apex():
    link = triang.build_link(triang.bipyramid(), 0)
    assert len(link.bounded_faces) == 3
    assert link.interior_vertices == (4,)
    assert len(link.interior_edges) == 3
    assert _hull_edge_count(link) == 3


def test_build_link_counting_invariants():
    for t in all_types(7):
        deg = t.degrees()
        for apex in range(t.n):
            link = triang.build_link(t, apex)
            assert len(link.bounded_faces) == (2 * t.n - 4) - deg[apex]
            assert len(link.interior_vertices) + len(link.hull_cycle) + 1 == t.n
            for e in link.interior_edges:
                assert len(link.opposite[e]) == 2
            # the edges with one opposite corner are exactly the hull cycle's
            cyc = link.hull_cycle
            hull = {triang.edge_key(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])}
            assert {e for e, cs in link.opposite.items() if len(cs) == 1} == hull
            # corners are flat ids 3 * face + slot
            for v, corners in link.corners_at.items():
                for c in corners:
                    assert type(c) is int
                    assert link.bounded_faces[c // 3][c % 3] == v
            for e, corners in link.opposite.items():
                for c in corners:
                    face = link.bounded_faces[c // 3]
                    assert set(e) <= set(face) and face[c % 3] not in e
                # the faces across e in face order, as geom.layout walks them
                on_e = [f for f, face in enumerate(link.bounded_faces) if set(e) <= set(face)]
                assert [c // 3 for c in corners] == on_e


def test_build_link_invalid_vertex():
    with pytest.raises(InvalidVertex):
        triang.build_link(triang.tetrahedron(), 7)


def test_automorphism_counts():
    assert triang.automorphism_counts(triang.tetrahedron()) == triang.AutomorphismCounts(
        orientation_preserving=12, total=24
    )
    assert triang.automorphism_counts(triang.octahedron()) == triang.AutomorphismCounts(
        orientation_preserving=24, total=48
    )
    assert triang.automorphism_counts(triang.bipyramid()).orientation_preserving == 6


def test_trivial_symmetry_triangulation():
    # an 8-vertex type with no symmetry at all (found by scanning the catalog)
    for t in all_types(8):
        if triang.automorphism_counts(t).total == 1:
            break
    else:
        pytest.fail("expected at least one asymmetric 8-vertex type")


def test_automorphisms_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    for t in (triang.tetrahedron(), triang.bipyramid(), triang.octahedron()):
        base = triang.automorphism_counts(t)
        for _ in range(5):
            perm = rng.permutation(t.n)
            faces = [[int(perm[v]) for v in f] for f in t.faces]
            relabeled = triang.validate(t.n, faces)
            assert triang.automorphism_counts(relabeled) == base


def test_canonical_form_detects_isomorphism():
    rng = np.random.default_rng(6)
    t = triang.octahedron()
    key = triang.canonical_form(t)
    for _ in range(5):
        perm = rng.permutation(6)
        faces = [[int(perm[v]) for v in f] for f in t.faces]
        assert triang.canonical_form(triang.validate(6, faces)) == key
    other = all_types(6)[0]
    if triang.canonical_form(other) == key:
        other = all_types(6)[1]
    assert triang.canonical_form(other) != key


def test_type_counts_small_n():
    # OEIS A000109 (Brinkmann & McKay 2007): the flip census misses no type
    counts = [len(all_types(n)) for n in (4, 5, 6, 7, 8, 9, 10)]
    assert counts == [1, 1, 2, 5, 14, 50, 233]


def test_flips_and_stacks_pass_validate():
    # flip_edge and stack_on_face build their result without validate: it
    # must accept every one of them unchanged
    count = 0
    for n in range(4, 9):
        for t in all_types(n):
            built = [triang.flip_edge(t, e) for e in t.edges()]
            built += [triang.stack_on_face(t, i) for i in range(len(t.faces))]
            for b in built:
                if b is not None:
                    assert triang.validate(b.n, b.faces) == b
                    count += 1
    assert count == 470


def test_euler_relation_over_corpus():
    for n in (4, 5, 6, 7):
        for t in all_types(n):
            v, e, f = t.n, len(t.edges()), len(t.faces)
            assert v - e + f == 2
            assert e == 3 * t.n - 6
            assert f == 2 * t.n - 4


# Differential test of the dart codes. _ref_canonical_form and
# _ref_automorphism_counts are the routines the codes replaced: a breadth-first
# relabeling over tuple darts that runs to the end from every start dart, and
# a flag extension that tries every image of one base dart under the rotation
# (orientation-preserving) and its inverse (orientation-reversing).


def _ref_darts(t):
    darts = []
    nxt = {}
    for a, b, c in t.faces:
        darts.extend(((a, b), (b, c), (c, a)))
        nxt[(a, b)] = (b, c)
        nxt[(b, c)] = (c, a)
        nxt[(c, a)] = (a, b)
    return sorted(darts), nxt


def _ref_extends(base, image, nxt_src, nxt_img):
    phi = {base: image}
    stack = [base]
    while stack:
        x = stack.pop()
        fx = phi[x]
        for y, z in ((nxt_src[x], nxt_img[fx]), ((x[1], x[0]), (fx[1], fx[0]))):
            known = phi.get(y)
            if known is None:
                phi[y] = z
                stack.append(y)
            elif known != z:
                return False
    return True


def _ref_automorphism_counts(t):
    darts, nxt = _ref_darts(t)
    prv = {v: k for k, v in nxt.items()}
    op = sum(1 for d in darts if _ref_extends(darts[0], d, nxt, nxt))
    rev = sum(1 for d in darts if _ref_extends(darts[0], d, nxt, prv))
    return triang.AutomorphismCounts(orientation_preserving=op, total=op + rev)


def _ref_canonical_form(t):
    darts, nxt = _ref_darts(t)
    best = None
    for d0 in darts:
        labels = {}
        order = [d0]
        seen = {d0}
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for v in x:
                if v not in labels:
                    labels[v] = len(labels)
            for y in (nxt[x], (x[1], x[0])):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        relabeled = []
        for a, b, c in t.faces:
            f = (labels[a], labels[b], labels[c])
            while f[0] != min(f):
                f = (f[1], f[2], f[0])
            relabeled.append(f)
        cand = tuple(sorted(relabeled))
        if best is None or cand < best:
            best = cand
    return best


def _relabeled(t, rng):
    """The same type under a random vertex permutation, face order and
    rotation of each face."""
    perm = rng.permutation(t.n)
    faces = []
    for f in t.faces:
        k = int(rng.integers(3))
        faces.append([int(perm[v]) for v in (f * 2)[k : k + 3]])
    order = rng.permutation(len(faces))
    return triang.validate(t.n, [faces[i] for i in order])


def _code_corpus():
    types = [t for n in range(4, 10) for t in all_types(n)]
    for n in (5, 8, 12, 20, 40):
        for i in range(4):
            cfg = geom.random_configuration(n, stats.trial_rng(1000 + n, i))
            types.append(geom.close_with_infinity(geom.delaunay(cfg))[0])
    rng = np.random.default_rng(9)
    return types + [_relabeled(t, rng) for t in types[::3]]


def test_dart_codes_match_reference_routines():
    for t in _code_corpus():
        key = triang.canonical_form(t)
        assert key == _ref_canonical_form(t)
        assert triang.canonical_form_full(t) == min(
            key, _ref_canonical_form(triang.mirror(t))
        )
        assert triang.automorphism_counts(t) == _ref_automorphism_counts(t)


# Frozen oracle: the dart codes as they were before faces were encoded as
# integers, with tuple faces, a list of seen flags and parallel dart lists.
# The integer codes must give the same canonical forms and counts.


def _frozen_codes(t):
    n = t.n
    faces = t.faces
    tail = [v for f in faces for v in f]
    nxt = [d + 1 if d % 3 < 2 else d - 2 for d in range(len(tail))]
    head = [tail[d] for d in nxt]
    dart = {(u, v): d for d, (u, v) in enumerate(zip(tail, head))}
    rev = [dart[v, u] for u, v in zip(tail, head)]
    for d0 in range(len(tail)):
        label = [-1] * n
        seen = [False] * len(tail)
        seen[d0] = True
        order = [d0]
        count = 0
        for x in order:
            for v in (tail[x], head[x]):
                if label[v] < 0:
                    label[v] = count
                    count += 1
            if count == n:
                break
            for y in (nxt[x], rev[x]):
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
        code = []
        for a, b, c in faces:
            a, b, c = label[a], label[b], label[c]
            if a < b and a < c:
                code.append((a, b, c))
            elif b < c:
                code.append((b, c, a))
            else:
                code.append((c, a, b))
        code.sort()
        yield tuple(code)


def _frozen_canonical_form(t):
    return min(_frozen_codes(t))


def _frozen_automorphism_counts(t):
    codes = list(_frozen_codes(t))
    best = min(codes)
    op = codes.count(best)
    mirrored = _frozen_canonical_form(triang.mirror(t)) == best
    return triang.AutomorphismCounts(
        orientation_preserving=op, total=2 * op if mirrored else op
    )


def test_canonical_form_matches_frozen_oracle_on_all_small_types():
    # the frozen oracle starts from every dart, _codes only from darts at a
    # degree-3 vertex when there is one, and with minimum degree 4 from darts
    # at a degree-4 vertex or whose tail is adjacent to their p
    for n in range(4, 11):
        for t in all_types(n):
            assert triang.canonical_form(t) == _frozen_canonical_form(t)
            mirror = triang.mirror(t)
            assert triang.canonical_form(mirror) == _frozen_canonical_form(mirror)
            assert triang.automorphism_counts(t) == _frozen_automorphism_counts(t)


@pytest.mark.parametrize("n", [12, 40])
def test_canonical_form_matches_frozen_oracle_on_delaunay_types(n):
    for i in range(100):
        cfg = geom.random_configuration(n, stats.trial_rng(2000 + n, i))
        t = geom.close_with_infinity(geom.delaunay(cfg))[0]
        key = triang.canonical_form(t)
        assert type(key) is tuple and all(type(f) is tuple for f in key)
        assert key == _frozen_canonical_form(t)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_degree_three_starts_match_all_darts_on_delaunay_types(n):
    for i in range(100):
        cfg = geom.random_configuration(n, stats.trial_rng(3000 + n, i))
        t = geom.close_with_infinity(geom.delaunay(cfg))[0]
        assert triang.canonical_form(t) == _frozen_canonical_form(t)
        mirror = triang.mirror(t)
        assert triang.canonical_form(mirror) == _frozen_canonical_form(mirror)
        assert triang.automorphism_counts(t) == _frozen_automorphism_counts(t)


def _third_vertex(t, u, v):
    """The third vertex of the face that holds the dart u -> v."""
    for f in t.faces:
        for i in range(3):
            if f[i] == u and f[(i + 1) % 3] == v:
                return f[(i + 2) % 3]
    raise KeyError((u, v))


def test_minimum_degree_four_type_starts_at_a_higher_degree():
    # the canonical start u -> v of this type is an exception dart: u has
    # degree 6 or more and is adjacent to p, the third vertex of the face
    # across wv, w the third vertex of the start's face.  Restricting the
    # starts to degree-4 vertices would miss the all-dart minimum
    t = all_types(10)[221]
    degree = t.degrees()
    assert min(degree) == 4
    codes = list(_frozen_codes(t))
    start = codes.index(min(codes))
    u, v, w = (t.faces[start // 3][(start + k) % 3] for k in range(3))
    assert degree[u] >= 6
    p = _third_vertex(t, w, v)
    assert any(u in f and p in f for f in t.faces)
    degree_four = [c for d, c in enumerate(codes) if degree[t.faces[d // 3][d % 3]] == 4]
    assert min(degree_four) > min(codes)
    assert triang.canonical_form(t) == _frozen_canonical_form(t)
    assert triang.automorphism_counts(t) == _frozen_automorphism_counts(t)


# Start darts of _codes on cones of the seed-0 n = 12 search, by trial: one
# with a degree-3 vertex (its three darts), the others of minimum degree 4,
# where every dart used to be a start (60).
SEARCH_CONE_STARTS = {0: 12, 1: 3, 2: 16, 5: 20, 19: 8}


def test_minimum_degree_four_cones_start_from_few_darts():
    for trial, starts in SEARCH_CONE_STARTS.items():
        cfg = geom.random_configuration(12, stats.trial_rng(0, trial))
        t = geom.cone(geom.delaunay(cfg))
        assert min(t.degrees()) == (3 if starts == 3 else 4)
        assert len(triang._codes(t)) == starts, trial
        assert triang.canonical_form(t) == _frozen_canonical_form(t)
        assert triang.automorphism_counts(t) == _frozen_automorphism_counts(t)


def test_icosahedron_ties_every_start_dart():
    # the best type of the seed-0 n = 12 search is the regular icosahedron:
    # with every degree 5 every dart is a start, and all 60 codes tie
    r = stats.search_max_volume(12, 100, seed=0)
    t = r.best_result.link.parent
    assert t.degrees() == [5] * 12
    assert len(triang._codes(t)) == 60
    counts = triang.automorphism_counts(t)
    assert counts == triang.AutomorphismCounts(orientation_preserving=60, total=120)
    key = triang.canonical_form(t)
    rng = np.random.default_rng(12)
    for _ in range(5):
        relabeled = _relabeled(t, rng)
        assert triang.canonical_form(relabeled) == key
        assert triang.automorphism_counts(relabeled) == counts


def test_keys_and_counts_are_python_ints():
    # a numpy int in a key would read np.int64(...) in its repr, which moves
    # every type hash, and would not serialize in the automorphisms JSON
    cfg = geom.random_configuration(12, stats.trial_rng(0, 0))
    for t in (triang.octahedron(), geom.cone(geom.delaunay(cfg))):
        for key in (triang.canonical_form(t), triang.canonical_form_full(t)):
            assert all(type(v) is int for f in key for v in f)
        counts = triang.automorphism_counts(t)
        assert type(counts.orientation_preserving) is int
        assert type(counts.total) is int
