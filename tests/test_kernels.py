"""Kernel checks that no other module's tests reach: the reported backend,
Delaunay above the old 128-point cap and against the edge-map kernel it
replaced, and Milnor's identity for the Lobachevsky series."""

import collections
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealpoly import _kernels, geom, specfun, stats


def test_backend_reported():
    assert _kernels.BACKEND == "pure"


def _canonical(tris, xs, ys):
    # counterclockwise, rotated to the smallest vertex, sorted
    out = []
    for a, b, c in tris:
        if _kernels.orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) < 0.0:
            b, c = c, b
        k = (a, b, c).index(min(a, b, c))
        out.append(((a, b, c) * 2)[k : k + 3])
    return sorted(out)


@pytest.mark.parametrize("m", [129, 200])
def test_delaunay_above_128_points_matches_scipy(m):
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(1000 + m)
    pts = rng.uniform(-3.0, 3.0, (m, 2))
    xs = [float(v) for v in pts[:, 0]]
    ys = [float(v) for v in pts[:, 1]]
    tris, _ = _kernels.delaunay_triangles(xs, ys)
    ref = [tuple(int(i) for i in s) for s in spatial.Delaunay(pts).simplices]
    assert tris == _canonical(ref, xs, ys)
    config = geom.make_configuration([complex(x, y) for x, y in zip(xs, ys)])
    volume = geom.config_volume(config)
    assert math.isfinite(volume) and volume > 0.0


def _milnor_gap(n, theta):
    # Milnor 1982: L(n theta) = n * sum_{k<n} L(theta + k pi / n)
    lob = specfun.lobachevsky
    rhs = n * sum(lob(theta + k * math.pi / n) for k in range(n))
    return abs(lob(n * theta) - rhs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 6), theta=st.floats(-4.0, 4.0))
def test_milnor_identity(n, theta):
    assert _milnor_gap(n, theta) <= 1e-12


def test_milnor_identity_near_zero():
    # L(x) ~ x (1 - log 2x) is about 2e-13 here, so zeroing tiny arguments
    # breaks the identity by more than its 1e-12 bound
    assert _milnor_gap(5, 6.591800722809236e-15) <= 1e-12
    assert specfun.lobachevsky(6.591800722809236e-15) > 0.0
    assert specfun.lobachevsky(-0.0) == 0.0
    assert specfun.lobachevsky(math.pi) == 0.0

# Differential test of the Delaunay kernel. _ref_delaunay is the kernel as it
# was before triangle adjacency was kept up to date: it rebuilds an undirected
# edge -> triangles map for every popped edge and every hull query. It counts
# the branches it takes in _REF_BRANCHES, so the corpus can show that it
# reaches on-edge insertion and cocircular ties.

_TOL = _kernels.GEOM_TOL
_REF_BRANCHES = collections.Counter()


def _ref_edge_map(tris):
    # undirected edge -> list of triangle indices
    emap = {}
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            emap.setdefault(key, []).append(t)
    return emap


def _ref_delaunay(xs, ys):
    m = len(xs)
    if m < 3:
        raise ValueError("need at least 3 points")
    for i in range(m):
        for j in range(i + 1, m):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx * dx + dy * dy < 1e-18:
                raise ValueError("duplicate points")

    first = -1
    for j in range(2, m):
        if abs(_kernels.orient2d(xs[0], ys[0], xs[1], ys[1], xs[j], ys[j])) > _TOL:
            first = j
            break
    if first < 0:
        raise ValueError("collinear points")

    if _kernels.orient2d(xs[0], ys[0], xs[1], ys[1], xs[first], ys[first]) > 0.0:
        tris = [(0, 1, first)]
    else:
        tris = [(1, 0, first)]

    max_flips = 8 * m * m + 64
    flips = 0

    def legalize(stack):
        nonlocal flips
        while stack:
            u, v = stack.pop()
            key = (u, v) if u < v else (v, u)
            emap = _ref_edge_map(tris)
            owners = emap.get(key)
            if owners is None or len(owners) != 2:
                continue
            t1, t2 = owners
            a, b, c = tris[t1]
            # rotate t1 so the shared edge is (a, b)
            for _ in range(3):
                if {a, b} == set(key):
                    break
                a, b, c = b, c, a
            d = [w for w in tris[t2] if w not in key][0]
            det = _kernels.incircle_det(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d])
            _REF_BRANCHES["tie"] += abs(det) <= _TOL
            if det > _TOL:
                flips += 1
                if flips > max_flips:
                    raise ValueError("flip limit exceeded")
                for t in sorted(owners, reverse=True):
                    del tris[t]
                tris.append((a, d, c))
                tris.append((d, b, c))
                stack.extend([(a, d), (d, b), (b, c), (c, a)])

    def hull_cycle():
        emap = _ref_edge_map(tris)
        succ = {}
        for a, b, c in tris:
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                if len(emap[key]) == 1:
                    succ[u] = v
        start = min(succ)
        cyc = [start]
        w = succ[start]
        while w != start:
            cyc.append(w)
            w = succ[w]
        return cyc

    order = [j for j in range(2, m) if j != first]
    for p in order:
        px = xs[p]
        py = ys[p]
        placed = False
        on_edge = None
        for t, (a, b, c) in enumerate(tris):
            o1 = _kernels.orient2d(xs[a], ys[a], xs[b], ys[b], px, py)
            o2 = _kernels.orient2d(xs[b], ys[b], xs[c], ys[c], px, py)
            o3 = _kernels.orient2d(xs[c], ys[c], xs[a], ys[a], px, py)
            if o1 > _TOL and o2 > _TOL and o3 > _TOL:
                del tris[t]
                tris.append((a, b, p))
                tris.append((b, c, p))
                tris.append((c, a, p))
                _REF_BRANCHES["inside"] += 1
                legalize([(a, b), (b, c), (c, a)])
                placed = True
                break
            if o1 >= -_TOL and o2 >= -_TOL and o3 >= -_TOL:
                # on (or numerically on) one edge of this triangle
                if abs(o1) <= _TOL:
                    on_edge = (a, b, c)
                elif abs(o2) <= _TOL:
                    on_edge = (b, c, a)
                else:
                    on_edge = (c, a, b)
                break
        if placed:
            continue
        if on_edge is not None:
            a, b, c = on_edge  # p sits on edge (a, b); c is the far corner
            _REF_BRANCHES["on_edge"] += 1
            key = (a, b) if a < b else (b, a)
            emap = _ref_edge_map(tris)
            owners = emap[key]
            stack = []
            for t in sorted(owners, reverse=True):
                ta, tb, tc = tris[t]
                for _ in range(3):
                    if {ta, tb} == set(key):
                        break
                    ta, tb, tc = tb, tc, ta
                del tris[t]
                tris.append((ta, p, tc))
                tris.append((p, tb, tc))
                stack.extend([(ta, tc), (tb, tc)])
            legalize(stack)
            continue
        # outside the hull: attach to every strictly visible hull edge
        cyc = hull_cycle()
        _REF_BRANCHES["outside"] += 1
        k = len(cyc)
        stack = []
        added = False
        for i in range(k):
            u = cyc[i]
            v = cyc[(i + 1) % k]
            if _kernels.orient2d(xs[u], ys[u], xs[v], ys[v], px, py) < -_TOL:
                tris.append((v, u, p))
                stack.append((u, v))
                added = True
        if not added:
            raise ValueError("point insertion failed (degenerate geometry)")
        legalize(stack)

    canon = []
    for a, b, c in tris:
        if a < b and a < c:
            canon.append((a, b, c))
        elif b < c and b < a:
            canon.append((b, c, a))
        else:
            canon.append((c, a, b))
    canon.sort()
    return canon, hull_cycle()


def _outcome(kernel, xs, ys):
    try:
        return kernel(list(xs), list(ys))
    except ValueError as exc:
        return ("ValueError", str(exc))


def _split(points):
    return [float(p[0]) for p in points], [float(p[1]) for p in points]


def _near_pole(rng, n, lo):
    # stereographic images of points with 1 - z = 10**U(lo, 0), so planar
    # coordinates reach about sqrt(2e7) ~ 4.5e3 at lo = -7
    finite = [0.0, 1.0]
    for _ in range(n - 3):
        gap = 10.0 ** rng.uniform(lo, 0.0)
        z = 1.0 - gap
        r = math.sqrt(1.0 - z * z)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        finite.append(geom.stereographic((r * math.cos(phi), r * math.sin(phi), z)))
    return _split([(w.real, w.imag) for w in finite])


def _shuffled(rng, points):
    points = list(points)
    rng.shuffle(points)
    return _split(points)


def _corpus():
    rng = random.Random(6)
    cases = {}
    for n, count in ((5, 60), (8, 60), (12, 40), (30, 8), (60, 3)):
        configs = [geom.random_configuration(n, stats.trial_rng(0, i)) for i in range(count)]
        cases[f"random-n{n}"] = [_split([(w.real, w.imag) for w in c.finite]) for c in configs]
    cases["near-pole"] = [_near_pole(rng, n, lo) for n in (8, 12, 30) for lo in (-7.0, -4.0) for _ in range(8)]
    cases["grid"] = [
        _shuffled(rng, [(x, y) for x in range(k) for y in range(k)]) for k in range(2, 7) for _ in range(12)
    ]
    # on a unit circle the incircle rounding stays below GEOM_TOL (exact ties);
    # at radius 1e2 and 1e4 it does not, so the flip order decides the result
    circle = []
    for m in (4, 5, 6, 8, 12, 17, 24, 32):
        ring = [(math.cos(2.0 * math.pi * j / m), math.sin(2.0 * math.pi * j / m)) for j in range(m)]
        circle += [_shuffled(rng, ring), _shuffled(rng, ring + [(0.0, 0.0)])]
        circle += [_shuffled(rng, [(r * x, r * y) for x, y in ring]) for r in (1e2, 1e4) for _ in range(2)]
    cases["circle"] = circle
    # a triangle, then points on each hull edge, inside, and on the lines of
    # hull edges beyond their ends
    hull_edge = [(0, 0), (4, 0), (0, 4), (1, 0), (2, 0), (3, 0), (2, 2), (0, 2), (1, 1), (5, 0), (0, -1)]
    cases["hull-edge"] = [_split(hull_edge)] + [_shuffled(rng, hull_edge) for _ in range(12)]
    cases["leading"] = [
        _split([(0, 0), (1, 0), (0.3, -1), (0.5, 0.5), (2, 1), (-1, -1)]),  # clockwise first triple
        _split([(0, 0), (1, 0), (2, 0), (3, 0), (1.5, 1), (1.5, -1), (-1, 0), (4, 0.5)]),
        _split([(0, 0), (1, 1), (2, 2), (0.1, 0.1), (3, 1), (-2, 1)]),  # collinear, rounded
    ]
    cases["invalid"] = [
        _split([(0, 0), (1, 0)]),
        _split([(0, 0), (1, 0), (0, 1), (1, 0)]),  # duplicate
        _split([(0, 0), (1, 0), (0, 1), (1 + 1e-10, 0)]),  # duplicate within 1e-9
        _split([(0, 0), (1, 0), (2, 0), (5, 0)]),  # all collinear
        _split([(0, 0), (1, 1), (2, 2), (0.1, 0.1)]),  # all collinear, rounded
        _split([(0, 0), (1, 0), (0, 1), (math.nan, 0.5)]),
    ]
    return cases


_CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_delaunay_matches_edge_map_reference(name):
    for xs, ys in _CORPUS[name]:
        assert _outcome(_kernels.delaunay_triangles, xs, ys) == _outcome(_ref_delaunay, xs, ys)


def test_differential_corpus_reaches_every_branch():
    _REF_BRANCHES.clear()
    outcomes = [_outcome(_ref_delaunay, xs, ys) for cases in _CORPUS.values() for xs, ys in cases]
    messages = {o[1] for o in outcomes if o[0] == "ValueError"}
    assert messages == {
        "need at least 3 points",
        "duplicate points",
        "collinear points",
        "point insertion failed (degenerate geometry)",
    }
    for branch in ("inside", "on_edge", "outside", "tie"):
        assert _REF_BRANCHES[branch] >= 50, (branch, dict(_REF_BRANCHES))


# Six points within 1e-12 of the x-axis: the hull walk closes a cycle that
# misses one unpaired edge, so the cone over that hull would not be a sphere
# triangulation (validate raises EulerViolation on it).
MISSED_BOUNDARY_EDGE = (
    [-4.96685672872152, -1.392925235665138, 0.02971052362453719,
     -0.4861381978893844, 1.2622645893278595, -4.149082971277794],
    [4.965307404474115e-13, -2.467634702351511e-13, 3.185989786086997e-13,
     2.5553421704233696e-13, -2.1411370280490917e-14, -7.338136041593571e-13],
)


def test_delaunay_degenerate_geometry_raises():
    # Points within 1e-12 of the line y = x / 2, plus one or two off it. The
    # edge-map kernel returned 5 triangles that do not tile the hull of the
    # first, and never returned on the second (its hull walk looped, growing
    # a list).
    overlapping = (
        [-4.9948228461447295, 4.4303035459614275, -0.6209508796865943,
         -4.032504237486969, -3.211534441769656, -4.9295421199131075],
        [-2.497411423072338, 2.2151517729807804, -0.3104754398432721,
         -2.016252118743579, -1.6057672208847373, -1.4428387423643207],
    )
    pinched_hull = (
        [2.1233559182029484, 3.46766142154641, 3.3986307722772153, 3.9756041714746164,
         4.101816032500542, -4.233758012793203, 1.7237893947673557, 2.8233118810421445],
        [1.0616779591011307, 1.7338307107727187, -2.193017986491931, 1.9878020857364367,
         2.0509080162504403, -2.8642845892929603, 0.8618946973836623, 1.411655940520082],
    )
    with pytest.raises(ValueError, match="overlapping triangles"):
        _kernels.delaunay_triangles(*overlapping)
    with pytest.raises(ValueError, match="hull is not a simple cycle"):
        _kernels.delaunay_triangles(*pinched_hull)
    with pytest.raises(ValueError, match=r"hull misses a boundary edge \(degenerate geometry\)"):
        _kernels.delaunay_triangles(*MISSED_BOUNDARY_EDGE)
