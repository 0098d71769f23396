"""Geometric pipeline: sphere sampling, stereographic projection, planar
Delaunay triangulations, angle extraction, configuration volume, layout
reconstruction from angles, and ball-model conversions for export.

Conventions: the point at infinity is the north pole (0, 0, 1); the fixed
finite vertices are 0 (south pole) and 1 (the point (1, 0, 0)).  The point
at infinity is always the last vertex of a configuration, so closing a
planar triangulation labels the apex with the highest id.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, specfun, triang
from .errors import DegenerateSample, DegenerateTriangle, LayoutInconsistent

MIN_SEPARATION = 1e-6


def sample_sphere(count, rng):
    """Uniform points on the unit sphere: z ~ U[-1, 1], azimuth ~ U[0, 2pi).

    One ``rng.random(2 * count)`` call: point i takes z from double 2i and its
    azimuth from double 2i + 1 with the arithmetic of ``rng.uniform``, so a
    block holds the points that ``count`` draws of one point each would give.
    The roots and trigonometry are libm's (``math``): numpy's SIMD ones differ
    from it in the last bit on some points.
    """
    u = rng.random(2 * count).tolist()
    out = []
    for i in range(0, 2 * count, 2):
        z = -1.0 + 2.0 * u[i]
        phi = 2.0 * math.pi * u[i + 1]
        r = math.sqrt(max(0.0, 1.0 - z * z))
        out.append((r * math.cos(phi), r * math.sin(phi), z))
    return np.array(out).reshape(count, 3)


def stereographic(p):
    """Projection from the north pole: (x, y, z) -> (x + iy)/(1 - z).

    Returns None for the north pole itself (the point at infinity).
    """
    x, y, z = p
    if 1.0 - z < 1e-15:
        return None
    return complex(x, y) / (1.0 - z)


def inverse_stereographic(w):
    """Extended complex plane back to the unit sphere; None means infinity."""
    if w is None:
        return (0.0, 0.0, 1.0)
    r2 = w.real * w.real + w.imag * w.imag
    d = r2 + 1.0
    return (2.0 * w.real / d, 2.0 * w.imag / d, (r2 - 1.0) / d)


@dataclass(frozen=True)
class PointConfiguration:
    """Ideal vertex positions: finite points plus one point at infinity.

    The infinity vertex is implicitly the last one, so vertex i < len(finite)
    sits at finite[i] and vertex len(finite) at infinity.
    """

    finite: tuple  # complex positions

    @property
    def n(self):
        return len(self.finite) + 1

    @property
    def infinity_index(self):
        return len(self.finite)


def make_configuration(finite_points):
    """Degenerate points (fewer than 3, duplicate or collinear) are rejected
    by ``delaunay``, which every configuration passes through."""
    return PointConfiguration(finite=tuple(complex(w) for w in finite_points))


def random_configuration(n, rng):
    """n ideal vertices: 0, 1, infinity fixed, n - 3 uniform sphere samples.

    Candidates come in blocks of ``sample_sphere``, one point per vertex still
    missing, and are read in order, so the generator yields the doubles that
    drawing one point at a time would. A candidate closer than MIN_SEPARATION
    to an existing finite point (or at the north pole) is replaced by the
    next one, up to 100 attempts per vertex.
    """
    if n < 4:
        raise DegenerateSample(f"need n >= 4, got {n}")
    finite = [complex(0.0, 0.0), complex(1.0, 0.0)]
    rejected = 0  # consecutive rejections for the vertex being placed
    while len(finite) < n - 1:
        for p in sample_sphere(n - 1 - len(finite), rng).tolist():
            w = stereographic(p)
            if w is not None and all(abs(w - q) > MIN_SEPARATION for q in finite):
                finite.append(w)
                rejected = 0
                continue
            rejected += 1
            if rejected == 100:
                raise DegenerateSample("resampling budget exhausted")
    return PointConfiguration(finite=tuple(finite))


@dataclass(frozen=True)
class PlanarTriangulation:
    points: tuple  # complex, indexed by vertex id
    triangles: tuple  # counterclockwise triples, canonically ordered
    hull: tuple  # counterclockwise hull cycle, starting at min vertex


def delaunay(config):
    """Delaunay triangulation of the finite points.

    Incremental insertion with Lawson flips; cocircular ties are resolved
    deterministically by insertion order.
    """
    xs = [w.real for w in config.finite]
    ys = [w.imag for w in config.finite]
    try:
        tris, hull = _kernels.delaunay_triangles(xs, ys)
    except ValueError as exc:
        raise DegenerateSample(str(exc)) from exc
    return PlanarTriangulation(
        points=config.finite, triangles=tuple(tris), hull=tuple(hull)
    )


def euclidean_angles(pt):
    """Euclidean corner angles of every bounded triangle, shape (T, 3)."""
    xs = [w.real for w in pt.points]
    ys = [w.imag for w in pt.points]
    try:
        rows = _kernels.triangle_angles(xs, ys, list(pt.triangles))
    except ValueError as exc:
        raise DegenerateTriangle(str(exc)) from exc
    return np.array(rows)


def cone(pt):
    """The validated sphere triangulation of a planar triangulation coned
    from a new vertex, the point at infinity, joined to every hull vertex.

    The point at infinity is vertex ``len(pt.points)``, and the input
    triangles are the first faces, in order.
    """
    m = len(pt.points)
    faces = [tuple(f) for f in pt.triangles]
    hull = pt.hull
    k = len(hull)
    for i in range(k):
        u = hull[i]
        v = hull[(i + 1) % k]
        faces.append((v, u, m))
    return triang.validate(m + 1, faces)


def infinity_link(t, pt):
    """The link of the point at infinity in ``t = cone(pt)``, whose bounded
    faces reproduce the input triangles in order."""
    link = triang.build_link(t, len(pt.points))
    assert link.bounded_faces == pt.triangles
    return link


def close_with_infinity(pt):
    """Cone a planar triangulation to a sphere triangulation.

    Returns the validated triangulation (``cone``) together with the link of
    the point at infinity (``infinity_link``).
    """
    t = cone(pt)
    return t, infinity_link(t, pt)


def config_volume(config):
    """Hyperbolic volume of the ideal polyhedron spanned by a configuration:
    the Lobachevsky sum over the corner angles of its Delaunay triangulation.
    """
    return specfun.lobachevsky_sum(euclidean_angles(delaunay(config)))


@dataclass(frozen=True)
class LayoutResult:
    positions: dict  # parent vertex id -> complex position
    residual: float  # max disagreement between alternative placements
    triangulation: PlanarTriangulation  # positions reindexed 0..m-1


def layout(link, angles):
    """Reconstruct vertex positions from feasible corner angles, indexed by
    the link's flat corner ids (any shape, read in row-major order).

    Places the lexicographically smallest bounded face with its first edge on
    0 -> 1, then walks faces breadth-first across shared interior edges,
    placing each new third vertex by the law of sines.  Vertices reached
    along several paths must agree within 1e-6 (the closure residual), else
    LayoutInconsistent is raised.
    """
    th = np.asarray(angles, dtype=float).reshape(-1)  # indexed by flat corner id
    faces = link.bounded_faces
    root = min(range(len(faces)), key=lambda f: faces[f])

    pos = {}
    residual = 0.0

    def place(v, w):
        nonlocal residual
        if v in pos:
            residual = max(residual, abs(pos[v] - w))
        else:
            pos[v] = w

    def third_vertex(f, u, v):
        """Place the corner of face f opposite its directed edge (u, v)."""
        i = faces[f].index(u)
        assert faces[f][(i + 1) % 3] == v
        w = faces[f][(i + 2) % 3]
        tp, tq, tw = (th[3 * f + (i + k) % 3] for k in range(3))
        pu, pv = pos[u], pos[v]
        scale = abs(pv - pu) * math.sin(tq) / math.sin(tw)
        direction = (pv - pu) / abs(pv - pu)
        place(w, pu + scale * direction * complex(math.cos(tp), math.sin(tp)))

    a, b, c = faces[root]
    pos[a] = complex(0.0, 0.0)
    pos[b] = complex(1.0, 0.0)
    third_vertex(root, a, b)

    done = {root}
    queue = [root]
    while queue:
        f = queue.pop(0)
        fa, fb, fc = faces[f]
        for u, v in ((fa, fb), (fb, fc), (fc, fa)):
            for g in [c // 3 for c in link.opposite[triang.edge_key(u, v)]]:
                if g not in done:
                    # g holds the reversed directed edge (v, u)
                    third_vertex(g, v, u)
                    done.add(g)
                    queue.append(g)

    if residual > 1e-6:
        raise LayoutInconsistent(
            f"closure residual {residual:g} exceeds 1e-6: angles are not "
            "consistently realizable"
        )
    vertices = tuple(sorted(pos))
    if len(done) != len(faces):
        raise LayoutInconsistent("bounded faces are not edge-connected")
    index = {v: i for i, v in enumerate(vertices)}
    pt = PlanarTriangulation(
        points=tuple(pos[v] for v in vertices),
        triangles=tuple(tuple(index[v] for v in f) for f in faces),
        hull=(),
    )
    return LayoutResult(positions=pos, residual=residual, triangulation=pt)
