"""Kernels: planar Delaunay triangulation and corner angles.

The loops of configuration sampling, one float at a time in plain Python:
the Delaunay triangulation of a configuration's finite points and the
Euclidean corner angles of its triangles.  The Lobachevsky sum over those
angles, the configuration's volume, is ``specfun``'s, re-exported here with
``BACKEND`` for the benchmark, which reads both.

Geometric tolerances are absolute and intended for coordinates of order
1..1e3 in generic position (which is what stereographic projection of
non-degenerate sphere samples produces).
"""

import itertools
import math

from .specfun import lobachevsky_sum  # noqa: F401

BACKEND = "pure"
GEOM_TOL = 1e-12


def orient2d(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def incircle_det(ax, ay, bx, by, cx, cy, dx, dy):
    """Incircle determinant: positive iff d lies inside the circumcircle of
    counterclockwise triangle abc."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )


def delaunay_triangles(xs, ys):
    """Delaunay triangulation by incremental insertion with Lawson flips.

    Returns (triangles, hull): triangles as counterclockwise index triples,
    each rotated to start at its smallest vertex and sorted lexicographically;
    hull as the counterclockwise cycle starting at the smallest hull vertex.

    Cocircular quadruples (incircle determinant within GEOM_TOL of zero) are
    treated as legal, so the diagonal chosen is the one produced by insertion
    in index order: deterministic for a fixed input.

    Triangles are kept in creation order, and every directed edge u -> v maps
    to the triangle that holds it (Guibas & Stolfi 1985), so a flip finds its
    neighbour and the hull its unpaired edges without rebuilding anything.

    Raises ValueError for fewer than 3, duplicate or collinear points, and
    for degenerate geometry: a point that lies in no triangle and sees no
    hull edge, overlapping triangles, a hull that is not a simple cycle, or
    more than 8 m^2 + 64 flips.
    """
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
        if abs(orient2d(xs[0], ys[0], xs[1], ys[1], xs[j], ys[j])) > GEOM_TOL:
            first = j
            break
    if first < 0:
        raise ValueError("collinear points")

    tris = {}  # id -> (a, b, c); ids increase, so iteration is creation order
    owner = {}  # directed edge u * m + v -> id of the triangle holding it
    ids = itertools.count()

    def add(a, b, c):
        t = next(ids)
        tris[t] = (a, b, c)
        owner[a * m + b] = owner[b * m + c] = owner[c * m + a] = t
        if len(owner) != 3 * len(tris):  # a directed edge held twice
            raise ValueError("overlapping triangles (degenerate geometry)")

    def remove(t):
        a, b, c = tris.pop(t)
        del owner[a * m + b], owner[b * m + c], owner[c * m + a]

    def rotated(t, u):
        # triangle t rotated to start at its vertex u
        a, b, c = tris[t]
        return (a, b, c) if a == u else (b, c, a) if b == u else (c, a, b)

    def hull_cycle():
        # successor along every unpaired directed edge, read in creation order
        succ = {}
        for a, b, c in tris.values():
            for u, v in ((a, b), (b, c), (c, a)):
                if v * m + u not in owner:
                    succ[u] = v
        cyc = [min(succ)]
        while succ[cyc[-1]] != cyc[0]:
            if len(cyc) == len(succ):
                raise ValueError("hull is not a simple cycle (degenerate geometry)")
            cyc.append(succ[cyc[-1]])
        return cyc

    if orient2d(xs[0], ys[0], xs[1], ys[1], xs[first], ys[first]) > 0.0:
        add(0, 1, first)
    else:
        add(1, 0, first)

    max_flips = 8 * m * m + 64
    flips = 0
    for p in (j for j in range(2, m) if j != first):
        px = xs[p]
        py = ys[p]
        hit = None
        # first triangle, in creation order, with no orientation below -GEOM_TOL
        for t, (a, b, c) in tris.items():
            o1 = orient2d(xs[a], ys[a], xs[b], ys[b], px, py)
            if o1 >= -GEOM_TOL:
                o2 = orient2d(xs[b], ys[b], xs[c], ys[c], px, py)
                if o2 >= -GEOM_TOL:
                    o3 = orient2d(xs[c], ys[c], xs[a], ys[a], px, py)
                    if o3 >= -GEOM_TOL:
                        hit = t
                        break
        stack = []
        if hit is None:
            # outside the hull: attach to every strictly visible hull edge
            cyc = hull_cycle()
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                if orient2d(xs[u], ys[u], xs[v], ys[v], px, py) < -GEOM_TOL:
                    add(v, u, p)
                    stack.append((u, v))
            if not stack:
                raise ValueError("point insertion failed (degenerate geometry)")
        elif o1 > GEOM_TOL and o2 > GEOM_TOL and o3 > GEOM_TOL:
            remove(hit)
            add(a, b, p)
            add(b, c, p)
            add(c, a, p)
            stack = [(a, b), (b, c), (c, a)]
        else:
            # on (or numerically on) an edge (u, v): split its owners, newer first
            u, v = (a, b) if abs(o1) <= GEOM_TOL else (b, c) if abs(o2) <= GEOM_TOL else (c, a)
            owners = [(owner.get(u * m + v), u), (owner.get(v * m + u), v)]
            for t, w in sorted((o for o in owners if o[0] is not None), reverse=True):
                ta, tb, tc = rotated(t, w)
                remove(t)
                add(ta, p, tc)
                add(p, tb, tc)
                stack.extend([(ta, tc), (tb, tc)])
        # Lawson flips; the older owner of a popped edge plays abc, (a, b) shared
        while stack:
            u, v = stack.pop()
            t1 = owner.get(u * m + v)
            t2 = owner.get(v * m + u)
            if t1 is None or t2 is None:
                continue
            if t1 > t2:
                t1, t2, u = t2, t1, v
            a, b, c = rotated(t1, u)
            d = rotated(t2, b)[2]
            if incircle_det(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]) > GEOM_TOL:
                flips += 1
                if flips > max_flips:
                    raise ValueError("flip limit exceeded")
                remove(t1)
                remove(t2)
                add(a, d, c)
                add(d, b, c)
                stack.extend([(a, d), (d, b), (b, c), (c, a)])

    # each triangle rotated to start at its smallest vertex
    canon = sorted(min((a, b, c), (b, c, a), (c, a, b)) for a, b, c in tris.values())
    return canon, hull_cycle()


def triangle_angles(xs, ys, tris):
    """Euclidean corner angles per triangle, in triangle/corner order.

    Raises ValueError("degenerate triangle") when twice the area falls below
    1e-14.
    """
    out = []
    for a, b, c in tris:
        if abs(orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c])) < 1e-14:
            raise ValueError("degenerate triangle")
        row = []
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            ux = xs[q] - xs[p]
            uy = ys[q] - ys[p]
            vx = xs[r] - xs[p]
            vy = ys[r] - ys[p]
            row.append(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
        out.append((row[0], row[1], row[2]))
    return out
