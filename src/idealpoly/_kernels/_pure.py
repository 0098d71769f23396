"""Kernels: Lobachevsky function, planar Delaunay, angle/volume.

The hot loops of the package, written in plain Python over floats and lists.
The Lobachevsky function is evaluated from the logarithmic singularity
extraction

    L(x) = x*(1 - log(2x)) + x * sum_{k>=1} c_k * (x/pi)^(2k),   0 < x <= pi/2

with c_k = zeta(2k) / (k*(2k+1)), truncated at ``N_TERMS`` terms.

Geometric tolerances are absolute and intended for coordinates of order
1..1e3 in generic position (which is what stereographic projection of
non-degenerate sphere samples produces).
"""

import math

N_TERMS = 48


def _zeta_even(s):
    # Direct sum plus Euler-Maclaurin tail; s >= 2 gives ~1e-16 accuracy.
    total = 0.0
    for k in range(1, 100):
        total += float(k) ** (-s)
    big = 100.0
    total += big ** (1.0 - s) / (s - 1.0)
    total += 0.5 * big ** (-s)
    total += s * big ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * big ** (-s - 3.0) / 720.0
    return total


LOB_COEFFS = tuple(
    _zeta_even(2.0 * k) / (k * (2.0 * k + 1.0)) for k in range(1, N_TERMS + 1)
)

PI = math.pi
HALF_PI = 0.5 * math.pi
SNAP_TOL = 1e-14
GEOM_TOL = 1e-12


def lobachevsky(theta):
    """Lobachevsky function: odd, pi-periodic, zero at multiples of pi."""
    x = math.fmod(theta, PI)
    if x < 0.0:
        x += PI
    sign = 1.0
    if x > HALF_PI:
        x = PI - x
        sign = -1.0
    if x < SNAP_TOL:
        return 0.0
    r2 = (x / PI) * (x / PI)
    acc = 0.0
    p = 1.0
    for c in LOB_COEFFS:
        p *= r2
        t = c * p
        acc += t
        if t < 1e-17:
            break
    return sign * (x * (1.0 - math.log(x + x)) + x * acc)


def lobachevsky_sum(values):
    """Sum of lobachevsky() over a flat sequence, accumulated left to right."""
    total = 0.0
    for v in values:
        total += lobachevsky(v)
    return total


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


def _edge_map(tris):
    # undirected edge -> list of triangle indices
    emap = {}
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            emap.setdefault(key, []).append(t)
    return emap


def delaunay_triangles(xs, ys):
    """Delaunay triangulation by incremental insertion with Lawson flips.

    Returns (triangles, hull): triangles as counterclockwise index triples,
    each rotated to start at its smallest vertex and sorted lexicographically;
    hull as the counterclockwise cycle starting at the smallest hull vertex.

    Cocircular quadruples (incircle determinant within GEOM_TOL of zero) are
    treated as legal, so the diagonal chosen is the one produced by insertion
    in index order: deterministic for a fixed input.

    Raises ValueError("duplicate points") / ValueError("collinear points").
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

    if orient2d(xs[0], ys[0], xs[1], ys[1], xs[first], ys[first]) > 0.0:
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
            emap = _edge_map(tris)
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
            if incircle_det(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]) > GEOM_TOL:
                flips += 1
                if flips > max_flips:
                    raise ValueError("flip limit exceeded")
                for t in sorted(owners, reverse=True):
                    del tris[t]
                tris.append((a, d, c))
                tris.append((d, b, c))
                stack.extend([(a, d), (d, b), (b, c), (c, a)])

    def hull_cycle():
        emap = _edge_map(tris)
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
            o1 = orient2d(xs[a], ys[a], xs[b], ys[b], px, py)
            o2 = orient2d(xs[b], ys[b], xs[c], ys[c], px, py)
            o3 = orient2d(xs[c], ys[c], xs[a], ys[a], px, py)
            if o1 > GEOM_TOL and o2 > GEOM_TOL and o3 > GEOM_TOL:
                del tris[t]
                tris.append((a, b, p))
                tris.append((b, c, p))
                tris.append((c, a, p))
                legalize([(a, b), (b, c), (c, a)])
                placed = True
                break
            if o1 >= -GEOM_TOL and o2 >= -GEOM_TOL and o3 >= -GEOM_TOL:
                # on (or numerically on) one edge of this triangle
                if abs(o1) <= GEOM_TOL:
                    on_edge = (a, b, c)
                elif abs(o2) <= GEOM_TOL:
                    on_edge = (b, c, a)
                else:
                    on_edge = (c, a, b)
                break
        if placed:
            continue
        if on_edge is not None:
            a, b, c = on_edge  # p sits on edge (a, b); c is the far corner
            key = (a, b) if a < b else (b, a)
            emap = _edge_map(tris)
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
        k = len(cyc)
        stack = []
        added = False
        for i in range(k):
            u = cyc[i]
            v = cyc[(i + 1) % k]
            if orient2d(xs[u], ys[u], xs[v], ys[v], px, py) < -GEOM_TOL:
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


def config_volume(xs, ys):
    """Hyperbolic volume of the cone from infinity over the Delaunay
    triangulation of the given finite points: Delaunay, then the Lobachevsky
    sum over all corner angles."""
    tris, _ = delaunay_triangles(xs, ys)
    angles = triangle_angles(xs, ys, tris)
    total = 0.0
    for row in angles:
        total += lobachevsky(row[0])
        total += lobachevsky(row[1])
        total += lobachevsky(row[2])
    return total
