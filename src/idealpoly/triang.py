"""Oriented sphere triangulations: validation, apex links, automorphisms.

A triangulation is stored as an ordered list of oriented triangles
(counterclockwise as seen from outside).  Orientation consistency is checked,
never repaired.  All objects are immutable after validation and all
operations are pure.
"""

from dataclasses import dataclass, field

from .errors import (
    DegenerateFace,
    Disconnected,
    EulerViolation,
    InvalidVertex,
    NonManifoldEdge,
)


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SphereTriangulation:
    n: int
    faces: tuple  # tuple of (a, b, c) vertex triples, counterclockwise

    def degrees(self):
        deg = [0] * self.n
        for a, b, c in self.faces:
            deg[a] += 1
            deg[b] += 1
            deg[c] += 1
        return deg

    def edges(self):
        seen = set()
        for a, b, c in self.faces:
            for u, v in ((a, b), (b, c), (c, a)):
                seen.add(edge_key(u, v))
        return sorted(seen)

    def to_json_dict(self):
        return {"n": self.n, "faces": [list(f) for f in self.faces]}


def validate(n, faces):
    """Check the sphere-triangulation invariants and freeze the result.

    Raises EulerViolation, NonManifoldEdge, Disconnected or DegenerateFace.
    """
    if not isinstance(n, int) or n < 4:
        raise DegenerateFace(f"vertex count must be an integer >= 4, got {n!r}")
    clean = []
    for f in faces:
        try:
            t = tuple(int(v) for v in f)
        except (TypeError, ValueError) as exc:
            raise DegenerateFace(
                f"face {f!r} is not a list of integer vertices"
            ) from exc
        if len(t) != 3:
            raise DegenerateFace(f"face {f!r} is not a triangle")
        if len(set(t)) != 3:
            raise DegenerateFace(f"face {t!r} repeats a vertex")
        if any(v < 0 or v >= n for v in t):
            raise DegenerateFace(f"face {t!r} uses a vertex outside 0..{n - 1}")
        clean.append(t)

    if len(clean) != 2 * n - 4:
        raise EulerViolation(
            f"face count {len(clean)} != 2n-4 = {2 * n - 4} for n = {n}"
        )

    directed = {}
    for i, (a, b, c) in enumerate(clean):
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in directed:
                raise NonManifoldEdge(
                    f"directed edge {(u, v)} appears in faces {directed[(u, v)]} and {i}"
                )
            directed[(u, v)] = i
    for (u, v) in directed:
        if (v, u) not in directed:
            raise NonManifoldEdge(f"edge {(u, v)} has no oppositely oriented twin")

    if len(directed) != 2 * (3 * n - 6):
        raise EulerViolation("edge count != 3n-6")

    used = set()
    for f in clean:
        used.update(f)
    if used != set(range(n)):
        raise Disconnected(f"vertices {sorted(set(range(n)) - used)} appear in no face")

    # face-adjacency connectivity
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        a, b, c = clean[i]
        for u, v in ((a, b), (b, c), (c, a)):
            j = directed[(v, u)]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != len(clean):
        raise Disconnected("face adjacency graph is not connected")

    return SphereTriangulation(n=n, faces=tuple(clean))


def choose_apex(t):
    """Vertex of maximum degree, smallest id on ties."""
    deg = t.degrees()
    best = 0
    for v in range(1, t.n):
        if deg[v] > deg[best]:
            best = v
    return best


@dataclass(frozen=True)
class ApexLink:
    """The planar triangulation left after deleting the open star of ``apex``.

    Corners are (face, slot) pairs indexing ``bounded_faces``; they carry all
    angle variables downstream.  ``opposite`` maps each link edge to the
    corners opposite it (two for interior edges, one for hull edges);
    ``corners_at`` maps each link vertex to its corners.
    """

    parent: SphereTriangulation
    apex: int
    bounded_faces: tuple
    hull_cycle: tuple
    interior_vertices: tuple
    interior_edges: tuple
    hull_edges: tuple
    opposite: dict = field(repr=False)
    corners_at: dict = field(repr=False)

    @property
    def n_corners(self):
        return 3 * len(self.bounded_faces)


def build_link(t, apex):
    if not 0 <= apex < t.n:
        raise InvalidVertex(f"apex {apex} outside 0..{t.n - 1}")

    bounded = tuple(f for f in t.faces if apex not in f)

    succ = {}
    for f in t.faces:
        if apex in f:
            i = f.index(apex)
            succ[f[(i + 1) % 3]] = f[(i + 2) % 3]
    start = min(succ)
    cyc = [start]
    w = succ[start]
    while w != start:
        cyc.append(w)
        w = succ[w]
    hull_cycle = tuple(cyc)
    hull_set = set(hull_cycle)
    assert len(hull_cycle) == len(succ), "apex star is not a single disk"

    interior_vertices = tuple(
        sorted(set(range(t.n)) - {apex} - hull_set)
    )

    opposite = {}
    corners_at = {}
    for fi, (a, b, c) in enumerate(bounded):
        for s, (v, e0, e1) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
            corners_at.setdefault(v, []).append((fi, s))
            opposite.setdefault(edge_key(e0, e1), []).append((fi, s))

    interior_edges = []
    hull_edges = []
    for e, corners in sorted(opposite.items()):
        if len(corners) == 2:
            interior_edges.append(e)
        elif len(corners) == 1:
            hull_edges.append(e)
        else:
            raise NonManifoldEdge(f"link edge {e} opposite {len(corners)} corners")

    link = ApexLink(
        parent=t,
        apex=apex,
        bounded_faces=bounded,
        hull_cycle=hull_cycle,
        interior_vertices=interior_vertices,
        interior_edges=tuple(interior_edges),
        hull_edges=tuple(hull_edges),
        opposite={e: tuple(cs) for e, cs in opposite.items()},
        corners_at={v: tuple(cs) for v, cs in corners_at.items()},
    )
    assert len(bounded) == (2 * t.n - 4) - len(hull_cycle)
    assert len(interior_vertices) + len(hull_cycle) + 1 == t.n
    return link


def _dart_maps(t):
    darts = []
    nxt = {}
    for a, b, c in t.faces:
        darts.extend(((a, b), (b, c), (c, a)))
        nxt[(a, b)] = (b, c)
        nxt[(b, c)] = (c, a)
        nxt[(c, a)] = (a, b)
    return sorted(darts), nxt


def _extends(base, image, nxt_src, nxt_img):
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


@dataclass(frozen=True)
class AutomorphismCounts:
    orientation_preserving: int
    total: int


def automorphism_counts(t):
    """Count combinatorial map automorphisms by flag extension.

    An orientation-preserving automorphism is determined by the image of one
    dart and must commute with the face-rotation and edge-reversal maps;
    orientation-reversing ones conjugate the rotation to its inverse.  Every
    candidate image dart is tried, so the run time is quadratic in the edge
    count: fine for the small vertex counts this toolkit targets.
    """
    darts, nxt = _dart_maps(t)
    prv = {v: k for k, v in nxt.items()}
    base = darts[0]
    op = sum(1 for d in darts if _extends(base, d, nxt, nxt))
    rev = sum(1 for d in darts if _extends(base, d, nxt, prv))
    return AutomorphismCounts(orientation_preserving=op, total=op + rev)


def canonical_form(t):
    """Canonical face list under orientation-preserving relabeling.

    Runs a deterministic dart traversal from every start dart, relabels
    vertices in discovery order, and keeps the lexicographically smallest
    face list.  Two triangulations are orientation-preserving isomorphic iff
    their canonical forms are equal.
    """
    darts, nxt = _dart_maps(t)
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
            m = min(f)
            while f[0] != m:
                f = (f[1], f[2], f[0])
            relabeled.append(f)
        relabeled.sort()
        cand = tuple(relabeled)
        if best is None or cand < best:
            best = cand
    return best


def mirror(t):
    """The same triangulation with all faces reversed."""
    return SphereTriangulation(n=t.n, faces=tuple((a, c, b) for a, b, c in t.faces))


def canonical_form_full(t):
    """Canonical form up to relabeling and reflection."""
    return min(canonical_form(t), canonical_form(mirror(t)))


def flip_edge(t, e):
    """Diagonal flip of edge e = (u, v); returns None when the flip would
    create a doubled edge."""
    u, v = e
    f1 = f2 = None
    for f in t.faces:
        if u in f and v in f:
            i = f.index(u)
            if f[(i + 1) % 3] == v:
                f1 = f
            else:
                f2 = f
    if f1 is None or f2 is None:
        raise InvalidVertex(f"{e} is not an edge")
    a = [w for w in f1 if w not in e][0]
    b = [w for w in f2 if w not in e][0]
    if any(a in f and b in f for f in t.faces):
        return None
    faces = [f for f in t.faces if f not in (f1, f2)]
    faces.append((u, b, a))
    faces.append((v, a, b))
    return validate(t.n, faces)


def stack_on_face(t, face_index):
    """Subdivide one face with a new degree-3 vertex."""
    a, b, c = t.faces[face_index]
    w = t.n
    faces = [f for i, f in enumerate(t.faces) if i != face_index]
    faces.extend([(a, b, w), (b, c, w), (c, a, w)])
    return validate(t.n + 1, faces)


TETRAHEDRON = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))

OCTAHEDRON = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (5, 2, 1),
    (5, 3, 2),
    (5, 4, 3),
    (5, 1, 4),
)


def tetrahedron():
    return validate(4, TETRAHEDRON)


def octahedron():
    return validate(6, OCTAHEDRON)


def bipyramid():
    """Triangular bipyramid: tips 0 and 4 over equator 1, 2, 3."""
    return validate(
        5,
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (4, 2, 1), (4, 3, 2), (4, 1, 3)],
    )
