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
    try:
        faces = list(faces)
    except TypeError as exc:
        raise DegenerateFace(f"faces {faces!r} is not a list of triangles") from exc
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

    A corner is the flat id ``3 * face + slot`` of slot ``slot`` of
    ``bounded_faces[face]``, the index of its angle in every flat angle
    array downstream.  ``opposite`` maps each link edge to the corners
    opposite it (two for interior edges, one for hull edges); ``corners_at``
    maps each link vertex to its corners.
    """

    parent: SphereTriangulation
    apex: int
    bounded_faces: tuple
    hull_cycle: tuple
    interior_vertices: tuple
    interior_edges: tuple
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
            corner = 3 * fi + s
            corners_at.setdefault(v, []).append(corner)
            opposite.setdefault(edge_key(e0, e1), []).append(corner)

    interior_edges = []
    for e, corners in sorted(opposite.items()):
        if len(corners) == 2:
            interior_edges.append(e)
        elif len(corners) != 1:
            raise NonManifoldEdge(f"link edge {e} opposite {len(corners)} corners")

    link = ApexLink(
        parent=t,
        apex=apex,
        bounded_faces=bounded,
        hull_cycle=hull_cycle,
        interior_vertices=interior_vertices,
        interior_edges=tuple(interior_edges),
        opposite={e: tuple(cs) for e, cs in opposite.items()},
        corners_at={v: tuple(cs) for v, cs in corners_at.items()},
    )
    assert len(bounded) == (2 * t.n - 4) - len(hull_cycle)
    assert len(interior_vertices) + len(hull_cycle) + 1 == t.n
    return link


def _codes(t):
    """The relabeled face list seen from each candidate start dart, in dart
    order.

    Dart ``3 * f + s`` runs from corner ``s`` of face ``f`` to the next
    corner.  From each start dart a breadth-first traversal along face
    rotation and edge reversal labels vertices in discovery order, tail
    before head.  Once every vertex has a label the labels are final, so the
    traversal stops there.  Each code is the relabeled face list with every
    face rotated to start at its smallest label, sorted.  A face (a, b, c)
    is held as the integer ``a*n*n + b*n + c``, which orders as the tuple
    does; ``_decode`` turns a code back into face tuples.

    The candidates are the darts leaving a vertex of degree 3 when there is
    one, else every dart.  Every start labels its own face (0, 1, 2) and the
    third vertex of the face across its dart 3, so a start at a degree-3
    vertex has (0, 2, 3) as its second face and any other start (0, 2, a)
    with a >= 4.  The smallest code, and every code equal to it, therefore
    comes from a degree-3 start when one exists.
    """
    n = t.n
    nn = n * n
    faces = t.faces
    tail = [v for f in faces for v in f]
    nxt = [d + 1 if d % 3 < 2 else d - 2 for d in range(len(tail))]
    head = [tail[d] for d in nxt]
    dart = {(u, v): d for d, (u, v) in enumerate(zip(tail, head))}
    # per dart: its tail, its head, the next dart of its face, its reverse
    steps = [(u, v, nxt[d], dart[v, u]) for d, (u, v) in enumerate(zip(tail, head))]
    degree = t.degrees()
    starts = [d for d, v in enumerate(tail) if degree[v] == 3] or range(len(tail))
    for d0 in starts:
        label = [-1] * n
        seen = bytearray(len(tail))
        seen[d0] = 1
        order = [d0]
        count = 0
        for x in order:  # the loop also visits darts appended below
            u, v, y, z = steps[x]
            if label[u] < 0:
                label[u] = count
                count += 1
            if label[v] < 0:
                label[v] = count
                count += 1
            if count == n:
                break
            if not seen[y]:
                seen[y] = 1
                order.append(y)
            if not seen[z]:
                seen[z] = 1
                order.append(z)
        code = []
        for a, b, c in faces:
            a, b, c = label[a], label[b], label[c]
            if a < b and a < c:
                code.append(a * nn + b * n + c)
            elif b < c:
                code.append(b * nn + c * n + a)
            else:
                code.append(c * nn + a * n + b)
        code.sort()
        yield tuple(code)


def _decode(code, n):
    """The face tuples of one code from ``_codes``."""
    return tuple((k // (n * n), k // n % n, k % n) for k in code)


@dataclass(frozen=True)
class AutomorphismCounts:
    orientation_preserving: int
    total: int


def automorphism_counts(t):
    """Count combinatorial map automorphisms from the canonical codes.

    Orientation-preserving automorphisms act freely on darts, and two start
    darts give the same code iff one maps to the other, so their number is
    the number of darts whose code is the canonical form.  Orientation-
    reversing ones exist, as many again, iff the mirror image has the same
    canonical form.
    """
    codes = list(_codes(t))
    best = min(codes)
    op = codes.count(best)
    return AutomorphismCounts(
        orientation_preserving=op,
        total=2 * op if min(_codes(mirror(t))) == best else op,
    )


def canonical_form(t):
    """Canonical face list under orientation-preserving relabeling.

    The lexicographically smallest of the codes from every start dart (see
    ``_codes``).  Two triangulations are orientation-preserving isomorphic
    iff their canonical forms are equal.
    """
    return _decode(min(_codes(t)), t.n)


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
