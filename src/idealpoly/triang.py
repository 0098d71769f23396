"""Oriented sphere triangulations: validation, apex links, automorphisms.

A triangulation is stored as an ordered list of oriented triangles
(counterclockwise as seen from outside).  Orientation consistency is checked,
never repaired.  All objects are immutable after validation and all
operations are pure.
"""

from dataclasses import dataclass, field

import numpy as np

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

    The gate for triangulations from outside the library: vertex ids must be
    ``int`` or ``numpy.integer`` (never ``bool``).  Raises EulerViolation,
    NonManifoldEdge, Disconnected or DegenerateFace.
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
            t = tuple(f)
        except TypeError:
            t = None
        if t is None or not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in t
        ):
            raise DegenerateFace(f"face {f!r} is not a list of integer vertices")
        t = tuple(int(v) for v in t)
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
    """The relabeled face list seen from each candidate start dart, one row
    per start in dart order, as an integer array.

    Dart ``3 * f + s`` runs from corner ``s`` of face ``f`` to the next
    corner.  From each start dart a breadth-first traversal along face
    rotation and edge reversal labels vertices in discovery order.  Both
    darts reached from a dart leave its head, so the start's tail takes
    label 0 and every visited dart labels only its head.  Once n - 1 labels
    are given the last vertex takes n - 1, so the traversal stops there.
    Each code is the relabeled face list with every face rotated to start
    at its smallest label, sorted.  A face (a, b, c) is held as the integer
    ``a*n*n + b*n + c``, which orders as the tuple does; since labels are
    distinct, the smallest encoding of a face's three rotations is the one
    that starts at its smallest label.  ``_decode`` turns a code back into
    face tuples.

    The candidates depend on the minimum degree.  Every start u -> v labels
    u 0, v 1, the third vertex w of its face 2 and the third vertex x of the
    face across uv 3, so its code begins (0, 1, 2).  A start at a degree-3
    vertex has (0, 2, 3) as its second face and any other start (0, 2, a)
    with a >= 4, so with a vertex of degree 3 the candidates are the darts
    leaving one.  With minimum degree 4 the traversal goes on to label p,
    the third vertex of the face across wv, 4 and y, the third vertex of the
    face across uw, 5 (x, p and y are distinct because v and w have degree
    4 or more).  A start at a degree-4 vertex then has the faces (0, 1, 2),
    (0, 2, 5), (0, 3, 1), (0, 5, 3) at 0; a start at a vertex of higher
    degree not adjacent to p has (0, 5, z) with z >= 6 as its fourth, and
    loses.  So the candidates are the darts leaving a vertex of degree 4
    and those whose tail is adjacent to their p.  With minimum degree 5
    every dart is a candidate.  Every other start loses strictly, so the
    candidates hold every start whose code is the smallest.
    """
    n = t.n
    last = n - 1
    faces = t.faces
    tail = [v for f in faces for v in f]
    nxt = [d + 1 if d % 3 < 2 else d - 2 for d in range(len(tail))]
    head = [tail[d] for d in nxt]
    dart = {(u, v): d for d, (u, v) in enumerate(zip(tail, head))}
    # per dart: its head, the next dart of its face, its reverse
    steps = [(v, nxt[d], dart[v, u]) for d, (u, v) in enumerate(zip(tail, head))]
    degree = t.degrees()
    low = min(degree)
    if low == 3:
        starts = [d for d, u in enumerate(tail) if degree[u] == 3]
    elif low == 4:  # p = head[nxt[dart[w, v]]]: the reverse of v -> w is w -> v
        starts = [d for d, u in enumerate(tail)
                  if degree[u] == 4 or (u, head[nxt[steps[nxt[d]][2]]]) in dart]
    else:
        starts = range(len(tail))
    rows = []
    seen = [-1] * len(tail)  # the start dart whose traversal last saw each dart
    for d0 in starts:
        label = [-1] * n
        label[tail[d0]] = 0
        seen[d0] = d0
        order = [d0]
        count = 1
        for x in order:  # the loop also visits darts appended below
            v, y, z = steps[x]
            if label[v] < 0:
                label[v] = count
                count += 1
                if count == last:
                    break
            if seen[y] != d0:
                seen[y] = d0
                order.append(y)
            if seen[z] != d0:
                seen[z] = d0
                order.append(z)
        label[label.index(-1)] = last
        rows.append(label)
    a, b, c = np.array(rows)[:, np.array(faces)].transpose(2, 0, 1)
    codes = np.minimum((a * n + b) * n + c, (b * n + c) * n + a)
    codes = np.minimum(codes, (c * n + a) * n + b)
    codes.sort(axis=1)
    return codes


def _smallest(codes):
    """The lexicographically smallest row of a code array."""
    return codes[np.lexsort(codes.T[::-1])[0]]


def _decode(code, n):
    """The face tuples of one code row from ``_codes``, as Python ints."""
    return tuple((k // (n * n), k // n % n, k % n) for k in code.tolist())


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
    codes = _codes(t)
    best = _smallest(codes)
    op = int((codes == best).all(axis=1).sum())
    return AutomorphismCounts(
        orientation_preserving=op,
        total=2 * op if np.array_equal(_smallest(_codes(mirror(t))), best) else op,
    )


def canonical_form(t):
    """Canonical face list under orientation-preserving relabeling.

    The lexicographically smallest of the codes from every start dart (see
    ``_codes``).  Two triangulations are orientation-preserving isomorphic
    iff their canonical forms are equal.
    """
    return _decode(_smallest(_codes(t)), t.n)


def mirror(t):
    """The same triangulation with all faces reversed."""
    return SphereTriangulation(n=t.n, faces=tuple((a, c, b) for a, b, c in t.faces))


def canonical_form_full(t):
    """Canonical form up to relabeling and reflection."""
    return min(canonical_form(t), canonical_form(mirror(t)))


def flip_edge(t, e):
    """Diagonal flip of edge e = (u, v); returns None when the flip would
    create a doubled edge.

    The flip replaces two faces by two with the same boundary, so a valid
    ``t`` gives a valid triangulation, built without ``validate``.
    """
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
    return SphereTriangulation(t.n, tuple(faces))


def stack_on_face(t, face_index):
    """Subdivide one face with a new degree-3 vertex; a valid ``t`` gives a
    valid triangulation, built without ``validate``."""
    a, b, c = t.faces[face_index]
    w = t.n
    faces = [f for i, f in enumerate(t.faces) if i != face_index]
    faces.extend([(a, b, w), (b, c, w), (c, a, w)])
    return SphereTriangulation(t.n + 1, tuple(faces))


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
