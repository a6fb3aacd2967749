"""Barycentric path routing through a simplicial complex.

Routes a piecewise-linear path between two vertices through barycenters of
top-dimensional simplices and of the facets they share, so that the path
meets no face of dimension <= n-2.  Marking such low-dimensional faces as a
subcomplex to avoid therefore never obstructs routing; an exact rational
verifier certifies the avoidance segment by segment.

All coordinates are Fractions and every geometric predicate is exact: segment
against face intersection is a small linear feasibility problem solved by
Gaussian elimination, with at most one free parameter (the faces of a valid
complex are affinely independent).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from kholo.errors import (
    Disconnected,
    InvalidComplex,
    InvalidEndpoints,
    InvalidPath,
    InvalidSubcomplex,
)


def _frac_point(coords):
    return tuple(Fraction(c) for c in coords)


# -- exact linear algebra -----------------------------------------------------

def _solve_affine(matrix, rhs):
    """Solve M u = rhs exactly over the rationals.

    Returns None when inconsistent, otherwise (u0, direction) where the
    solution set is {u0 + phi * direction}; direction is None for a unique
    solution.  At most one free column is supported (callers guarantee it).
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pivot = aug[row][col]
        aug[row] = [v / pivot for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if aug[r][ncols] != 0:
            return None
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) > 1:
        raise InvalidComplex("degenerate face: multi-dimensional solution set")
    u0 = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        u0[col] = aug[r][ncols]
    if not free:
        return u0, None
    phi = free[0]
    direction = [Fraction(0)] * ncols
    direction[phi] = Fraction(1)
    for r, col in enumerate(pivots):
        direction[col] = -aug[r][phi]
    return u0, direction


def _determinant(matrix):
    m = [list(row) for row in matrix]
    size = len(m)
    det = Fraction(1)
    for k in range(size):
        pivot_row = None
        for r in range(k, size):
            if m[r][k] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for r in range(k + 1, size):
            if m[r][k] != 0:
                factor = m[r][k] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


class _Interval:
    """Rational interval with open/closed ends, narrowed by affine constraints."""

    def __init__(self):
        self.lo = None
        self.lo_strict = False
        self.hi = None
        self.hi_strict = False
        self.empty = False

    def require(self, c0, c1, strict=False):
        # constraint: c0 + c1 * phi >= 0 (or > 0 when strict)
        if self.empty:
            return
        if c1 == 0:
            if c0 < 0 or (strict and c0 == 0):
                self.empty = True
            return
        bound = -c0 / c1
        if c1 > 0:
            if self.lo is None or bound > self.lo or (bound == self.lo and strict):
                self.lo, self.lo_strict = bound, strict
        else:
            if self.hi is None or bound < self.hi or (bound == self.hi and strict):
                self.hi, self.hi_strict = bound, strict

    def feasible(self):
        if self.empty:
            return False
        if self.lo is None or self.hi is None:
            return True
        if self.lo < self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_strict or self.hi_strict)
        return False


def _point_in_simplex(point, vertices):
    """Exact closed-simplex membership via barycentric coordinates."""
    ncols = len(vertices)
    matrix = [[v[r] for v in vertices] for r in range(len(point))]
    matrix.append([Fraction(1)] * ncols)
    rhs = list(point) + [Fraction(1)]
    solved = _solve_affine(matrix, rhs)
    if solved is None:
        return False
    coords, direction = solved
    if direction is not None:
        raise InvalidComplex("degenerate simplex in membership test")
    return all(c >= 0 for c in coords)


def _segment_meets_face(p, q, face_coords, exclude_p=False, exclude_q=False):
    """Does the closed segment [p, q] meet the closed face, exactly?

    ``exclude_p``/``exclude_q`` drop the segment's own endpoints from the
    test (the endpoint-vertex exemption at the path's two ends).
    """
    dim = len(p)
    w0 = face_coords[0]
    others = face_coords[1:]
    # columns: (q - p), then (w0 - w_i); rhs: w0 - p
    matrix = [[q[r] - p[r]] + [w0[r] - w[r] for w in others] for r in range(dim)]
    rhs = [w0[r] - p[r] for r in range(dim)]
    solved = _solve_affine(matrix, rhs)
    if solved is None:
        return False
    u0, direction = solved
    k = len(others)

    def affine(idx):
        if direction is None:
            return u0[idx], Fraction(0)
        return u0[idx], direction[idx]

    box = _Interval()
    s0, s1 = affine(0)
    box.require(s0, s1, strict=exclude_p)              # s >= 0 (or > 0)
    box.require(1 - s0, -s1, strict=exclude_q)         # s <= 1 (or < 1)
    total0, total1 = Fraction(0), Fraction(0)
    for i in range(1, k + 1):
        m0, m1 = affine(i)
        box.require(m0, m1)                            # mu_i >= 0
        total0 += m0
        total1 += m1
    box.require(1 - total0, -total1)                   # sum mu_i <= 1
    if direction is None:
        return box.feasible() and not box.empty
    return box.feasible()


# -- the complex --------------------------------------------------------------

class SimplicialComplex:
    """Finite geometric simplicial complex with rational vertex coordinates.

    ``top`` lists the n-simplices as (n+1)-tuples of vertex indices.  Lower
    faces are derived.  Construction validates the structure, the affine
    non-degeneracy of every top simplex, and (in the plane) that any two top
    simplices meet exactly in their shared face.
    """

    def __init__(self, dim, vertices, top):
        self.dim = dim
        self.vertices = tuple(_frac_point(v) for v in vertices)
        self.top = tuple(tuple(s) for s in top)
        self._validate()

    def _validate(self):
        n = self.dim
        if n < 1:
            raise InvalidComplex("ambient dimension must be at least 1")
        for v in self.vertices:
            if len(v) != n:
                raise InvalidComplex(f"vertex {v} has arity {len(v)}, expected {n}")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidComplex("two vertices share the same coordinates")
        seen = set()
        for simplex in self.top:
            if len(simplex) != n + 1:
                raise InvalidComplex(f"top simplex {simplex} needs {n + 1} vertices")
            if len(set(simplex)) != n + 1:
                raise InvalidComplex(f"repeated vertex in top simplex {simplex}")
            for idx in simplex:
                if not 0 <= idx < len(self.vertices):
                    raise InvalidComplex(f"vertex index {idx} out of range")
            key = frozenset(simplex)
            if key in seen:
                raise InvalidComplex(f"duplicate top simplex {simplex}")
            seen.add(key)
            self._check_nondegenerate(simplex)
        if n == 2:
            self._check_pairwise_plane()

    def _check_nondegenerate(self, simplex):
        pts = [self.vertices[i] for i in simplex]
        base = pts[0]
        edges = [[p[r] - base[r] for r in range(self.dim)] for p in pts[1:]]
        if _determinant(edges) == 0:
            raise InvalidComplex(f"top simplex {simplex} is affinely degenerate")

    def _check_pairwise_plane(self):
        # triangles must meet exactly in their shared face: no foreign vertex
        # inside a closed triangle, no proper edge crossing, no collinear
        # overlap beyond a shared edge
        def orient(a, b, c):
            return ((b[0] - a[0]) * (c[1] - a[1])
                    - (b[1] - a[1]) * (c[0] - a[0]))

        for s1, s2 in combinations(self.top, 2):
            shared = set(s1) & set(s2)
            for tri, other in ((s1, s2), (s2, s1)):
                pts = [self.vertices[i] for i in tri]
                for v in other:
                    if v not in shared and _point_in_simplex(self.vertices[v], pts):
                        raise InvalidComplex(
                            f"vertex {v} lies inside top simplex {tri}")
            for e1 in combinations(s1, 2):
                for e2 in combinations(s2, 2):
                    if set(e1) == set(e2):
                        continue
                    a, b = (self.vertices[e1[0]], self.vertices[e1[1]])
                    c, d = (self.vertices[e2[0]], self.vertices[e2[1]])
                    o1, o2 = orient(a, b, c), orient(a, b, d)
                    o3, o4 = orient(c, d, a), orient(c, d, b)
                    if o1 * o2 < 0 and o3 * o4 < 0:
                        raise InvalidComplex(
                            f"edges {e1} and {e2} cross improperly")
                    if o1 == 0 and o2 == 0:
                        axis = 0 if a[0] != b[0] else 1
                        span = b[axis] - a[axis]
                        tc = (c[axis] - a[axis]) / span
                        td = (d[axis] - a[axis]) / span
                        lo, hi = min(tc, td), max(tc, td)
                        if min(Fraction(1), hi) > max(Fraction(0), lo):
                            raise InvalidComplex(
                                f"edges {e1} and {e2} overlap along a segment")

    # -- faces ---------------------------------------------------------------

    def faces(self, d):
        """All d-dimensional faces as sorted index tuples, deterministic order."""
        out = []
        seen = set()
        for simplex in self.top:
            for face in combinations(sorted(simplex), d + 1):
                if face not in seen:
                    seen.add(face)
                    out.append(face)
        return out

    def is_face(self, face):
        face = tuple(sorted(face))
        return any(set(face) <= set(simplex) for simplex in self.top)

    def barycenter(self, face):
        pts = [self.vertices[i] for i in face]
        m = len(pts)
        return tuple(sum(p[r] for p in pts) / m for r in range(self.dim))

    def contains_point(self, point):
        point = _frac_point(point)
        return any(_point_in_simplex(point, [self.vertices[i] for i in simplex])
                   for simplex in self.top)


class Subcomplex:
    """Marked faces to avoid, closed under taking faces, plus the endpoints.

    Every marked face other than the endpoint vertices must have dimension
    at most n-2; that codimension bound is exactly what makes barycentric
    routing sound, so violations are rejected.
    """

    def __init__(self, complex_, marked_faces, start, end):
        self.complex = complex_
        nverts = len(complex_.vertices)
        for label, idx in (("start", start), ("end", end)):
            if not isinstance(idx, int) or not 0 <= idx < nverts:
                raise InvalidEndpoints(f"{label} vertex {idx!r} out of range")
        self.start = start
        self.end = end
        closed = set()
        for face in marked_faces:
            face = tuple(sorted(face))
            if not face:
                raise InvalidSubcomplex("empty face marked")
            if not complex_.is_face(face):
                raise InvalidSubcomplex(f"{face} is not a face of the complex")
            for d in range(len(face)):
                closed.update(combinations(face, d + 1))
        n = complex_.dim
        for face in closed:
            if face in ((start,), (end,)):
                continue
            if len(face) - 1 > n - 2:
                raise InvalidSubcomplex(
                    f"marked face {face} has dimension {len(face) - 1}; "
                    f"must be at most {n - 2}")
        self.marked = tuple(sorted(closed))


@dataclass
class PLPath:
    """Piecewise-linear path: exact rational waypoints with provenance tags."""

    waypoints: tuple[tuple[Fraction, ...], ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        assert len(self.waypoints) == len(self.tags)
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise InvalidPath("consecutive waypoints coincide")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))


# -- operations ---------------------------------------------------------------

def facet_adjacency(complex_):
    """Dual graph on top simplices: adjacency iff a shared (n-1)-face.

    Returns a list of sorted neighbor-index lists, node order = input order.
    """
    n = complex_.dim
    owners = {}
    for idx, simplex in enumerate(complex_.top):
        for facet in combinations(sorted(simplex), n):
            owners.setdefault(facet, []).append(idx)
    neighbors = [set() for _ in complex_.top]
    for facet_owners in owners.values():
        for a, b in combinations(facet_owners, 2):
            neighbors[a].add(b)
            neighbors[b].add(a)
    return [sorted(ns) for ns in neighbors]


def route_path(complex_, sub):
    """Shortest deterministic barycentric route between the two endpoints.

    BFS on the facet-adjacency graph from the tops containing the start
    vertex to those containing the end vertex, ties broken by input index
    order; waypoints alternate top barycenters with shared-facet barycenters.
    """
    if sub.complex is not complex_ and sub.complex != complex_:
        raise InvalidSubcomplex("subcomplex belongs to a different complex")
    sources = [i for i, s in enumerate(complex_.top) if sub.start in s]
    targets = {i for i, s in enumerate(complex_.top) if sub.end in s}
    if not sources or not targets:
        raise InvalidEndpoints("an endpoint vertex lies in no top simplex")

    adjacency = facet_adjacency(complex_)
    parent = {}
    queue = list(sources)
    for s in sources:
        parent[s] = None
    goal = None
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        if node in targets:
            goal = node
            break
        for nxt in adjacency[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if goal is None:
        raise Disconnected("no facet path joins the endpoint simplices")

    chain = []
    node = goal
    while node is not None:
        chain.append(node)
        node = parent[node]
    chain.reverse()

    waypoints = [complex_.vertices[sub.start]]
    tags = ["endpoint"]
    for pos, idx in enumerate(chain):
        waypoints.append(complex_.barycenter(complex_.top[idx]))
        tags.append("top-barycenter")
        if pos + 1 < len(chain):
            facet = tuple(sorted(set(complex_.top[idx])
                                 & set(complex_.top[chain[pos + 1]])))
            waypoints.append(complex_.barycenter(facet))
            tags.append("facet-barycenter")
    waypoints.append(complex_.vertices[sub.end])
    tags.append("endpoint")
    return PLPath(waypoints=tuple(waypoints), tags=tuple(tags))


def verify_avoidance(path, complex_, sub):
    """Certify that the path meets no marked face, by exact intersection tests.

    The endpoint vertices are exempted at the path's two ends only.  Returns
    (True, None) or (False, (segment_index, face)) with the first violation.
    """
    for point in path.waypoints:
        if not complex_.contains_point(point):
            raise InvalidPath(f"waypoint {point} lies outside the complex")
    segments = path.segments()
    last = len(segments) - 1
    for idx, (p, q) in enumerate(segments):
        for face in sub.marked:
            exclude_p = idx == 0 and face == (sub.start,)
            exclude_q = idx == last and face == (sub.end,)
            coords = [complex_.vertices[i] for i in face]
            if _segment_meets_face(p, q, coords,
                                   exclude_p=exclude_p, exclude_q=exclude_q):
                return False, (idx, face)
    return True, None
