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

Validation and point location run on integers: the vertices are scaled once
by the lcm of all their coordinate denominators, which keeps every
orientation sign.  The pairwise validator tests only the pairs of triangles
whose closed bounding boxes meet, found by a sort-and-sweep; it is still run
only in the plane.  Point location and the segment-face tests look their
candidates up in a bounding-box index: a simplex or face whose closed box
misses the point, or the segment's box, cannot meet it.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm

from kholo.errors import (
    Disconnected,
    InvalidComplex,
    InvalidEndpoints,
    InvalidPath,
    InvalidSubcomplex,
)


def _frac_point(coords):
    return tuple(Fraction(c) for c in coords)


def _box(points):
    """Closed axis-aligned bounding box as (lows, highs)."""
    columns = tuple(zip(*points))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _boxes_meet(box1, box2):
    (lo1, hi1), (lo2, hi2) = box1, box2
    for a, b, c, d in zip(lo1, hi1, lo2, hi2):
        if a > d or c > b:
            return False
    return True


def _meeting_pairs(boxes):
    """Index pairs (i, j), i < j, of closed boxes in the plane that meet, sorted.

    Sort-and-sweep along x: a box stays active while its right end is not
    left of the left end of the box being swept in.
    """
    active = []
    pairs = []
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0][0]):
        (x0, y0), (x1, y1) = boxes[k]
        active = [box for box in active if box[0] >= x0]
        pairs.extend((min(m, k), max(m, k)) for _, low, high, m in active
                     if low <= y1 and y0 <= high)
        active.append((x1, y0, y1, k))
    pairs.sort()
    return pairs


class _BoxIndex:
    """Closed boxes sorted by their low end on the first axis.

    A box that meets a query box has its low end within ``reach`` (the
    widest box's extent) below the query's low end, so one bisected range
    holds every candidate.
    """

    def __init__(self, boxes):
        self.boxes = boxes
        self.order = sorted(range(len(boxes)), key=lambda k: boxes[k][0][0])
        self.lows = [boxes[k][0][0] for k in self.order]
        self.reach = max((hi[0] - lo[0] for lo, hi in boxes), default=0)

    def meeting(self, box):
        """Ascending indices of the boxes that meet ``box``."""
        start = bisect_left(self.lows, box[0][0] - self.reach)
        stop = bisect_right(self.lows, box[1][0])
        return sorted(k for k in self.order[start:stop]
                      if _boxes_meet(self.boxes[k], box))


def _orient(a, b, c):
    """Twice the signed area of the triangle abc: ``_signed_volume`` in the
    plane, written out for the validator's inner loop."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


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
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination:
    every division is by the previous pivot and is exact."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * prev


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


def _integer_points(points):
    """Scale rational points by the lcm of all their coordinate denominators.

    A positive scale keeps every orientation sign.  Returns (scale, points).
    """
    scale = lcm(*(c.denominator for p in points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p)
                   for p in points]


def _signed_volume(points):
    """n! times the signed volume of the simplex on n+1 integer points in R^n."""
    base, *others = points
    return _determinant([[p[r] - base[r] for r in range(len(base))]
                         for p in others])


def _point_in_simplex(point, vertices):
    """Exact membership of a point of R^n in the closed simplex on n+1 vertices.

    The barycentric coordinates are ratios of signed volumes (Cramer's rule),
    so the point is inside iff none of them has the opposite sign of the
    simplex's volume.  Runs on integers over one denominator.
    """
    _, (p, *pts) = _integer_points((point, *vertices))
    volume = _signed_volume(pts)
    if volume == 0:
        raise InvalidComplex("degenerate simplex in membership test")
    return all(_signed_volume(pts[:j] + [p] + pts[j + 1:]) * volume >= 0
               for j in range(len(pts)))


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
    return box.feasible()


# -- the complex --------------------------------------------------------------

class SimplicialComplex:
    """Finite geometric simplicial complex with rational vertex coordinates.

    ``top`` lists the n-simplices as (n+1)-tuples of vertex indices.  Lower
    faces are derived.  Construction validates the structure, the affine
    non-degeneracy of every top simplex, and (in the plane only) that any two
    top simplices meet exactly in their shared face.  That pairwise test runs
    on the vertices scaled to integers over one denominator, and only on
    pairs of triangles whose closed bounding boxes meet.
    """

    def __init__(self, dim, vertices, top):
        self.dim = dim
        self.vertices = tuple(_frac_point(v) for v in vertices)
        self.top = tuple(tuple(s) for s in top)
        self._validate()
        self._index = _BoxIndex(self._boxes)
        self._stars = {}
        for simplex in self.top:
            for idx in simplex:
                self._stars.setdefault(idx, []).append(frozenset(simplex))

    def _validate(self):
        n = self.dim
        if n < 1:
            raise InvalidComplex("ambient dimension must be at least 1")
        for v in self.vertices:
            if len(v) != n:
                raise InvalidComplex(f"vertex {v} has arity {len(v)}, expected {n}")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidComplex("two vertices share the same coordinates")
        self._scale, self._lattice = _integer_points(self.vertices)
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
        self._boxes = tuple(self._lattice_box(simplex) for simplex in self.top)
        if n == 2:
            self._check_pairwise_plane()

    def _check_nondegenerate(self, simplex):
        if _signed_volume([self._lattice[i] for i in simplex]) == 0:
            raise InvalidComplex(f"top simplex {simplex} is affinely degenerate")

    def _check_pairwise_plane(self):
        # triangles must meet exactly in their shared face: no foreign vertex
        # inside a closed triangle and no proper edge crossing.  Triangles
        # whose closed boxes are disjoint cannot break either rule, and the
        # candidates are checked in the order of combinations(self.top, 2),
        # so the first violation reported is the all-pairs one.
        #
        # A collinear overlap of positive length needs no test of its own.
        # Each end of the overlap is an endpoint of one edge lying on the
        # other edge.  If that vertex is not shared, it lies in the other
        # closed triangle and the vertex test has already raised.  If both
        # ends are shared vertices, the two edges are the same index pair,
        # which is skipped.
        pts = self._lattice
        areas = [_orient(*(pts[k] for k in tri)) for tri in self.top]
        for i, j in _meeting_pairs(self._boxes):
            s1, s2 = self.top[i], self.top[j]
            for tri, area, other in ((s1, areas[i], s2), (s2, areas[j], s1)):
                a, b, c = (pts[k] for k in tri)
                for v in other:
                    if v in tri:
                        continue
                    p = pts[v]
                    # p is in the closed triangle iff no barycentric
                    # coordinate has the opposite sign of the area
                    if (_orient(p, b, c) * area >= 0
                            and _orient(a, p, c) * area >= 0
                            and _orient(a, b, p) * area >= 0):
                        raise InvalidComplex(
                            f"vertex {v} lies inside top simplex {tri}")
            for e1 in combinations(s1, 2):
                for e2 in combinations(s2, 2):
                    # edges with a common vertex cannot cross improperly
                    if e1[0] in e2 or e1[1] in e2:
                        continue
                    a, b = pts[e1[0]], pts[e1[1]]
                    c, d = pts[e2[0]], pts[e2[1]]
                    if (_orient(a, b, c) * _orient(a, b, d) < 0
                            and _orient(c, d, a) * _orient(c, d, b) < 0):
                        raise InvalidComplex(
                            f"edges {e1} and {e2} cross improperly")

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
        face = set(face)
        if not face:
            return bool(self.top)
        # only the tops around one of the face's vertices can contain it
        return any(face <= simplex
                   for simplex in self._stars.get(min(face), ()))

    def barycenter(self, face):
        pts = [self.vertices[i] for i in face]
        m = len(pts)
        return tuple(sum(p[r] for p in pts) / m for r in range(self.dim))

    def _lattice_box(self, face):
        return _box([self._lattice[i] for i in face])

    def _query_box(self, points):
        """Integer box that meets exactly the lattice boxes that the closed
        box of the rational ``points`` meets (the ends are integers)."""
        lows, highs = _box(points)
        return (tuple(ceil(c * self._scale) for c in lows),
                tuple(floor(c * self._scale) for c in highs))

    def contains_point(self, point):
        point = _frac_point(point)
        # a top whose closed box misses the point cannot contain it
        return any(
            _point_in_simplex(point, [self.vertices[i] for i in self.top[k]])
            for k in self._index.meeting(self._query_box([point])))


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
        faces = [tuple(sorted(face)) for face in marked_faces]
        for face in faces:
            if not face:
                raise InvalidSubcomplex("empty face marked")
            if not complex_.is_face(face):
                raise InvalidSubcomplex(f"{face} is not a face of the complex")
        # checked before closing: every subface of an accepted face is then
        # valid, and a marked top never expands into its 2^(n+1) subfaces
        n = complex_.dim
        for face in faces:
            if len(face) - 1 > n - 2 and face not in ((start,), (end,)):
                raise InvalidSubcomplex(
                    f"marked face {face} has dimension {len(face) - 1}; "
                    f"must be at most {n - 2}")
        closed = set()
        for face in faces:
            for d in range(len(face)):
                closed.update(combinations(face, d + 1))
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
    faces = _BoxIndex([complex_._lattice_box(face) for face in sub.marked])
    segments = path.segments()
    last = len(segments) - 1
    for idx, (p, q) in enumerate(segments):
        # a face whose closed box misses the segment's cannot meet it
        for k in faces.meeting(complex_._query_box((p, q))):
            face = sub.marked[k]
            exclude_p = idx == 0 and face == (sub.start,)
            exclude_q = idx == last and face == (sub.end,)
            coords = [complex_.vertices[i] for i in face]
            if _segment_meets_face(p, q, coords,
                                   exclude_p=exclude_p, exclude_q=exclude_q):
                return False, (idx, face)
    return True, None
