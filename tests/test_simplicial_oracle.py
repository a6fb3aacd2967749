"""Differential tests: the integer validator, lattice point location,
barycenters and the avoidance verifier against the all-pairs Fraction
implementations they replaced.

``AllPairsComplex`` keeps the earlier plane validator verbatim, with its
Fraction predicates and its collinear-overlap branch, which the integer
validator drops as unreachable.  A counterexample to that argument would show
up here as a differing outcome.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from support import grid_complex, point_in_simplex, rational_complex, seeded

from kholo.errors import InvalidComplex, InvalidPath, InvalidSubcomplex
from kholo.simplicial import (
    PLPath,
    SimplicialComplex,
    Subcomplex,
    _determinant,
    _segment_meets_face,
    _solve_affine,
    route_path,
    verify_avoidance,
)

# -- the oracles ------------------------------------------------------------------


def fraction_point_in_simplex(point, vertices):
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


class AllPairsComplex(SimplicialComplex):
    """The same complex, validated in the plane by testing every pair."""

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
                    if v not in shared and fraction_point_in_simplex(self.vertices[v], pts):
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


def outcome(cls, vertices, top):
    """None when the complex is accepted, else the InvalidComplex message."""
    try:
        cls(dim=2, vertices=vertices, top=top)
    except InvalidComplex as exc:
        return str(exc)
    return None


def assert_same_outcome(vertices, top):
    expected = outcome(AllPairsComplex, vertices, top)
    assert outcome(SimplicialComplex, vertices, top) == expected, (vertices, top)
    return expected


def contains_by_scan(complex_, point):
    return any(fraction_point_in_simplex(point, [complex_.vertices[i] for i in s])
               for s in complex_.top)


def mean(points):
    return tuple(sum(column) / len(points) for column in zip(*points))


def verify_by_scan(path, complex_, sub):
    """The avoidance verdict by a Fraction scan: every waypoint located over
    every top, every segment tested against every marked face in order."""
    for point in path.waypoints:
        if not contains_by_scan(complex_, point):
            raise InvalidPath(f"waypoint {point} lies outside the complex")
    segments = path.segments()
    for idx, (p, q) in enumerate(segments):
        for face in sub.marked:
            exclude_p = idx == 0 and face == (sub.start,)
            exclude_q = idx == len(segments) - 1 and face == (sub.end,)
            if _segment_meets_face(p, q, [complex_.vertices[i] for i in face],
                                   exclude_p=exclude_p, exclude_q=exclude_q):
                return False, (idx, face)
    return True, None


# -- validation -----------------------------------------------------------------------


def test_two_triangles_on_a_small_lattice_match_all_pairs():
    # 12 lattice points: crossings, touching and collinear edges are common
    lattice = [(x, y) for y in range(3) for x in range(4)]
    rng = seeded(3301)
    kinds = {"accepted": 0, "inside": 0, "cross": 0, "other": 0}
    for _ in range(5000):
        top = [tuple(rng.sample(range(len(lattice)), 3)) for _ in range(2)]
        message = assert_same_outcome(lattice, top)
        if message is None:
            kinds["accepted"] += 1
        elif "lies inside" in message:
            kinds["inside"] += 1
        elif "cross improperly" in message:
            kinds["cross"] += 1
        else:
            kinds["other"] += 1
    # every outcome of the pairwise test occurs often enough to be tested
    assert min(kinds["accepted"], kinds["inside"], kinds["cross"]) >= 250, kinds


def rational_grid(rng, rows, cols, den):
    """A grid of split squares scaled by 1/den, interior vertices jittered by
    less than a quarter cell, so that it stays a valid triangulation."""
    complex_ = grid_complex(rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])
    vertices = []
    for x, y in complex_.vertices:
        if 0 < x < cols and 0 < y < rows:
            x += Fraction(rng.randint(-3, 3), 16)
            y += Fraction(rng.randint(-3, 3), 16)
        vertices.append((x / den, y / den))
    return vertices, list(complex_.top)


@pytest.mark.parametrize("den", [3, 7, 2**40])
def test_rational_grids_match_all_pairs(den):
    rng = seeded(3302 + den % 1000)
    for _ in range(8):
        vertices, top = rational_grid(rng, rng.randint(1, 3), rng.randint(1, 3), den)
        assert assert_same_outcome(vertices, top) is None
        # one overlapping triangle, at a random place in the list: either
        # three grid vertices or two of them and a new point inside the grid
        if rng.random() < 0.5:
            vertices = vertices + [(Fraction(rng.randint(1, 20), 7 * den),
                                    Fraction(rng.randint(1, 20), 11 * den))]
            corners = rng.sample(range(len(vertices) - 1), 2)
            bad = (len(vertices) - 1, *corners)
        else:
            bad = tuple(rng.sample(range(len(vertices)), 3))
        top.insert(rng.randint(0, len(top)), bad)
        assert_same_outcome(vertices, top)


def test_first_violation_is_the_all_pairs_one():
    # several overlapping triangles: both validators name the same pair
    rng = seeded(3303)
    for _ in range(20):
        vertices, top = rational_grid(rng, 3, 3, 5)
        for _ in range(3):
            top.insert(rng.randint(0, len(top)), tuple(rng.sample(range(len(vertices)), 3)))
        assert_same_outcome(vertices, top)


def test_collinear_touching_edges_are_accepted():
    # two triangles with collinear edges that meet in one shared vertex only
    vertices = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert assert_same_outcome(vertices, [(0, 1, 2), (1, 3, 4)]) is None


def test_collinear_overlap_is_reported_as_a_vertex_inside():
    # the edges (0, 1) and (3, 4) overlap along [1, 2] x {0}
    vertices = [(0, 0), (2, 0), (1, 1), (1, 0), (3, 0), (2, -1)]
    message = assert_same_outcome(vertices, [(0, 1, 2), (3, 4, 5)])
    assert message == "vertex 3 lies inside top simplex (0, 1, 2)"


# -- point location ---------------------------------------------------------------------


def probe_points(complex_, rng):
    """Vertices, points on edges and facets, barycenters, points in the
    bounding box, and points just outside a top or the whole complex."""
    vertices = complex_.vertices
    center = mean(vertices)
    tiny = Fraction(1, 10**6 + rng.randint(1, 99))
    points = list(vertices)
    # each vertex pushed away from the center: the hull's corners go outside
    points += [tuple(c + tiny * (c - m) for c, m in zip(v, center)) for v in vertices]
    for simplex in complex_.top:
        a, b = (vertices[i] for i in rng.sample(simplex, 2))
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(rng.randint(0, 9), 9)):
            points.append(tuple(p + t * (q - p) for p, q in zip(a, b)))
        k = rng.randrange(len(simplex))
        facet = [vertices[i] for i in simplex[:k] + simplex[k + 1:]]
        weights = [rng.randint(1, 5) for _ in facet]
        on_facet = tuple(sum(w * v[r] for w, v in zip(weights, facet)) / sum(weights)
                         for r in range(complex_.dim))
        # just beyond the facet, away from the opposite vertex: outside this
        # top, inside its neighbour across an interior facet
        points += [on_facet, complex_.barycenter(simplex),
                   tuple(c + tiny * (c - o) for c, o in zip(on_facet, vertices[simplex[k]]))]
    lows = [min(column) for column in zip(*vertices)]
    highs = [max(column) for column in zip(*vertices)]
    for _ in range(40):
        points.append(tuple(lo + (hi - lo) * Fraction(rng.randint(-2, 34), 32)
                            for lo, hi in zip(lows, highs)))
    return points


def oracle_complexes(rng):
    """Jittered plane grids over three denominators, then affine images of
    plane grids and of Freudenthal-split cubes with mixed denominators."""
    for den in (1, 3, 2**40):
        yield SimplicialComplex(2, *rational_grid(rng, 3, 3, den))
    for dim in (2, 2, 3, 3):
        yield rational_complex(rng, dim, 2)


def test_contains_point_matches_scan_over_all_tops():
    rng = seeded(3304)
    for complex_ in oracle_complexes(rng):
        points = probe_points(complex_, rng)
        inside = 0
        for point in points:
            expected = contains_by_scan(complex_, point)
            assert complex_.contains_point(point) == expected, point
            inside += expected
        assert 0 < inside < len(points)


def test_barycenters_are_fraction_means_of_every_face():
    rng = seeded(3308)
    for complex_ in oracle_complexes(rng):
        for simplex in complex_.top:
            for size in range(1, len(simplex) + 1):
                for face in combinations(simplex, size):
                    expected = mean([complex_.vertices[i] for i in face])
                    assert complex_.barycenter(face) == expected, face


def verdict(verify, path, complex_, sub):
    try:
        return verify(path, complex_, sub)
    except InvalidPath as exc:
        return str(exc)


@pytest.mark.parametrize("dim", [2, 3])
def test_verify_avoidance_matches_fraction_reference(dim):
    rng = seeded(3309 + dim)
    kinds = Counter()
    for _ in range(25):
        complex_ = rational_complex(rng, dim, 2)
        vertices = complex_.vertices
        nverts = len(vertices)
        start, end = rng.randrange(nverts), rng.randrange(nverts)
        # vertices, and in space edges, of the tops: every face the
        # codimension bound allows
        faces = sorted({face for s in complex_.top for size in range(1, dim)
                        for face in combinations(sorted(s), size)})
        marked = rng.sample(faces, rng.randint(0, min(6, len(faces))))
        if rng.random() < 0.5:
            marked += [(start,), (end,)]
        sub = Subcomplex(complex_, marked, start=start, end=end)
        paths = [route_path(complex_, sub)]
        for _ in range(3):
            # a walk over vertices and barycenters, rarely leaving the complex
            waypoints = [vertices[start]]
            while len(waypoints) < rng.randint(3, 6):
                simplex = rng.choice(complex_.top)
                face = rng.sample(simplex, rng.randint(1, dim + 1))
                point = complex_.barycenter(face)
                if rng.random() < 0.05:
                    point = tuple(8 * c for c in point)
                if point != waypoints[-1]:
                    waypoints.append(point)
            if waypoints[-1] != vertices[end]:
                waypoints.append(vertices[end])
            paths.append(PLPath(waypoints=tuple(waypoints), tags=("walk",) * len(waypoints)))
        for path in paths:
            expected = verdict(verify_by_scan, path, complex_, sub)
            assert verdict(verify_avoidance, path, complex_, sub) == expected
            kinds["outside" if isinstance(expected, str) else expected[0]] += 1
            # a route starting or ending on a marked endpoint is exempt there
            if path is paths[0] and (start,) in sub.marked and expected == (True, None):
                kinds["exempt"] += 1
    assert min(kinds[True], kinds[False], kinds["outside"], kinds["exempt"]) >= 3, kinds


def test_point_in_simplex_matches_fractions_in_two_and_three_dimensions():
    rng = seeded(3305)
    for dim in (2, 3):
        checked = 0
        while checked < 200:
            vertices = [tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                              for _ in range(dim)) for _ in range(dim + 1)]
            try:
                fraction_point_in_simplex(vertices[0], vertices)
            except InvalidComplex:
                continue        # degenerate: both raise, see below
            weights = [Fraction(rng.randint(-1, 4)) for _ in vertices]
            if not any(weights):
                continue
            total = sum(weights)
            if total == 0:
                continue
            point = tuple(sum(w * v[r] for w, v in zip(weights, vertices)) / total
                          for r in range(dim))
            assert (point_in_simplex(point, vertices)
                    == fraction_point_in_simplex(point, vertices)), (point, vertices)
            checked += 1
    flat = [(Fraction(0),) * 2, (Fraction(1),) * 2, (Fraction(2),) * 2]
    with pytest.raises(InvalidComplex, match="degenerate simplex"):
        point_in_simplex((Fraction(1), Fraction(1)), flat)


def laplace(rows):
    if not rows:
        return 1
    return sum((-1) ** k * rows[0][k] * laplace([row[:k] + row[k + 1:] for row in rows[1:]])
               for k in range(len(rows)))


def test_integer_determinant_matches_cofactor_expansion():
    rng = seeded(3306)
    for size in range(1, 6):
        for _ in range(60):
            rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(size)]
                    for _ in range(size)]
            assert _determinant(rows) == laplace(rows), rows


def test_degenerate_tetrahedron_rejected():
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, Fraction(1, 3))]
    with pytest.raises(InvalidComplex, match=r"top simplex \(0, 1, 2, 3\) is affinely degenerate"):
        SimplicialComplex(dim=3, vertices=vertices, top=[(0, 1, 2, 4), (0, 1, 2, 3)])


# -- marked faces ------------------------------------------------------------------------


def test_is_face_matches_scan_over_all_tops():
    complex_ = grid_complex(3, 3, [k % 2 for k in range(9)])
    nverts = len(complex_.vertices)
    for size in (1, 2, 3, 4):
        for face in combinations(range(nverts + 1), size):
            expected = any(set(face) <= set(s) for s in complex_.top)
            assert complex_.is_face(face) == expected, face
    for face in permutations((0, 1, 5)):
        assert complex_.is_face(face) == complex_.is_face((0, 1, 5))


def test_subcomplex_on_a_large_grid_keeps_its_messages():
    complex_ = grid_complex(32, 32)
    nverts = len(complex_.vertices)
    marked = [(v,) for v in range(nverts)]
    sub = Subcomplex(complex_, marked, start=0, end=nverts - 1)
    assert sub.marked == tuple((v,) for v in range(nverts))
    with pytest.raises(InvalidSubcomplex, match=r"^\(0, 2\) is not a face of the complex$"):
        Subcomplex(complex_, marked + [(2, 0)], start=0, end=1)
    with pytest.raises(InvalidSubcomplex,
                       match=r"^marked face \(0, 1\) has dimension 1; must be at most 0$"):
        Subcomplex(complex_, marked + [(1, 0)], start=0, end=1)
