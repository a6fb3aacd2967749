"""Facet adjacency, barycentric routing, and exact avoidance verification."""

from fractions import Fraction

import pytest
from support import grid_complex, point_in_simplex, seeded, shared_facet_pairs

from kholo.errors import (
    Disconnected,
    InvalidComplex,
    InvalidEndpoints,
    InvalidPath,
    InvalidSubcomplex,
)
from kholo.simplicial import (
    PLPath,
    SimplicialComplex,
    Subcomplex,
    _solve_affine,
    facet_adjacency,
    route_path,
    verify_avoidance,
)


def square():
    return SimplicialComplex(dim=2,
                             vertices=[(0, 0), (1, 0), (1, 1), (0, 1)],
                             top=[(0, 1, 2), (0, 2, 3)])


def disjoint_triangles():
    return SimplicialComplex(
        dim=2,
        vertices=[(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)],
        top=[(0, 1, 2), (3, 4, 5)])


# -- adjacency ------------------------------------------------------------------

def test_square_has_single_dual_edge():
    neighbors = facet_adjacency(square())
    assert neighbors == [[1], [0]]


def test_vertex_sharing_triangles_not_adjacent():
    c = SimplicialComplex(dim=2,
                          vertices=[(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
                          top=[(0, 1, 2), (0, 3, 4)])
    assert facet_adjacency(c) == [[], []]


def test_grid_adjacency_matches_pair_enumeration_oracle():
    # 3x3 grid of split squares: 18 triangles; the oracle enumerates pairs
    # sharing a full edge: 9 diagonals + 12 interior unit edges = 21, which
    # also matches the count (3*18 - 12 boundary edges) / 2
    c = grid_complex(3, 3)
    assert len(c.top) == 18
    oracle_pairs = shared_facet_pairs(c)
    assert len(oracle_pairs) == 21
    neighbors = facet_adjacency(c)
    assert sum(len(ns) for ns in neighbors) // 2 == len(oracle_pairs)
    for a, b in oracle_pairs:
        assert b in neighbors[a] and a in neighbors[b]


def test_adjacency_deterministic_order():
    c = grid_complex(2, 2)
    assert facet_adjacency(c) == facet_adjacency(c)


# -- validation -----------------------------------------------------------------

def test_degenerate_triangle_rejected():
    with pytest.raises(InvalidComplex):
        SimplicialComplex(dim=2, vertices=[(0, 0), (1, 1), (2, 2)],
                          top=[(0, 1, 2)])


def test_improper_overlap_rejected():
    with pytest.raises(InvalidComplex):
        SimplicialComplex(
            dim=2,
            vertices=[(0, 0), (2, 0), (1, 2), (1, -1), (1, 1), (3, 1)],
            top=[(0, 1, 2), (3, 4, 5)])


def test_vertex_inside_other_triangle_rejected():
    with pytest.raises(InvalidComplex):
        SimplicialComplex(
            dim=2,
            vertices=[(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)],
            top=[(0, 1, 2), (3, 4, 5)])


def test_overlapping_segments_rejected():
    # [0, 2] and [0, 1] share the vertex 0 and overlap along [0, 1]
    with pytest.raises(InvalidComplex) as info:
        SimplicialComplex(dim=1, vertices=[(0,), (2,), (3,), (1,)],
                          top=[(0, 1), (1, 2), (0, 3)])
    assert str(info.value) == "top simplices (0, 3) and (0, 1) overlap"
    # a segment inside another, listed right to left
    with pytest.raises(InvalidComplex):
        SimplicialComplex(dim=1, vertices=[(0,), (5,), (2,), (3,)],
                          top=[(1, 0), (3, 2)])


def test_segments_meeting_at_ends_accepted():
    complex_ = SimplicialComplex(dim=1, vertices=[(2,), (0,), (1,), (Fraction(5, 2),)],
                                 top=[(2, 0), (3, 0), (1, 2)])
    assert len(complex_.top) == 3


def test_duplicate_coordinates_rejected():
    with pytest.raises(InvalidComplex):
        SimplicialComplex(dim=2, vertices=[(0, 0), (1, 0), (0, 1), (0, 0)],
                          top=[(0, 1, 2), (3, 1, 2)])


def test_marked_facet_rejected():
    c = square()
    with pytest.raises(InvalidSubcomplex):
        Subcomplex(c, [(0, 2)], start=0, end=2)  # the diagonal is a facet


def test_marked_face_too_large_is_named_as_marked():
    # checked before the closure, so the message names the marked face itself
    tetra = SimplicialComplex(dim=3, vertices=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                              top=[(0, 1, 2, 3)])
    with pytest.raises(InvalidSubcomplex,
                       match=r"^marked face \(0, 1, 2, 3\) has dimension 3; must be at most 1$"):
        Subcomplex(tetra, [(3, 2, 1, 0)], start=0, end=1)
    with pytest.raises(InvalidSubcomplex, match=r"^marked face \(0, 2, 3\) has dimension 2"):
        Subcomplex(tetra, [(0, 1), (0, 2, 3)], start=0, end=1)
    n = 14
    simplex = SimplicialComplex(
        dim=n, vertices=[(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)],
        top=[tuple(range(n + 1))])
    with pytest.raises(InvalidSubcomplex, match=rf"^marked face \({', '.join(map(str, range(n + 1)))}\) "):
        Subcomplex(simplex, [tuple(range(n + 1))], start=0, end=1)


def test_marked_face_with_a_repeated_vertex_is_rejected():
    tetra = SimplicialComplex(dim=3, vertices=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                              top=[(0, 1, 2, 3)])
    with pytest.raises(InvalidSubcomplex, match=r"^repeated vertex 0 in marked face \(0, 0\)$"):
        Subcomplex(tetra, [(0, 0)], start=0, end=2)
    # named for the repeated vertex, not for its dimension
    with pytest.raises(InvalidSubcomplex, match=r"^repeated vertex 0 in marked face \(0, 0, 1, 2\)$"):
        Subcomplex(square(), [(0, 1, 2, 0)], start=0, end=2)
    assert Subcomplex(tetra, [(0,)], start=0, end=2).marked == ((0,),)


def test_marked_faces_closed_under_subfaces():
    c = grid_complex(1, 1)
    sub = Subcomplex(c, [(1,), (3,)], start=0, end=2)
    assert (1,) in sub.marked and (3,) in sub.marked


def test_endpoint_out_of_range():
    with pytest.raises(InvalidEndpoints):
        Subcomplex(square(), [], start=0, end=9)
    with pytest.raises(InvalidEndpoints, match="^end vertex True is not a vertex index$"):
        Subcomplex(square(), [], start=0, end=True)


# -- routing --------------------------------------------------------------------

def test_route_within_single_triangle():
    c = square()
    sub = Subcomplex(c, [(3,)], start=0, end=1)
    path = route_path(c, sub)
    assert path.tags == ("endpoint", "top-barycenter", "endpoint")
    assert path.waypoints[0] == (Fraction(0), Fraction(0))
    assert path.waypoints[1] == (Fraction(2, 3), Fraction(1, 3))
    assert path.waypoints[2] == (Fraction(1), Fraction(0))
    ok, witness = verify_avoidance(path, c, sub)
    assert ok and witness is None


def test_route_across_diagonal():
    c = square()
    sub = Subcomplex(c, [(0,), (2,)], start=1, end=3)
    path = route_path(c, sub)
    assert path.tags == ("endpoint", "top-barycenter", "facet-barycenter",
                         "top-barycenter", "endpoint")
    assert path.waypoints[2] == (Fraction(1, 2), Fraction(1, 2))
    ok, witness = verify_avoidance(path, c, sub)
    assert ok and witness is None


def test_route_disconnected():
    c = disjoint_triangles()
    sub = Subcomplex(c, [], start=0, end=3)
    with pytest.raises(Disconnected):
        route_path(c, sub)


def test_route_deterministic():
    c = grid_complex(3, 3)
    sub = Subcomplex(c, [(5,)], start=0, end=15)
    first = route_path(c, sub)
    second = route_path(c, sub)
    assert first.waypoints == second.waypoints
    assert first.tags == second.tags


def test_route_starts_and_ends_at_endpoints():
    c = grid_complex(2, 3)
    sub = Subcomplex(c, [], start=1, end=10)
    path = route_path(c, sub)
    assert path.waypoints[0] == c.vertices[1]
    assert path.waypoints[-1] == c.vertices[10]
    assert path.tags[0] == path.tags[-1] == "endpoint"


# -- avoidance verification --------------------------------------------------------

def test_straight_segment_through_marked_vertex_fails():
    # fan of four triangles around a marked center: the diagonal hits it
    c = SimplicialComplex(
        dim=2,
        vertices=[(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
        top=[(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    sub = Subcomplex(c, [(4,)], start=0, end=2)
    straight = PLPath(waypoints=(c.vertices[0], c.vertices[2]),
                      tags=("endpoint", "endpoint"))
    ok, witness = verify_avoidance(straight, c, sub)
    assert not ok
    assert witness == (0, (4,))
    # the routed path dodges the center
    path = route_path(c, sub)
    ok, witness = verify_avoidance(path, c, sub)
    assert ok and witness is None


def test_empty_subcomplex_always_avoided():
    c = square()
    sub = Subcomplex(c, [], start=1, end=3)
    path = route_path(c, sub)
    assert verify_avoidance(path, c, sub) == (True, None)


def test_marked_endpoint_is_exempt_at_its_end_only():
    c = square()
    sub = Subcomplex(c, [(0,), (2,)], start=0, end=2)
    path = route_path(c, sub)
    ok, witness = verify_avoidance(path, c, sub)
    assert ok and witness is None
    # a path that revisits the start vertex mid-way is a violation
    detour = PLPath(
        waypoints=(c.vertices[0], c.barycenter((0, 1, 2)), c.vertices[0]),
        tags=("endpoint", "top-barycenter", "endpoint"))
    sub_loop = Subcomplex(c, [(0,)], start=0, end=0)
    ok, witness = verify_avoidance(detour, c, sub_loop)
    assert ok  # endpoints exempt at both ends


def test_path_needs_one_tag_per_waypoint():
    with pytest.raises(InvalidPath, match="^2 waypoints but 1 tags$"):
        PLPath(waypoints=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
               tags=("endpoint",))


def test_waypoint_outside_complex_rejected():
    c = square()
    sub = Subcomplex(c, [], start=0, end=2)
    bad = PLPath(waypoints=((Fraction(0), Fraction(0)), (Fraction(7), Fraction(7))),
                 tags=("endpoint", "endpoint"))
    with pytest.raises(InvalidPath):
        verify_avoidance(bad, c, sub)


def test_barycenter_strictly_interior():
    c = square()
    for simplex in c.top:
        b = c.barycenter(simplex)
        vertices = [c.vertices[i] for i in simplex]
        matrix = [[v[r] for v in vertices] for r in range(2)]
        matrix.append([Fraction(1)] * 3)
        rhs = list(b) + [Fraction(1)]
        coords, direction = _solve_affine(matrix, rhs)
        assert direction is None
        assert all(lam == Fraction(1, 3) for lam in coords)


def test_point_in_simplex_boundary_and_interior():
    tri = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
           (Fraction(0), Fraction(2))]
    assert point_in_simplex((Fraction(1), Fraction(0)), tri)
    assert point_in_simplex((Fraction(1, 2), Fraction(1, 2)), tri)
    assert not point_in_simplex((Fraction(2), Fraction(2)), tri)


# -- randomized soundness -----------------------------------------------------------

def test_router_soundness_on_random_grids():
    rng = seeded(51)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        diagonals = [rng.randint(0, 1) for _ in range(rows * cols)]
        c = grid_complex(rows, cols, diagonals)
        nverts = len(c.vertices)
        start = rng.randrange(nverts)
        end = rng.randrange(nverts)
        marked = [(v,) for v in range(nverts) if rng.random() < 0.3]
        sub = Subcomplex(c, marked, start=start, end=end)
        path = route_path(c, sub)
        ok, witness = verify_avoidance(path, c, sub)
        assert ok, (rows, cols, diagonals, start, end, marked, witness)
