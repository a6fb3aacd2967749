"""Seeded request corpora, one per workload.

A workload is an endless sequence of rounds. Every round holds the same
request shapes (subcommand, dimension, degree, grid size) in a seeded order
with seeded coefficients, so two seeds load the same layers equally and the
spread between seeds stays small. Inputs are built with ``algebra`` only,
never with kholo, so they stay byte-identical across versions of the program.
Each request carries the facts its exact check needs.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from perfbench import algebra as A
from perfbench.algebra import G


@dataclass
class Request:
    kind: str                    # check to apply; usually the subcommand
    argv: list                   # arguments to kholo.cli.main
    stdin: str = ""              # the document, for "route -"
    expect: dict = field(default_factory=dict)

    def text(self):
        """The exact input the program receives."""
        return json.dumps([self.argv, self.stdin])


# -- random polynomials ---------------------------------------------------------------

def _scalar(rng, bound, real):
    def part():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
    while True:
        c = G(part(), 0 if real else part())
        if c:
            return c


def _monomial(rng, width, degree, among):
    exps = [0] * width
    for _ in range(degree):
        exps[rng.choice(among)] += 1
    return tuple(exps)


def random_poly(rng, width, degree, terms, bound=9, real=False, among=None):
    """Up to ``terms`` terms of degree <= ``degree``; the first has degree exactly."""
    among = list(range(width)) if among is None else among
    p = {}
    for k in range(terms):
        d = degree if k == 0 else rng.randint(0, degree)
        p[_monomial(rng, width, d, among)] = _scalar(rng, bound, real)
    return p


def _point(rng, n):
    return tuple(G(Fraction(rng.randint(-6, 6), rng.randint(1, 2)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 2))) for _ in range(n))


# -- cartan ---------------------------------------------------------------------------

def _holomorphic(rng, n, degree, terms=4):
    return random_poly(rng, n, degree, terms)


def _real_part(f, n):
    return A.real_part(A.real_coordinates(f, n))


def _bump(rng, n):
    """c*(x_j^2 + y_j^2): real, and never pluriharmonic."""
    j = rng.randrange(n)
    c = G(rng.randint(1, 9))
    width = 2 * n
    square = A.add(A.power(A.variable(j, width), 2, width),
                   A.power(A.variable(n + j, width), 2, width))
    return A.scale(square, c)


def _witnesses(u, n):
    out = {}
    for j in range(n):
        for k in range(n):
            d = A.mixed_wirtinger(u, j, k, n)
            if d:
                out[j + 1, k + 1] = d
    return out


def _reconstruct(rng, n, degree, pluriharmonic):
    f = _holomorphic(rng, n, degree)
    u = _real_part(f, n)
    if not pluriharmonic:
        u = A.add(u, _bump(rng, n))
    text = A.to_text(u, A.names_xy(n))
    return Request("reconstruct", ["reconstruct", "-n", str(n), "--", text],
                   expect={"n": n, "u": u, "f": f, "pluriharmonic": pluriharmonic})


def _pluriharmonic(rng, n, degree, pluriharmonic):
    u = _real_part(_holomorphic(rng, n, degree), n)
    if not pluriharmonic:
        u = A.add(u, _bump(rng, n))
    text = A.to_text(u, A.names_xy(n))
    return Request("pluriharmonic", ["pluriharmonic", "-n", str(n), "--", text],
                   expect={"n": n, "witnesses": _witnesses(u, n)})


def _verify_g(rng, n, degree):
    f = _holomorphic(rng, n, degree)
    return Request("verify-g", ["verify-g", "-n", str(n), "--",
                                A.to_text(f, A.names_z(n))])


CARTAN_ROUND = (
    [(_reconstruct, n, d, True) for n in (1, 2, 3) for d in (2, 4, 6, 8)]
    + [(_reconstruct, n, 4, False) for n in (1, 2, 3)]
    + [(_pluriharmonic, n, 6, ok) for n in (1, 2, 3) for ok in (True, False)]
    + [(_verify_g, 1, 8), (_verify_g, 2, 6), (_verify_g, 3, 4)]
)


# -- resultants ---------------------------------------------------------------------------

def _eliminate(rng, n, degree):
    """Quadratic annihilators (t - f_k)(t - g_k) of the parts f_k of a known f."""
    f = _holomorphic(rng, n, degree, terms=3)
    width = 2 * n + 1
    t = A.variable(2 * n, width)
    pair = []
    for part in (A.real_part, A.imag_part):
        fk = {e + (0,): c for e, c in part(A.real_coordinates(f, n)).items()}
        gk = random_poly(rng, width, 1, 2, real=True, among=list(range(2 * n)))
        pair.append(A.mul(A.sub(t, fk), A.sub(t, gk)))
    names = A.names_xyt(n)
    return Request("eliminate", ["eliminate", "-n", str(n), "--"]
                   + [A.to_text(p, names) for p in pair],
                   expect={"n": n, "f": A.to_text(f, A.names_z(n)), "exit": 0})


def _eliminate_t_free(rng, n):
    """Neither annihilator uses t: the resultant is undefined, exit 2."""
    names = A.names_xyt(n)
    among = list(range(2 * n))
    pair = [random_poly(rng, 2 * n + 1, 2, 2, real=True, among=among) for _ in range(2)]
    return Request("eliminate", ["eliminate", "-n", str(n), "--"]
                   + [A.to_text(p, names) for p in pair],
                   expect={"n": n, "exit": 2})


def _dense_in_t(rng, n, degree):
    """P(z, t) = sum c_k(z) t^k: every c_k a dense affine form, c_degree constant."""
    p = {}
    for k in range(degree):
        for j in range(n + 1):
            p[tuple(int(i == j) for i in range(n)) + (k,)] = _scalar(rng, 9, real=False)
    p[(0,) * n + (degree,)] = _scalar(rng, 3, real=False)
    return p


def _discriminant(rng, n, degree):
    p = _dense_in_t(rng, n, degree)
    z0 = _point(rng, n)
    return Request("discriminant", ["discriminant", "-n", str(n), "--",
                                    A.to_text(p, A.names_zt(n))],
                   expect={"n": n, "p": p, "z0": z0})


def _fibers(rng, n, degree, samples):
    p = _dense_in_t(rng, n, degree)
    coeffs = A.univariate(p, n)
    points = []
    while len(points) < samples:
        z0 = _point(rng, n)
        if A.discriminant([A.evaluate(c, z0) for c in coeffs]):
            points.append(z0)
    text = "; ".join(", ".join(A.scalar_text(c) for c in z0) for z0 in points)
    p_text = A.to_text(p, A.names_zt(n))
    return Request("fibers", ["fibers", "-n", str(n), "--", p_text, text],
                   expect={"n": n, "p": p_text, "degree": degree, "points": samples})


RESULTANTS_ROUND = (
    # by cost: 8 below the median, 3 alike at it, 5 above, then 4 of the
    # heaviest with 2 alike at the 90th percentile
    [(_eliminate, n, d) for n, d in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3))]
    + [(_eliminate_t_free, 1), (_discriminant, 1, 4), (_fibers, 1, 4, 20)]
    + [(_discriminant, 1, 5)] * 3
    + [(_fibers, 1, 5, 20), (_discriminant, 2, 4), (_fibers, 2, 4, 20),
       (_discriminant, 1, 6), (_fibers, 1, 6, 20)]
    + [(_discriminant, 3, 4), (_discriminant, 2, 5), (_discriminant, 2, 5),
       (_discriminant, 1, 8)]
)


# -- route ----------------------------------------------------------------------------------

def _route_doc(dim, vertices, top, marked, endpoints):
    return json.dumps({
        "ambient_dim": dim,
        "vertices": [[str(c) for c in v] for v in vertices],
        "top": [list(s) for s in top],
        "marked": [list(f) for f in marked],
        "endpoints": list(endpoints),
    })


def _grid(rng, rows, cols):
    """Unit squares, each split along a random diagonal."""
    vertices = [(c, r) for r in range(rows + 1) for c in range(cols + 1)]
    top = []
    for r in range(rows):
        for c in range(cols):
            a, b = r * (cols + 1) + c, r * (cols + 1) + c + 1
            d, e = b + cols + 1, a + cols + 1
            top += [(a, b, d), (a, d, e)] if rng.random() < 0.5 else [(a, b, e), (b, d, e)]
    return vertices, top


def _marks(rng, candidates, share):
    return sorted(rng.sample(candidates, round(share * len(candidates))))


def _route_grid(rng, rows, cols):
    vertices, top = _grid(rng, rows, cols)
    endpoints = (0, len(vertices) - 1)      # opposite corners: the longest routes
    marked = [(v,) for v in _marks(rng, range(1, len(vertices) - 1), 0.35)]
    return Request("route", ["route", "-"],
                   stdin=_route_doc(2, vertices, top, marked, endpoints),
                   expect={"exit": 0})


def _freudenthal(a, b, c):
    """Each unit cube cut into six tetrahedra along its main diagonal."""
    vertices = [(x, y, z) for z in range(c + 1) for y in range(b + 1) for x in range(a + 1)]
    index = {v: k for k, v in enumerate(vertices)}
    top = []
    for corner in vertices:
        if corner[0] < a and corner[1] < b and corner[2] < c:
            for order in permutations(range(3)):
                walk = [corner]
                for axis in order:
                    step = list(walk[-1])
                    step[axis] += 1
                    walk.append(tuple(step))
                top.append(tuple(index[v] for v in walk))
    return vertices, top


def _route_cubes(rng, a, b, c):
    vertices, top = _freudenthal(a, b, c)
    endpoints = (0, len(vertices) - 1)
    edges = sorted({tuple(sorted((s[i], s[j]))) for s in top
                    for i in range(4) for j in range(i + 1, 4)})
    # an edge through an endpoint would block the first or last segment
    edges = [e for e in edges if not set(e) & set(endpoints)]
    marked = ([(v,) for v in _marks(rng, range(1, len(vertices) - 1), 0.2)]
              + _marks(rng, edges, 0.1))
    return Request("route", ["route", "-"],
                   stdin=_route_doc(3, vertices, top, marked, endpoints),
                   expect={"exit": 0})


def _route_invalid(rng, rows, cols, defect):
    """A grid plus one triangle, listed first, that overlaps it: exit 2."""
    vertices, top = _grid(rng, rows, cols)
    if defect == "crossing":
        # a long thin triangle over the bottom row, crossing its interior edges
        bad = (0, cols + 1 + cols, cols + 1)
    else:
        # a new vertex strictly inside the first triangle, joined to two corners
        inside = tuple(sum(Fraction(vertices[v][k]) for v in top[0]) / 3 for k in range(2))
        vertices.append(inside)
        bad = (len(vertices) - 1, 0, cols)
    top.insert(0, bad)
    return Request("route", ["route", "-"],
                   stdin=_route_doc(2, vertices, top, [], (0, 1)),
                   expect={"exit": 2})


ROUTE_ROUND = (
    # four of the smallest and three of the largest grid, so that the median
    # and the 90th percentile fall inside a group of like requests
    [(_route_grid, r, c) for r, c in [(2, 2)] * 4 + [(2, 3), (3, 3), (3, 4)] + [(4, 4)] * 3]
    + [(_route_cubes, 1, 1, 1), (_route_cubes, 2, 1, 1), (_route_cubes, 2, 2, 1)]
    + [(_route_invalid, 2, 2, "crossing"), (_route_invalid, 3, 3, "inside")]
)


# -- workloads ----------------------------------------------------------------------------

ROUNDS = {"cartan": CARTAN_ROUND, "resultants": RESULTANTS_ROUND, "route": ROUTE_ROUND}


def rounds(workload, seed):
    """Endless seeded rounds, each the workload's shapes in a seeded order."""
    rng = random.Random(f"kholo-perfbench:{workload}:{seed}")
    while True:
        batch = [make(rng, *args) for make, *args in ROUNDS[workload]]
        rng.shuffle(batch)
        yield batch


# -- known defects ------------------------------------------------------------------------

def _nested_tetrahedra():
    big = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
    small = [(Fraction(1, 2),) * 3, (1, Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 2), 1, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2), 1)]
    return _route_doc(3, big + small, [(0, 1, 2, 3), (4, 5, 6, 7)], [], (0, 4))


KNOWN_DEFECTS = {
    # the true outcome of each request; today's program misses all three
    "cartan": Request("verdict", ["pluriharmonic", "-n", "2", "(x1+x2+y1+y2+1)^30"],
                      expect={"exits": (1, 2)}),
    "resultants": Request("fibers", ["fibers", "-n", "1", "t^2 - 10^400*z1", "1; 2"],
                          expect={"n": 1, "p": "t^2 - 10^400*z1", "degree": 2, "points": 2}),
    "route": Request("route", ["route", "-"], stdin=_nested_tetrahedra(),
                     expect={"exit": 2}),
}
