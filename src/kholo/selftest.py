"""Seeded checks shared by ``kholo selftest`` and the acceptance suite.

Each check runs one pipeline over a seeded corpus and returns None, or a
one-line description of the first failure; none relies on ``assert``, so
``python -O`` runs them all.  A check takes its rng and its corpus sizes as
arguments.  The defaults are the small sizes ``kholo selftest`` runs; the
acceptance suite (``tests/test_acceptance.py``) calls the same functions at
its pinned seeds and larger sizes.  ``CHECKS`` lists them in the command's
order, and :func:`run` prints one line each.  The random generators below
are also the test suite's (``tests/support.py`` re-exports them).
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from kholo.branches import covering_check, discriminant, distinct_root_count_exact, locus_membership
from kholo.cartan import reconstruct_from_real_part, restrict_g_identity, verify_g_holomorphic
from kholo.eliminate import AnnihilatorPair, eliminate_annihilator, verify_annihilator
from kholo.errors import Disconnected, InvalidComplex, KholoError
from kholo.exprio import format_gaussian, parse_poly, print_poly
from kholo.polynomials import SparsePoly, VarSpace, rename_space, split_real_imag
from kholo.rationals import GaussianRational
from kholo.simplicial import SimplicialComplex, Subcomplex, route_path, verify_avoidance


def random_fraction(rng, bound=10):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gq(rng, bound=10, real=False):
    re = random_fraction(rng, bound)
    im = Fraction(0) if real else random_fraction(rng, bound)
    return GaussianRational(re, im)


def random_poly(space, rng, max_degree=4, max_terms=6, bound=10, real=False,
                zero_constant=False, allow_zero=False):
    width = len(space.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(width)] += 1
        if zero_constant and sum(exps) == 0:
            exps[rng.randrange(width)] = 1
        coeff = random_gq(rng, bound, real=real)
        if coeff:
            terms[tuple(exps)] = coeff
    p = SparsePoly.from_terms(space, terms)
    if p.is_zero() and not allow_zero:
        return SparsePoly.variable(space, space.names[rng.randrange(width)])
    return p


def grid_complex(rows, cols, diagonals=None):
    """Unit-square grid, each cell split into two triangles.

    ``diagonals`` maps cell index (row-major) to 0 (main diagonal) or 1
    (anti-diagonal); defaults to all main.
    """
    vertices = [(c, r) for r in range(rows + 1) for c in range(cols + 1)]

    def v(r, c):
        return r * (cols + 1) + c

    top = []
    for r in range(rows):
        for c in range(cols):
            a, b = v(r, c), v(r, c + 1)
            d, e = v(r + 1, c + 1), v(r + 1, c)
            if diagonals is None or diagonals[r * cols + c] == 0:
                top += [(a, b, d), (a, d, e)]
            else:
                top += [(a, b, e), (b, d, e)]
    return SimplicialComplex(dim=2, vertices=vertices, top=top)


def rational_complex(rng, dim, max_side, bound=9):
    """A seeded valid complex in the plane or in space with mixed-denominator
    rational vertices.

    A grid of 1..``max_side`` cells per axis (split squares with random
    diagonals in the plane, cubes split into Freudenthal's six tetrahedra in
    space) is mapped by a random invertible rational affine map, which keeps
    it a triangulation.
    """
    if dim == 2:
        rows, cols = rng.randint(1, max_side), rng.randint(1, max_side)
        grid = grid_complex(rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])
        points, top = grid.vertices, grid.top
    else:
        sides = [rng.randint(1, max_side) for _ in range(dim)]
        points = list(product(*(range(side + 1) for side in sides)))
        index = {p: k for k, p in enumerate(points)}
        top = []
        for corner in product(*(range(side) for side in sides)):
            for order in permutations(range(dim)):
                walk = [list(corner)]
                for axis in order:
                    walk.append(walk[-1][:])
                    walk[-1][axis] += 1
                top.append(tuple(index[tuple(p)] for p in walk))
    while True:
        matrix = [[random_fraction(rng, bound) for _ in range(dim)] for _ in range(dim)]
        # the map is invertible iff the images of the unit simplex span R^dim
        try:
            SimplicialComplex(dim, [[0] * dim] + matrix, [tuple(range(dim + 1))])
            break
        except InvalidComplex:
            continue
    shift = [random_fraction(rng, bound) for _ in range(dim)]
    vertices = [tuple(shift[r] + sum(row[r] * c for row, c in zip(matrix, p))
                      for r in range(dim)) for p in points]
    return SimplicialComplex(dim=dim, vertices=vertices, top=top)


@dataclass(frozen=True)
class Corpus:
    """``count`` random polynomials, each in ``kind(n)`` with n drawn from
    ``dims``; a kind is drawn from ``kinds`` only when there are several."""

    count: int
    dims: tuple = (1, 2)
    kinds: tuple = (VarSpace.z,)
    max_degree: int = 4
    max_terms: int = 6
    bound: int = 10
    zero_constant: bool = False
    allow_zero: bool = False

    def draw(self, rng):
        for _ in range(self.count):
            n = rng.choice(self.dims)
            kind = rng.choice(self.kinds) if len(self.kinds) > 1 else self.kinds[0]
            yield random_poly(kind(n), rng, self.max_degree, self.max_terms, self.bound,
                              zero_constant=self.zero_constant, allow_zero=self.allow_zero)


def check_field_axioms(rng, trials=200):
    for _ in range(trials):
        a, b, c = random_gq(rng), random_gq(rng), random_gq(rng)
        if ((a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c
                or (a and a * (1 / a) != GaussianRational(1))
                or (a * b).conjugate() != a.conjugate() * b.conjugate()):
            return "an axiom fails at " + ", ".join(map(format_gaussian, (a, b, c)))
    return None


def check_round_trip(rng, corpus=Corpus(20, zero_constant=True)):
    """Re f reconstructs f; the corpus must have zero constant terms."""
    for f in corpus.draw(rng):
        report = reconstruct_from_real_part(split_real_imag(f)[0])
        if not report.reconstructed or report.candidate != f:
            return f"the real part of {print_poly(f)} does not reconstruct it"
    return None


def check_g(rng, corpus=Corpus(10, max_degree=3)):
    for f in corpus.draw(rng):
        ok, witnesses = verify_g_holomorphic(f)
        if not ok or witnesses or not restrict_g_identity(f).ok:
            return f"the g identities fail for {print_poly(f)}"
    return None


def check_elimination(rng, corpus=Corpus(10, max_degree=3, max_terms=4)):
    """The annihilator eliminated from t - Re f and t - Im f annihilates f."""
    for f in corpus.draw(rng):
        f1, f2 = split_real_imag(f)
        space = VarSpace.xyt(f.space.n)
        lift = {name: name for name in f1.space.names}
        t = SparsePoly.variable(space, "t")
        pair = AnnihilatorPair(p1=t - rename_space(f1, space, lift),
                               p2=t - rename_space(f2, space, lift), n=f.space.n)
        report = eliminate_annihilator(pair)
        if report.degenerate or not verify_annihilator(report.annihilator, f):
            return f"no annihilator of {print_poly(f)} was eliminated"
    return None


_DISCRIMINANTS = (("t^2 - z1", "4*z1"), ("t^2 + 2*t - z1", "4*z1 + 4"), ("t^3 - z1", "-27*z1^2"))


def check_discriminants(rng):
    """Three golden discriminants; draws nothing from ``rng``."""
    for text, expected in _DISCRIMINANTS:
        got = discriminant(parse_poly(text, VarSpace.zt(1)), "t")
        if got != parse_poly(expected, VarSpace.z(1)):
            return f"disc({text}) = {print_poly(got)}, expected {expected}"
    return None


def check_fibers(rng, family=((1, "t^2 - z1"),), samples=5, bound=9):
    """Each (n, P) of ``family`` has deg_t P distinct roots over every sample
    point off its discriminant locus, by covering_check and by an exact gcd."""
    for n, text in family:
        p = parse_poly(text, VarSpace.zt(n))
        degree = p.degree_in("t")
        locus = discriminant(p, "t")
        points = []
        while len(points) < samples:
            z0 = tuple(random_gq(rng, bound) for _ in range(n))
            if not locus_membership(locus, z0):
                points.append(z0)
        report = covering_check(p, points)
        for sample in report.samples:
            counts = {report.covering_degree, sample.fiber_count,
                      distinct_root_count_exact(p, sample.point)}
            if counts != {degree}:
                return f"{text} has fiber counts {sorted(counts)}, expected {degree}"
    return None


def check_router(rng, grids=1, max_side=1):
    """Routes on random grids avoid their marked vertices; two separate
    triangles are reported disconnected."""
    for _ in range(grids):
        rows, cols = rng.randint(1, max_side), rng.randint(1, max_side)
        complex_ = grid_complex(rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])
        nverts = len(complex_.vertices)
        start, end = rng.randrange(nverts), rng.randrange(nverts)
        marked = [(v,) for v in range(nverts) if rng.random() < 0.35]
        sub = Subcomplex(complex_, marked, start=start, end=end)
        ok, witness = verify_avoidance(route_path(complex_, sub), complex_, sub)
        if not ok:
            return f"the route from {start} to {end} in a {rows}x{cols} grid fails: {witness}"
    split = SimplicialComplex(dim=2, vertices=[(0, 0), (1, 0), (0, 1), (9, 9), (10, 9), (9, 10)],
                              top=[(0, 1, 2), (3, 4, 5)])
    try:
        route_path(split, Subcomplex(split, [], start=0, end=3))
    except Disconnected:
        return None
    return "a route joined two separate triangles"


def check_waypoints(rng, complexes=1, max_side=2):
    """On rational complexes in the plane and in space, the barycenter of each
    top and of one of its facets is the mean of its vertices, and every
    waypoint of a route between two random vertices lies in the complex."""
    for _ in range(complexes):
        for dim in (2, 3):
            complex_ = rational_complex(rng, dim, max_side)
            for simplex in complex_.top:
                for face in (simplex, simplex[1:]):
                    points = [complex_.vertices[i] for i in face]
                    mean = tuple(sum(column) / len(face) for column in zip(*points))
                    if complex_.barycenter(face) != mean:
                        return f"the barycenter of {face} in a {dim}-D complex is not its mean"
            nverts = len(complex_.vertices)
            sub = Subcomplex(complex_, [], start=rng.randrange(nverts), end=rng.randrange(nverts))
            for point in route_path(complex_, sub).waypoints:
                if not complex_.contains_point(point):
                    return f"a waypoint of a {dim}-D route lies outside its complex"
    return None


_FUZZ_ALPHABET = "xyzwti0123456789+-*/^()., ;@#$%&[]{}\\\"'`~=<>?!éβ\n\t"


def check_parser(rng, corpus=Corpus(50, kinds=(VarSpace.xy,)), fuzz=200, fuzz_length=30):
    """Printed polynomials parse back to themselves.  Random strings of up
    to ``fuzz_length`` characters must raise nothing but a KholoError; any
    other exception propagates, with its traceback, as the failure."""
    for p in corpus.draw(rng):
        back = parse_poly(print_poly(p), p.space)
        if back != p:
            return f"{print_poly(p)} reads back as {print_poly(back)}"
    space = VarSpace.xy(2)
    for _ in range(fuzz):
        text = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(1, fuzz_length)))
        try:
            parse_poly(text, space)
        except KholoError:
            pass
    return None


CHECKS = (
    ("field axioms", check_field_axioms),
    ("cartan round trip", check_round_trip),
    ("g restriction and holomorphy", check_g),
    ("annihilator elimination", check_elimination),
    ("discriminant goldens", check_discriminants),
    ("fiber constancy", check_fibers),
    ("barycentric router", check_router),
    ("waypoints and barycenters", check_waypoints),
    ("parser round trip and fuzz", check_parser),
)


def run(seed=0, stream=None):
    """Run every check on one rng; print one line each; return a process exit code."""
    stream = stream or sys.stdout
    rng = random.Random(seed)
    failed = False
    for name, check in CHECKS:
        failure = check(rng)
        stream.write(f"selftest {name}: {'ok' if failure is None else 'FAIL: ' + failure}\n")
        failed = failed or failure is not None
    return 1 if failed else 0
