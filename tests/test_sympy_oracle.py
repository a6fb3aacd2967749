"""Resultants, discriminants and fiber counts against sympy, where installed.

sympy is not a dependency of kholo; these tests skip without it.
"""

import pytest
from support import random_gq, random_poly, seeded

from kholo.branches import discriminant, distinct_root_count_exact
from kholo.eliminate import sylvester_resultant
from kholo.polynomials import SparsePoly, VarSpace
from kholo.rationals import GaussianRational

sympy = pytest.importorskip("sympy")


def scalar_to_sympy(c):
    return sympy.Rational(c.x, c.d) + sympy.I * sympy.Rational(c.y, c.d)


def to_sympy(p):
    symbols = sympy.symbols(p.space.names)
    return sympy.Add(*[
        scalar_to_sympy(c) * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
        for exps, c in p.terms()])


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


def random_in_t(rng, n):
    """A Q(i) polynomial in (z1..zn, t) of degree <= 4 that uses t."""
    while True:
        p = random_poly(VarSpace.zt(n), rng, max_degree=4, max_terms=4)
        if p.degree_in("t") > 0:
            return p


def dense_in_t(rng, n, degree):
    """sum c_k(z) t^k with every c_k a dense affine form in z and c_degree a nonzero constant."""
    terms = {}
    for k in range(degree):
        for j in range(n + 1):
            terms[tuple(int(i == j) for i in range(1, n + 1)) + (k,)] = random_gq(rng)
    terms[(0,) * n + (degree,)] = GaussianRational(rng.randint(1, 3), rng.randint(-3, 3))
    return SparsePoly.from_terms(VarSpace.zt(n), terms)


@pytest.mark.parametrize("n", [1, 2])
def test_resultant_matches_sympy(n):
    rng = seeded(91 + n)
    t = sympy.Symbol("t")
    for _ in range(15):
        a, b = random_in_t(rng, n), random_in_t(rng, n)
        assert same(sylvester_resultant(a, b, "t"),
                    sympy.resultant(to_sympy(a), to_sympy(b), t))


# the dense case has the shape of the benchmark's heaviest discriminant
# requests; its degree is lower at n = 2 because sympy's cost grows fast
# with the number of variables
DENSE_DEGREE = {1: 8, 2: 6}


@pytest.mark.parametrize("n", [1, 2])
def test_discriminant_matches_sympy(n):
    dense_degree = DENSE_DEGREE[n]
    rng = seeded(93 + n)
    t = sympy.Symbol("t")
    for _ in range(15):
        p = random_in_t(rng, n)
        assert same(discriminant(p, "t"), sympy.discriminant(to_sympy(p), t))
    p = dense_in_t(rng, n, dense_degree)
    assert same(discriminant(p, "t"), sympy.discriminant(to_sympy(p), t))


def sympy_distinct_root_count(p, z0):
    """deg P(z0, t) - deg gcd(P(z0, t), dP/dt(z0, t)), by sympy."""
    t = sympy.Symbol("t")
    point = {sympy.Symbol(name): scalar_to_sympy(c) for name, c in z0.items()}
    p0 = sympy.expand(to_sympy(p).subs(point))
    return sympy.degree(p0, t) - sympy.degree(sympy.gcd(p0, sympy.diff(p0, t)), t)


def random_point(rng, n):
    return {f"z{j}": GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for j in range(1, n + 1)}


@pytest.mark.parametrize("n", [1, 2])
def test_distinct_root_count_matches_sympy(n):
    """Off the locus, and on it: two roots that meet at z0, and a square factor."""
    rng = seeded(95 + n)
    space = VarSpace.zt(n)
    t = SparsePoly.variable(space, "t")
    z1 = SparsePoly.variable(space, "z1")
    for _ in range(8):
        z0 = random_point(rng, n)
        root = random_poly(space.drop("t"), rng, max_degree=1, max_terms=2)
        root = SparsePoly.from_terms(space, {e + (0,): c for e, c in root.terms()})
        # root and root + (z1 - z0_1) * c meet exactly over z1 = z0_1
        other = root + (z1 - z0["z1"]) * random_gq(rng)
        # a constant leading coefficient survives at z0
        lead = GaussianRational(rng.randint(1, 5), rng.randint(-3, 3))
        rest = t ** 3 * lead + random_poly(space, rng, max_degree=2, max_terms=3,
                                           allow_zero=True)
        for p in (dense_in_t(rng, n, rng.randint(2, 5)),
                  (t - root) * (t - other) * rest,
                  (t - root) ** 2 * rest):
            assert distinct_root_count_exact(p, z0) == sympy_distinct_root_count(p, z0)
