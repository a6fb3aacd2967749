"""Resultants and discriminants against sympy, where sympy is installed.

sympy is not a dependency of kholo; these tests skip without it.
"""

import pytest
from support import random_poly, seeded

from kholo.branches import discriminant
from kholo.eliminate import sylvester_resultant
from kholo.polynomials import VarSpace

sympy = pytest.importorskip("sympy")


def to_sympy(p):
    symbols = sympy.symbols(p.space.names)
    return sympy.Add(*[
        (sympy.Rational(c.x, c.d) + sympy.I * sympy.Rational(c.y, c.d))
        * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
        for exps, c in p.terms()])


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


def random_in_t(rng, n):
    """A Q(i) polynomial in (z1..zn, t) of degree <= 4 that uses t."""
    while True:
        p = random_poly(VarSpace.zt(n), rng, max_degree=4, max_terms=4)
        if p.degree_in("t") > 0:
            return p


@pytest.mark.parametrize("n", [1, 2])
def test_resultant_matches_sympy(n):
    rng = seeded(91 + n)
    t = sympy.Symbol("t")
    for _ in range(15):
        a, b = random_in_t(rng, n), random_in_t(rng, n)
        assert same(sylvester_resultant(a, b, "t"),
                    sympy.resultant(to_sympy(a), to_sympy(b), t))


@pytest.mark.parametrize("n", [1, 2])
def test_discriminant_matches_sympy(n):
    rng = seeded(93 + n)
    t = sympy.Symbol("t")
    for _ in range(15):
        p = random_in_t(rng, n)
        assert same(discriminant(p, "t"), sympy.discriminant(to_sympy(p), t))
