"""Exact Gaussian-rational arithmetic."""

from fractions import Fraction

import pytest
from support import (
    assert_canonical_gq,
    random_gq,
    random_term_map,
    seeded,
    terms_mul_oracle,
)

from kholo.errors import DivisionByZero
from kholo.rationals import (
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    terms_add,
    terms_mul,
    terms_mul_sub,
    terms_sub,
)


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_mul_conjugate_pair():
    assert gq(1, 1) * gq(1, -1) == gq(2)


def test_additive_identity():
    assert GQ_ZERO + gq(Fraction(3, 2), 1) == gq(Fraction(3, 2), 1)


def test_inverse_of_i():
    # oracle: the claimed inverse times i must be 1
    result = GQ_ONE / GQ_I
    assert result * GQ_I == GQ_ONE
    assert result == gq(0, -1)


def test_division_general():
    a = gq(Fraction(3, 2), Fraction(-1, 3))
    b = gq(2, 5)
    assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GQ_ONE / GQ_ZERO


def test_conjugate_examples():
    assert gq(1, 2).conjugate() == gq(1, -2)
    assert gq(Fraction(5, 3)).conjugate() == gq(Fraction(5, 3))
    # (1+i)(2-i) = 3+i, so both routes must land on 3-i
    product = gq(1, 1) * gq(2, -1)
    assert product == gq(3, 1)
    assert product.conjugate() == gq(1, 1).conjugate() * gq(2, -1).conjugate()
    assert product.conjugate() == gq(3, -1)


def test_conjugation_involution_and_ring_morphism():
    rng = seeded(11)
    for _ in range(300):
        a = random_gq(rng)
        b = random_gq(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_field_axioms_random_triples():
    rng = seeded(23)
    for _ in range(1000):
        a, b, c = (random_gq(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GQ_ZERO
        if a:
            assert a * (GQ_ONE / a) == GQ_ONE


def test_canonical_form_of_all_outputs():
    rng = seeded(37)
    for _ in range(500):
        a = random_gq(rng)
        b = random_gq(rng)
        for value in (a + b, a - b, a * b, -a, a.conjugate()):
            assert_canonical_gq(value)
        if b:
            assert_canonical_gq(a / b)


def test_int_and_fraction_coercion():
    assert gq(2) + 1 == gq(3)
    assert 1 + gq(2) == gq(3)
    assert 2 * GQ_I == gq(0, 2)
    assert Fraction(1, 2) * gq(4) == gq(2)
    assert 1 - gq(0, 1) == gq(1, -1)
    assert 1 / GQ_I == gq(0, -1)


def test_is_real_predicate():
    assert gq(Fraction(7, 3)).is_real()
    assert not gq(0, Fraction(1, 10**40)).is_real()


def test_pow():
    assert GQ_I ** 2 == gq(-1)
    assert gq(1, 1) ** 4 == gq(-4)
    assert gq(5) ** 0 == GQ_ONE
    c = gq(Fraction(2, 3), Fraction(-1, 5))
    assert gq(0) ** 0 == GQ_ONE
    assert c ** 0 == GQ_ONE
    assert c ** 1 == c
    assert gq(0) ** 1 == gq(0)
    assert c ** 3 == c * c * c
    for bad in (-1, -4, 2.0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            c ** bad


def test_hash_consistency():
    assert hash(gq(1, 2)) == hash(GaussianRational(1, 2))
    values = {gq(1, 2), GaussianRational(1, 2), gq(2, 1)}
    assert len(values) == 2


# -- properties against an independent oracle: pairs of Fractions (re, im) ------

def _pair(c):
    return c.re, c.im


def _oracle_mul(p, q):
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c


def _oracle_div(p, q):
    (a, b), (c, d) = p, q
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def test_scalar_ops_match_fraction_pair_oracle():
    rng = seeded(71)
    for _ in range(300):
        a, b = random_gq(rng), random_gq(rng)
        pa, pb = _pair(a), _pair(b)
        assert _pair(a + b) == (pa[0] + pb[0], pa[1] + pb[1])
        assert _pair(a - b) == (pa[0] - pb[0], pa[1] - pb[1])
        assert _pair(a * b) == _oracle_mul(pa, pb)
        assert _pair(-a) == (-pa[0], -pa[1])
        assert _pair(a.conjugate()) == (pa[0], -pa[1])
        if b:
            assert _pair(a / b) == _oracle_div(pa, pb)


def test_product_then_quotient_returns_the_same_value_and_hash():
    rng = seeded(73)
    for _ in range(300):
        a, b = random_gq(rng), random_gq(rng)
        if not b:
            continue
        back = (a * b) / b
        assert back == a
        assert hash(back) == hash(a)


def _schoolbook(op, a, b):
    """Term maps as {exps: (Fraction, Fraction)}, zero terms dropped."""
    if op == "mul":
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                re, im = out.get(e, (0, 0))
                pre, pim = _oracle_mul(ca, cb)
                out[e] = (re + pre, im + pim)
    else:
        out = dict(a)
        sign = 1 if op == "add" else -1
        for e, (re, im) in b.items():
            ore, oim = out.get(e, (0, 0))
            out[e] = (ore + sign * re, oim + sign * im)
    return {e: c for e, c in out.items() if c != (0, 0)}


def test_term_kernels_match_schoolbook_oracle():
    rng = seeded(83)
    kernels = {"add": terms_add, "sub": terms_sub, "mul": terms_mul}
    for _ in range(50):
        width = rng.randint(1, 4)

        def term_map():
            out = {}
            for _ in range(rng.randint(1, 8)):
                c = random_gq(rng)
                if c:
                    out[tuple(rng.randint(0, 3) for _ in range(width))] = c
            return out

        a, b = term_map(), term_map()
        pa = {e: _pair(c) for e, c in a.items()}
        pb = {e: _pair(c) for e, c in b.items()}
        for op, kernel in kernels.items():
            got = {e: _pair(c) for e, c in kernel(a, b).items()}
            assert got == _schoolbook(op, pa, pb)


def test_terms_mul_matches_the_operator_oracle():
    rng = seeded(84)
    for trial in range(100):
        width = rng.randint(1, 4)
        a = random_term_map(rng, width, rng.randint(0, 8), huge=trial % 5 == 0)
        b = random_term_map(rng, width, rng.randint(0, 8), huge=trial % 7 == 0)
        got = terms_mul(a, b)
        assert got == terms_mul_oracle(a, b)
        for c in got.values():
            assert c
            assert_canonical_gq(c)
        # (a + b)(a - b) = a^2 - b^2: the cross terms cancel to zero
        assert (terms_mul(terms_add(a, b), terms_sub(a, b))
                == terms_sub(terms_mul_oracle(a, a), terms_mul_oracle(b, b)))


def test_terms_mul_sub_matches_the_operator_oracle():
    rng = seeded(86)
    for trial in range(100):
        width = rng.randint(1, 4)
        a, b, c, d = (random_term_map(rng, width, rng.randint(0, 6), huge=trial % (3 + k) == 0)
                      for k in range(4))
        got = terms_mul_sub(a, b, c, d)
        assert got == terms_sub(terms_mul_oracle(a, b), terms_mul_oracle(c, d))
        for v in got.values():
            assert v
            assert_canonical_gq(v)
        # exact cancellation, in either order of the factors
        assert terms_mul_sub(a, b, a, b) == {}
        assert terms_mul_sub(a, b, b, a) == {}


def test_terms_mul_sub_with_empty_factors():
    a = {(1, 0): gq(Fraction(1, 3), 2), (0, 2): gq(Fraction(-5, 6))}
    b = {(0, 1): gq(Fraction(1, 2), Fraction(-7, 3)), (0, 0): gq(4)}
    assert terms_mul_sub({}, {}, {}, {}) == {}
    assert terms_mul_sub(a, b, {}, a) == terms_mul_sub(a, b, b, {}) == terms_mul_oracle(a, b)
    minus = terms_sub({}, terms_mul_oracle(a, b))
    assert terms_mul_sub({}, b, a, b) == terms_mul_sub(a, {}, b, a) == minus


def test_terms_mul_of_an_empty_map_is_empty():
    a = {(1, 0): GaussianRational(Fraction(1, 3), 2)}
    assert terms_mul({}, a) == terms_mul(a, {}) == terms_mul({}, {}) == {}
    assert terms_mul_oracle({}, a) == terms_mul_oracle(a, {}) == {}


def test_cancellation_drops_terms_in_both():
    one = GaussianRational(1)
    minus = GaussianRational(-1)
    assert terms_add({(1,): one}, {(1,): minus}) == {}
    assert terms_mul({(1,): one, (0,): one},
                     {(1,): one, (0,): minus}) == {(2,): one,
                                                   (0,): minus}
