"""Polynomial carrier type: arithmetic, substitution, calculus, splitting."""

from fractions import Fraction

import pytest
from support import (
    assert_canonical_gq,
    eval_oracle,
    random_fraction,
    random_gq,
    random_poly,
    random_term_map,
    seeded,
    split_matches_evaluation,
    terms_mul_oracle,
    try_divide_oracle,
)

from kholo.errors import (
    DegreeOverflow,
    IncompleteAssignment,
    IncompleteSubstitution,
    IndexOutOfRange,
    InexactDivision,
    NonZSpace,
    SpaceMismatch,
    UnknownVariable,
)
from kholo.exprio import parse_poly
from kholo.polynomials import (
    LinearSubst,
    SparsePoly,
    VarSpace,
    exact_divide,
    mul_sub,
    split_real_imag,
    substitute_variable,
    try_divide,
    univariate_coefficients,
    wirtinger,
)
from kholo.rationals import GQ_I, GaussianRational

XY1 = VarSpace.xy(1)
Z1 = VarSpace.z(1)
ZT1 = VarSpace.zt(1)


def xy(text, n=1):
    return parse_poly(text, VarSpace.xy(n))


def zp(text, n=1):
    return parse_poly(text, VarSpace.z(n))


# -- ring arithmetic -----------------------------------------------------------

def test_add_cancels_to_canonical():
    assert xy("x^2 - y^2") + xy("y^2") == xy("x^2")


def test_difference_of_squares():
    t = SparsePoly.variable(ZT1, "t")
    z = SparsePoly.variable(ZT1, "z1")
    assert (t - z) * (t + z) == parse_poly("t^2 - z1^2", ZT1)


def test_complex_coefficient_product():
    # oracle: the coefficient is (1+i)(1-i) computed by scalar arithmetic
    coeff = GaussianRational(1, 1) * GaussianRational(1, -1)
    assert coeff == GaussianRational(2)
    lhs = zp("(1+i)*z1") * zp("(1-i)*z1")
    assert lhs == zp("2*z1^2")


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        zp("z1") + xy("x1")
    with pytest.raises(SpaceMismatch):
        mul_sub(zp("1"), zp("1"), zp("1"), xy("1"))


def test_zero_terms_never_stored():
    p = xy("x^2") - xy("x^2")
    assert p.is_zero() and len(p) == 0
    p.validate()


def test_scalar_coercion():
    assert zp("z1") * 2 == zp("2*z1")
    assert 2 * zp("z1") == zp("2*z1")
    assert zp("z1") + 1 == zp("z1 + 1")
    assert Fraction(1, 2) * zp("z1") == zp("(1/2)*z1")


def test_degree_overflow_guard():
    p = zp("z1^999999")
    with pytest.raises(DegreeOverflow):
        p * p
    with pytest.raises(DegreeOverflow):
        p ** 3
    one = zp("1")
    with pytest.raises(DegreeOverflow):
        mul_sub(p, p, one, one)
    with pytest.raises(DegreeOverflow):
        mul_sub(one, one, p, p)


def test_pow_edges():
    zero = SparsePoly.zero(Z1)
    assert zero ** 0 == zp("1")
    assert zero ** 1 == zero and zero ** 5 == zero
    p = zp("(1/2)*z1 + i")
    assert p ** 0 == zp("1")
    assert p ** 1 == p
    assert p ** 5 == p * p * p * p * p
    # the degree guard does not look at exponent 0
    assert zp("z1^999999") ** 0 == zp("1")
    for bad in (-1, 2.0):
        with pytest.raises(TypeError):
            p ** bad


def test_mul_sub_is_the_difference_of_products():
    a, b, c, d = zp("z1 + 1/2"), zp("z1 - 1/3"), zp("2/3*z1"), zp("z1 + i")
    assert mul_sub(a, b, c, d) == a * b - c * d
    assert mul_sub(a, b, a, b).is_zero()
    assert mul_sub(a, b, SparsePoly.zero(Z1), d) == a * b
    assert mul_sub(SparsePoly.zero(Z1), b, c, d) == -(c * d)


def test_xy_pair_count():
    assert VarSpace.xyt(3).xy_pair_count() == 3
    assert VarSpace.xy(1).xy_pair_count() == 1
    assert VarSpace.zt(2).xy_pair_count() == 0
    for names in (["x1", "y2"], ["x1", "x2", "y1"], ["x2", "y2"], ["y1", "x1", "y3", "x3"]):
        space = VarSpace(names, 1)
        with pytest.raises(IndexOutOfRange,
                           match=rf"^\({', '.join(names)}\) does not carry complete x/y pairs$"):
            space.xy_pair_count()
    assert VarSpace(["y2", "t", "x1", "y1", "x2"], 2).xy_pair_count() == 2


# -- partial derivatives ---------------------------------------------------------

def test_partial_power_rule():
    p = xy("x^3 - 3*x*y^2")
    assert p.partial("x1") == xy("3*x^2 - 3*y^2")


def test_partial_in_t():
    p = parse_poly("t^2 - z1", ZT1)
    assert p.partial("t") == parse_poly("2*t", ZT1)


def test_partial_unknown_variable():
    with pytest.raises(UnknownVariable):
        zp("z1").partial("q7")


def test_leibniz_rule_random():
    rng = seeded(5)
    space = VarSpace.xy(2)
    for _ in range(30):
        p = random_poly(space, rng, max_degree=3)
        q = random_poly(space, rng, max_degree=3)
        name = rng.choice(space.names)
        assert (p * q).partial(name) == p.partial(name) * q + q.partial(name) * p


def test_partials_commute_random():
    rng = seeded(6)
    space = VarSpace.xy(2)
    for _ in range(30):
        p = random_poly(space, rng, max_degree=4)
        u = rng.choice(space.names)
        v = rng.choice(space.names)
        assert p.partial(u).partial(v) == p.partial(v).partial(u)


# -- substitution -----------------------------------------------------------------

def test_subst_complexification():
    s = LinearSubst(Z1, XY1, {"z1": xy("x") + xy("y") * GQ_I})
    assert s.apply(zp("z1^2")) == xy("x^2 - y^2") + xy("2*x*y") * GQ_I


def test_subst_halving():
    s = LinearSubst(Z1, Z1, {"z1": zp("z1") * Fraction(1, 2)})
    assert s.apply(zp("z1^2")) == zp("(1/4)*z1^2")


def test_subst_by_inverse_of_2i():
    # oracle: 1/(2i) = -i/2 by scalar division
    scale = GaussianRational(1) / GaussianRational(0, 2)
    assert scale == GaussianRational(0, Fraction(-1, 2))
    s = LinearSubst(Z1, Z1, {"z1": zp("z1") * scale})
    assert s.apply(zp("z1")) == zp("(-1/2*i)*z1")


def test_subst_is_ring_homomorphism_random():
    rng = seeded(7)
    source = VarSpace.z(2)
    target = VarSpace.xy(2)
    for _ in range(200):
        images = {}
        for name in source.names:
            form = SparsePoly.constant(target, random_gq(rng, 5))
            for tname in target.names:
                form = form + SparsePoly.variable(target, tname, random_gq(rng, 5))
            images[name] = form
        s = LinearSubst(source, target, images)
        p = random_poly(source, rng, max_degree=3, max_terms=4)
        q = random_poly(source, rng, max_degree=3, max_terms=4)
        assert s.apply(p * q) == s.apply(p) * s.apply(q)
        assert s.apply(p + q) == s.apply(p) + s.apply(q)


def test_incomplete_substitution():
    s = LinearSubst(VarSpace.z(2), Z1, {"z1": zp("z1")})
    with pytest.raises(IncompleteSubstitution):
        s.apply(parse_poly("z1*z2", VarSpace.z(2)))
    # unused variables need no image
    assert s.apply(parse_poly("z1^3", VarSpace.z(2))) == zp("z1^3")


def test_substitute_variable_horner():
    r = parse_poly("t^2 + 2*t - z1", ZT1)
    f = zp("z1^2 - 1")
    direct = (f * f) + (f * 2) - zp("z1")
    assert substitute_variable(r, "t", f) == direct


# -- evaluation --------------------------------------------------------------------

def test_eval_examples():
    p = parse_poly("t^2 - z1", ZT1)
    assert not p.eval({"t": 3, "z1": 9})
    q = xy("x^2 + y^2")
    assert not q.eval({"x1": 1, "y1": GQ_I})


def test_eval_at_zero_gives_constant_term():
    rng = seeded(8)
    for _ in range(20):
        p = random_poly(VarSpace.xy(2), rng, allow_zero=True)
        zeros = {name: 0 for name in p.space.names}
        assert p.eval(zeros) == p.constant_term()


def test_eval_incomplete_assignment():
    with pytest.raises(IncompleteAssignment):
        parse_poly("t - z1", ZT1).eval({"t": 1})
    with pytest.raises(IncompleteAssignment):
        eval_oracle(parse_poly("t - z1", ZT1), {"t": 1})


def test_eval_matches_the_operator_oracle():
    rng = seeded(85)
    for trial in range(120):
        width = rng.randint(1, 3)
        space = VarSpace([f"z{j}" for j in range(1, width + 1)], width)
        huge = trial % 4 == 0
        p = SparsePoly.from_terms(space, random_term_map(rng, width, rng.randint(0, 8), huge))
        point = {}
        for name in space.names:
            if rng.random() < 0.2:
                point[name] = 0
            elif huge and rng.random() < 0.5:
                point[name] = GaussianRational(Fraction(rng.randint(-10**420, 10**420),
                                                        rng.randint(1, 10**410)),
                                               rng.randint(-10**405, 10**405))
            else:
                point[name] = random_gq(rng)
        value = p.eval(point)
        assert value == eval_oracle(p, point)
        assert_canonical_gq(value)
        # a polynomial that vanishes at the point evaluates to the canonical zero
        zero = (p - value).eval(point)
        assert not zero
        assert (zero.x, zero.y, zero.d) == (0, 0, 1)


# -- splitting and Wirtinger calculus ------------------------------------------------

def test_split_square():
    re, im = split_real_imag(zp("z1^2"))
    assert re == xy("x^2 - y^2")
    assert im == xy("2*x*y")


def test_split_cube_binomial_oracle():
    f = zp("z1^3")
    re, im = split_real_imag(f)
    assert re == xy("x^3 - 3*x*y^2")
    assert im == xy("3*x^2*y - y^3")
    assert split_matches_evaluation(f, re, im, seeded(9))


def test_split_i_times_z():
    re, im = split_real_imag(zp("i*z1"))
    assert re == xy("-y")
    assert im == xy("x")


def test_split_random_against_evaluation_oracle():
    rng = seeded(10)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, max_degree=4)
        re, im = split_real_imag(f)
        assert re.has_real_coefficients() and im.has_real_coefficients()
        assert split_matches_evaluation(f, re, im, rng)


def test_split_rejects_non_z_space():
    with pytest.raises(NonZSpace):
        split_real_imag(xy("x"))


def test_wirtinger_of_re_z_squared():
    # dzbar of x^2 - y^2 is x - i*y
    d = wirtinger(xy("x^2 - y^2"), 1, barred=True)
    assert d == xy("x") - xy("y") * GQ_I


def test_wirtinger_laplacian_identity():
    # oracle: d2/dz dzbar = (dxx + dyy)/4
    p = xy("x^2")
    mixed = wirtinger(wirtinger(p, 1, barred=False), 1, barred=True)
    laplacian = p.partial("x1").partial("x1") + p.partial("y1").partial("y1")
    assert mixed == laplacian * Fraction(1, 4)
    assert mixed == SparsePoly.constant(XY1, Fraction(1, 2))


def test_wirtinger_index_range():
    with pytest.raises(IndexOutOfRange):
        wirtinger(xy("x"), 2, barred=True)


def test_cauchy_riemann_for_split_parts():
    rng = seeded(12)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        f = random_poly(VarSpace.z(n), rng, max_degree=4)
        f1, f2 = split_real_imag(f)
        for j in range(1, n + 1):
            assert f1.partial(f"x{j}") == f2.partial(f"y{j}")
            assert f1.partial(f"y{j}") == -f2.partial(f"x{j}")


def test_zbar_derivative_of_expansions_vanishes():
    from kholo.polynomials import to_real_coordinates
    rng = seeded(13)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, max_degree=4)
        expanded = to_real_coordinates(f)
        for j in range(1, n + 1):
            assert wirtinger(expanded, j, barred=True).is_zero()


# -- equality and ordering ------------------------------------------------------------

def test_poly_equal_binomial():
    assert xy("(x+y)^2") == xy("x^2 + 2*x*y + y^2")


def test_equal_after_zero_term_normalization():
    p = xy("x^2") + xy("y") * 0
    assert p == xy("x^2")


def test_perturbation_breaks_equality():
    rng = seeded(14)
    for _ in range(20):
        p = random_poly(VarSpace.xy(2), rng)
        assert not p == p + SparsePoly.constant(p.space, Fraction(1, 10**9))


def test_terms_graded_lex_descending():
    p = xy("x + y^3 + x*y + 1")
    degrees = [sum(e) for e, _ in p.terms()]
    assert degrees == sorted(degrees, reverse=True)
    exps = [e for e, _ in p.terms()]
    assert exps == [(0, 3), (1, 1), (1, 0), (0, 0)]


# -- exact division --------------------------------------------------------------------

def test_exact_division_roundtrip_random():
    rng = seeded(15)
    space = VarSpace.zt(2)
    for _ in range(30):
        p = random_poly(space, rng, max_degree=3, max_terms=4)
        d = random_poly(space, rng, max_degree=2, max_terms=3)
        assert exact_divide(p * d, d) == p


@pytest.mark.parametrize("divisor", ["constant", "monomial", "general"])
def test_try_divide_matches_the_oracle(divisor):
    rng = seeded(16)
    space = VarSpace.zt(2)
    inexact = 0
    for trial in range(120):
        huge = trial % 5 == 0
        size = {"constant": 1, "monomial": 1, "general": rng.randint(2, 5)}[divisor]
        d = random_term_map(rng, 3, size, huge) or {(0, 1, 0): GaussianRational(1)}
        if divisor == "constant":
            d = {(0, 0, 0): next(iter(d.values()))}
        d = SparsePoly.from_terms(space, d)
        q = random_term_map(rng, 3, rng.randint(0, 6), huge and trial % 2 == 0)
        p = SparsePoly.from_terms(space, terms_mul_oracle(q, dict(d.terms())))
        assert try_divide(p, d) == try_divide_oracle(p, d) == SparsePoly.from_terms(space, q)
        # one more term usually leaves a remainder; both return None then
        p = p + SparsePoly.from_terms(space, random_term_map(rng, 3, 1))
        got = try_divide(p, d)
        assert got == try_divide_oracle(p, d)
        inexact += got is None
    assert inexact >= {"constant": 0, "monomial": 40, "general": 80}[divisor]


def test_inexact_division_detected():
    assert try_divide(zp("z1^2 + 1"), zp("z1")) is None
    with pytest.raises(InexactDivision):
        exact_divide(zp("z1^2 + 1"), zp("z1"))


def test_univariate_coefficients():
    p = parse_poly("t^2*z1 + 2*t - 5", ZT1)
    coeffs = univariate_coefficients(p, "t")
    assert [c for c in coeffs] == [zp("-5"), zp("2"), zp("z1")]
