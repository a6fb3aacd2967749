"""Expression grammar, canonical printing, and round-trip identities."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from support import format_gaussian_oracle, print_poly_oracle, random_poly, seeded

from kholo.errors import (
    DegreeOverflow,
    DivisionByZero,
    ExpansionTooLarge,
    ExprSyntaxError,
    KholoError,
    NegativeExponent,
    UnknownVariable,
)
from kholo.exprio import (
    _resolve_name,
    format_gaussian,
    parse_gaussian,
    parse_point,
    parse_poly,
    print_poly,
)
from kholo.polynomials import MAX_EXPANSION_TERMS, MAX_TOTAL_DEGREE, SparsePoly, VarSpace
from kholo.rationals import GaussianRational

XY1 = VarSpace.xy(1)
Z2 = VarSpace.z(2)


# -- parsing --------------------------------------------------------------------

def test_parse_difference_of_squares():
    p = parse_poly("x^2 - y^2", XY1)
    assert p == parse_poly("x1^2 - y1^2", XY1)
    assert p.degree_in("x1") == 2


def test_parse_imaginary_coefficient():
    p = parse_poly("(1/2)*i*z1*z2", Z2)
    assert p.coefficient((1, 1)) == GaussianRational(0, Fraction(1, 2))


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponent):
        parse_poly("x^(-1)", XY1)
    with pytest.raises(NegativeExponent):
        parse_poly("x^-1", XY1)


def test_parse_reports_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_poly("x1 + @", XY1)
    assert info.value.line == 1
    assert info.value.column == 6


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("q3 + 1", XY1)


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_poly("1/0", XY1)


def test_parse_whitespace_insensitive():
    assert parse_poly(" x ^ 2\n- y\t^2 ", XY1) == parse_poly("x^2-y^2", XY1)


def test_parse_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_poly("2 x", XY1)


def test_parse_unary_minus_nesting():
    assert parse_poly("--x", XY1) == parse_poly("x", XY1)
    assert parse_poly("-(x - y)", XY1) == parse_poly("y - x", XY1)


def test_parse_huge_integer_literals():
    p = parse_poly("123456789012345678901234567890", XY1)
    assert p.constant_term() == GaussianRational(
        123456789012345678901234567890)


def test_parse_exponent_overflow():
    with pytest.raises(DegreeOverflow):
        parse_poly("x^2000000", XY1)


def test_deep_nesting_is_an_error_not_a_crash():
    text = "(" * 5000 + "1" + ")" * 5000
    with pytest.raises(ExprSyntaxError):
        parse_poly(text, XY1)


def test_parse_gaussian_scalar():
    assert parse_gaussian("3/2 + i") == GaussianRational(Fraction(3, 2), 1)
    assert parse_gaussian("-i") == GaussianRational(0, -1)
    with pytest.raises(UnknownVariable):
        parse_gaussian("x + 1")


def test_parse_point_tuples():
    p = parse_point("1, 1/2+i", 2)
    assert p == (GaussianRational(1), GaussianRational(Fraction(1, 2), 1))
    with pytest.raises(ExprSyntaxError):
        parse_point("1, 2", 3)


# -- printing -------------------------------------------------------------------

def test_print_goldens():
    assert print_poly(parse_poly("x^2 - y^2", XY1)) == "x1^2 - y1^2"
    assert print_poly(SparsePoly.zero(XY1)) == "0"
    assert print_poly(parse_poly("(1/2)*i*z1*z2", Z2)) == "(1/2*i)*z1*z2"


def test_print_sign_handling():
    assert print_poly(parse_poly("-x + 1", XY1)) == "-x1 + 1"
    assert print_poly(parse_poly("y - x", XY1)) == "-x1 + y1"


def test_print_complex_constant():
    assert print_poly(parse_poly("1 + i", XY1)) == "(1+i)"
    assert print_poly(parse_poly("2 - 3*i", XY1)) == "(2-3*i)"


def test_format_gaussian_forms():
    assert format_gaussian(GaussianRational(Fraction(3, 2))) == "3/2"
    assert format_gaussian(GaussianRational(-2)) == "-2"
    assert format_gaussian(GaussianRational(0, 1)) == "(i)"
    assert format_gaussian(GaussianRational(0, -1)) == "(-i)"
    assert format_gaussian(GaussianRational(1, Fraction(-1, 3))) == "(1-1/3*i)"


# (x + y*i)/d with gcd(x, d) > 1 < gcd(y, d) but gcd(x, y, d) == 1, parts of
# +-1, a zero real part, negative reals and parts past 10^400
_NAMED_COEFFICIENTS = [
    GaussianRational(1, Fraction(1, 2)),
    GaussianRational(Fraction(2, 3), Fraction(-1, 2)),
    GaussianRational(Fraction(-3, 2), Fraction(4, 3)),
    GaussianRational(0, 1), GaussianRational(0, -1),
    GaussianRational(0, Fraction(5, 6)), GaussianRational(0, Fraction(-6, 5)),
    GaussianRational(1, 1), GaussianRational(-1, -1), GaussianRational(Fraction(1, 3), -1),
    GaussianRational(-1), GaussianRational(-7), GaussianRational(Fraction(-7, 4)),
    GaussianRational(1), GaussianRational(Fraction(1, 10**400 + 1)),
    GaussianRational(-10**401 - 3, Fraction(10**402, 10**401 + 7)),
    GaussianRational(Fraction(6 * 10**400, 4 * 10**400 + 2), Fraction(1, 4 * 10**400 + 2)),
]


def _printer_coefficient(rng):
    """A coefficient whose parts share factors with d, or are +-d or 0."""
    d = rng.choice([1, 2, 3, 4, 6, 12, 10**401 + 7, 6 * 10**400])

    def part():
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.choice([d, -d])
        if kind == 2:
            return rng.choice([2, -2, 3, -3]) * rng.randint(1, 6)
        if kind == 3:
            return rng.randint(-10**420, 10**420)
        return rng.randint(-30, 30)

    return GaussianRational(Fraction(part(), d), Fraction(part(), d))


def test_format_gaussian_matches_fraction_oracle():
    rng = seeded(66)
    coefficients = _NAMED_COEFFICIENTS + [_printer_coefficient(rng) for _ in range(2000)]
    shared = 0
    for c in coefficients:
        assert format_gaussian(c) == format_gaussian_oracle(c)
        shared += gcd(c.x, c.d) > 1 and c.y != 0
    assert shared > 100  # the reduced real part of a non-real coefficient is exercised
    assert format_gaussian(GaussianRational(1, Fraction(1, 2))) == "(1+1/2*i)"


@pytest.mark.parametrize("kind", ["xy", "z", "xyt", "zt", "ztw"])
def test_print_poly_matches_fraction_oracle(kind):
    rng = seeded(67)
    for _ in range(300):
        space = getattr(VarSpace, kind)(rng.choice([1, 2, 3]))
        width = len(space.names)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            named = rng.random() < 0.2
            c = rng.choice(_NAMED_COEFFICIENTS) if named else _printer_coefficient(rng)
            terms[tuple(rng.randint(0, 3) for _ in range(width))] = c
        p = SparsePoly.from_terms(space, terms)
        assert print_poly(p) == print_poly_oracle(p)
    for c in _NAMED_COEFFICIENTS:
        lone = SparsePoly.constant(space, c)
        assert print_poly(lone) == print_poly_oracle(lone)
        assert print_poly(lone) == format_gaussian(c)
    assert print_poly(SparsePoly.zero(space)) == print_poly_oracle(SparsePoly.zero(space)) == "0"


def test_graded_lex_descending_output():
    text = print_poly(parse_poly("1 + x + y^3 + x*y", XY1))
    assert text == "y1^3 + x1*y1 + x1 + 1"


# -- round trips ------------------------------------------------------------------

def test_parse_print_identity_random():
    rng = seeded(61)
    for _ in range(150):
        n = rng.choice([1, 2, 3])
        kind = rng.choice([VarSpace.xy, VarSpace.z, VarSpace.zt, VarSpace.xyt])
        space = kind(n)
        p = random_poly(space, rng, max_degree=5, max_terms=8, allow_zero=True)
        assert parse_poly(print_poly(p), space) == p


def test_print_parse_idempotent():
    rng = seeded(62)
    for _ in range(50):
        p = random_poly(VarSpace.zt(2), rng, max_degree=4, max_terms=6)
        text = print_poly(p)
        assert print_poly(parse_poly(text, p.space)) == text


def test_fuzz_never_crashes():
    rng = seeded(63)
    alphabet = "xyzwti0123456789+-*/^() .,;@#\\\"'αé²½"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            parse_poly(text, XY1)
        except KholoError:
            pass


def test_superscript_digits_are_unexpected_characters():
    for text, column in [("2²", 2), ("x^²", 3), ("x²", 2), ("½", 1)]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_poly(text, XY1)
        assert str(info.value) == f"unexpected character {text[-1]!r} (line 1, column {column})"
    # int() reads every decimal digit, so other scripts' digits still count
    assert parse_poly("\u0663*x", XY1) == parse_poly("3*x", XY1)


# -- long inputs ------------------------------------------------------------------

def test_long_flat_sum_parses():
    xy2 = VarSpace.xy(2)
    terms = {(k % 7, k // 7 % 5, k // 35 % 6, k // 210): k + 1 for k in range(5000)}
    text = " + ".join(f"{c}*x1^{a}*x2^{b}*y1^{c2}*y2^{d}"
                      for (a, b, c2, d), c in terms.items())
    assert parse_poly(text, xy2) == SparsePoly.from_terms(xy2, terms)


def test_long_product_parses():
    assert parse_poly("*".join(["x1"] * 2000), XY1) == parse_poly("x1^2000", XY1)


# -- an independent oracle: ring operations in reading order ---------------------
#
# A generated text is kept as the sum it parses to: a list of signed terms,
# each a list of factors.  A factor is a thunk that returns its SparsePoly or
# raises the error the parser must report, so evaluating the terms and their
# factors left to right meets the faults in the order they are read.

def _name(name):
    return lambda: SparsePoly.variable(XY1, _resolve_name(name, XY1))


def _constant(value):
    return lambda: SparsePoly.constant(XY1, value)


def _power(base, e):
    """base^e: the base is read before the exponent."""
    def value():
        b = base()
        if e > MAX_TOTAL_DEGREE:
            raise DegreeOverflow(f"exponent {e} exceeds the bound")
        return b ** e
    return value


def _evaluate(terms):
    """The sum of signed products, each product folded left to right."""
    total = SparsePoly.zero(XY1)
    for sign, factors in terms:
        product = factors[0]()
        for factor in factors[1:]:
            product = product * factor()
        total = total + product if sign > 0 else total - product
    return total


_I = GaussianRational(0, 1)
_CONSTANTS = {
    "0": [_constant(0)],
    "1": [_constant(1)],
    "2": [_constant(2)],
    "3/4": [_constant(Fraction(3, 4))],
    "i": [_constant(_I)],
    "7*i": [_constant(7), _constant(_I)],
    "(1-i)^3": [_constant(GaussianRational(1, -1) ** 3)],
}


def _random_terms(rng, depth):
    """Text over known and unknown names, zeros, and degrees near the bound.

    Returns the text and its signed terms.  Parts are joined without
    parentheses, so the grammar's precedence regroups them: a unary minus
    negates the first factor of what follows, that is its first term, and a
    product of sums multiplies only the touching terms.
    """
    roll = rng.random()
    if roll < 0.15:
        text = rng.choice(list(_CONSTANTS))
        return text, [(1, _CONSTANTS[text])]
    if depth == 0 or roll < 0.3:
        text = rng.choice(["x", "y", "x1", "y1", "x", "y", "q"])
        factor = _name(text)
        if rng.random() < 0.3:
            e = rng.choice(["0", "2", "3", "400000", "600000", "600000", "1000001"])
            text += "^" + e
            factor = _power(factor, int(e))
        return text, [(1, [factor])]
    if roll < 0.45:
        inner, terms = _random_terms(rng, depth - 1)
        e = rng.choice(["0", "2", "3"])
        return f"({inner})^{e}", [(1, [_power(lambda: _evaluate(terms), int(e))])]
    if roll < 0.55:
        inner, terms = _random_terms(rng, depth - 1)
        (sign, factors), rest = terms[0], terms[1:]
        return "-" + inner, [(-sign, factors)] + rest
    if roll < 0.6:
        inner, terms = _random_terms(rng, depth - 1)
        return f"({inner})", [(1, [lambda: _evaluate(terms)])]
    parts = [_random_terms(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    if roll < 0.8:
        terms = list(parts[0][1])
        for _, more in parts[1:]:
            sign, factors = terms.pop()
            terms += [(sign * more[0][0], factors + more[0][1])] + more[1:]
        return "*".join(text for text, _ in parts), terms
    text, terms = "", []
    for part, more in parts:
        op = rng.choice([" + ", " - "])
        text += op + part
        if op == " - ":  # binary, or unary before the first part
            more = [(-more[0][0], more[0][1])] + more[1:]
        terms += more
    return text.lstrip(" +"), terms


def _outcome(compute, *args):
    try:
        return compute(*args)
    except KholoError as exc:
        return type(exc), str(exc)


def _random_expression(rng, depth):
    """A random text and its expected outcome: a SparsePoly or (error type, message)."""
    text, terms = _random_terms(rng, depth)
    return text, _outcome(_evaluate, terms)


def test_lowering_matches_recursive_oracle():
    rng = seeded(64)
    errors = set()
    for _ in range(3000):
        text, expected = _random_expression(rng, 4)
        assert _outcome(parse_poly, text, XY1) == expected, text
        if isinstance(expected, tuple):
            errors.add(expected)
    # every check of the parser was reached, some first among several
    assert {kind for kind, _ in errors} == {UnknownVariable, DegreeOverflow}
    assert {message for _, message in errors} >= {
        "'q' is not a variable of this space",
        "exponent 1000001 exceeds the bound",
        "product degree exceeds the supported bound",
        "power degree exceeds the supported bound",
    }


def test_lowering_matches_oracle_on_random_polynomials():
    rng = seeded(65)
    for _ in range(100):
        space = rng.choice([VarSpace.xy, VarSpace.zt])(rng.choice([1, 2]))
        p = random_poly(space, rng, max_degree=4, max_terms=6)
        q = random_poly(space, rng, max_degree=3, max_terms=4)
        text = f"({print_poly(p)})^2*({print_poly(q)}) - ({print_poly(q)})*{print_poly(p)}"
        # the last p is not parenthesized: (q) multiplies only its first term
        first = SparsePoly.from_terms(space, dict(p.terms()[:1]))
        assert parse_poly(text, space) == p ** 2 * q - q * first + (p - first)


def test_first_fault_in_reading_order_is_reported():
    with pytest.raises(UnknownVariable):
        parse_poly("q^1000001", XY1)
    with pytest.raises(UnknownVariable):
        parse_poly("q + (", XY1)
    with pytest.raises(ExprSyntaxError) as info:
        parse_poly("( + q", XY1)
    assert str(info.value) == "unexpected '+' (line 1, column 3)"
    # the whole text is tokenized before anything is read
    with pytest.raises(ExprSyntaxError) as info:
        parse_poly("q @", XY1)
    assert (info.value.line, info.value.column) == (1, 3)


# -- the expansion budget ------------------------------------------------------------

def test_power_of_a_sum_beyond_the_term_budget_is_refused():
    xy2 = VarSpace.xy(2)
    # binary powering ends with (15 terms) * (495 terms): 7,425 products
    assert len(parse_poly("(x1+x2+y1+y2+1)^10", xy2)) == 1001
    with pytest.raises(ExpansionTooLarge) as info:
        parse_poly("(x1+x2+y1+y2+1)^30", xy2)
    assert str(info.value) == (
        "power 30 of a sum of 5 terms multiplies sums of 210 and 495 terms, "
        f"up to 103950 terms, over the limit of {MAX_EXPANSION_TERMS}")


def test_product_of_sums_beyond_the_term_budget_is_refused():
    xy2 = VarSpace.xy(2)

    def powers(name, count):
        return "(" + " + ".join(f"{name}^{k}" for k in range(count)) + ")"

    assert len(parse_poly(f"{powers('x1', 101)}*{powers('y1', 99)}", xy2)) == 101 * 99
    with pytest.raises(ExpansionTooLarge) as info:
        parse_poly(f"x2*{powers('x1', 101)}*y2*{powers('y1', 100)}", xy2)
    assert str(info.value) == (
        "a product multiplies sums of 101 and 100 terms, up to 10100 terms, "
        f"over the limit of {MAX_EXPANSION_TERMS}")


def test_integers_beyond_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    assert parse_poly("10^%d*z" % (limit - 1), VarSpace.z(1)).constant_term() == 0
    for text in ["10^%d*z" % limit, "(2*z)^%d" % (4 * limit), "(z + 10)^%d" % limit,
                 "1" * (limit + 1), "x^" + "1" * (limit + 1),
                 "*".join(["10^%d" % (limit - 1)] * 2)]:
        with pytest.raises(ExpansionTooLarge) as info:
            parse_poly(text, VarSpace.z(1) if "z" in text else XY1)
        assert f"over the limit of {limit} digits" in str(info.value)
