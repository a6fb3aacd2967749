"""Expression grammar, canonical printing, and round-trip identities."""

import sys
from fractions import Fraction

import pytest
from support import random_poly, seeded

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
    Add,
    Const,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _resolve_name,
    format_gaussian,
    lower,
    parse_expression,
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


def test_ast_shape():
    from kholo.exprio import Add, Const, Mul, Pow, Var
    ast = parse_expression("x^2 + 2*y")
    assert isinstance(ast, Add)
    assert isinstance(ast.left, Pow) and isinstance(ast.left.base, Var)
    assert isinstance(ast.right, Mul) and isinstance(ast.right.left, Const)


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


# -- the recursive lowering, kept as the oracle ------------------------------------

def recursive_lower(ast, space):
    """One SparsePoly per AST node, combined with the ring operations."""
    if isinstance(ast, Const):
        return SparsePoly.constant(space, ast.value)
    if isinstance(ast, Var):
        return SparsePoly.variable(space, _resolve_name(ast.name, space))
    if isinstance(ast, Neg):
        return -recursive_lower(ast.operand, space)
    if isinstance(ast, Add):
        return recursive_lower(ast.left, space) + recursive_lower(ast.right, space)
    if isinstance(ast, Sub):
        return recursive_lower(ast.left, space) - recursive_lower(ast.right, space)
    if isinstance(ast, Mul):
        return recursive_lower(ast.left, space) * recursive_lower(ast.right, space)
    if isinstance(ast, Pow):
        if ast.exponent > MAX_TOTAL_DEGREE:
            raise DegreeOverflow(f"exponent {ast.exponent} exceeds the bound")
        return recursive_lower(ast.base, space) ** ast.exponent
    raise TypeError(f"not an AST node: {ast!r}")


def _random_expression(rng, depth):
    """Text over known and unknown names, zeros, and degrees near the bound."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(["0", "1", "2", "3/4", "i", "7*i", "(1-i)^3"])
    if depth == 0 or roll < 0.3:
        atom = rng.choice(["x", "y", "x1", "y1", "x", "y", "q"])
        if rng.random() < 0.3:
            atom += "^" + rng.choice(["0", "2", "3", "400000", "600000", "600000", "1000001"])
        return atom
    if roll < 0.45:
        return "(" + _random_expression(rng, depth - 1) + ")^" + rng.choice(["0", "2", "3"])
    if roll < 0.55:
        return "-" + _random_expression(rng, depth - 1)
    if roll < 0.6:
        return "(" + _random_expression(rng, depth - 1) + ")"
    parts = [_random_expression(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    if roll < 0.8:
        return "*".join(parts)
    return "".join(rng.choice([" + ", " - "]) + part for part in parts).lstrip(" +")


def _outcome(lowering, ast, space):
    try:
        return lowering(ast, space)
    except KholoError as exc:
        return type(exc), str(exc)


def test_lowering_matches_recursive_oracle():
    rng = seeded(64)
    errors = set()
    for _ in range(3000):
        text = _random_expression(rng, 4)
        ast = parse_expression(text)
        expected = _outcome(recursive_lower, ast, XY1)
        assert _outcome(lower, ast, XY1) == expected, text
        if isinstance(expected, tuple):
            errors.add(expected)
    # every check of the lowering was reached, some first among several
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
        ast = parse_expression(text)
        assert lower(ast, space) == recursive_lower(ast, space)


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
