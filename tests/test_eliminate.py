"""Resultants, basepoint search, and the annihilator pipeline."""

import math

import pytest
from support import laplace_det, random_poly, seeded

from kholo.branches import evaluate_complex
from kholo.eliminate import (
    AnnihilatorPair,
    bareiss_determinant,
    eliminate_annihilator,
    search_basepoint,
    sylvester_matrix,
    sylvester_resultant,
    verify_annihilator,
)
from kholo.errors import BasepointNotFound, DegreeZeroBoth, ZeroDegree, ZeroInput
from kholo.exprio import parse_poly
from kholo.polynomials import (
    SparsePoly,
    VarSpace,
    rename_space,
    substitute_variable,
    try_divide,
    univariate_coefficients,
)
from kholo.rationals import GaussianRational

ZTW2 = VarSpace.ztw(2)
ZT1 = VarSpace.zt(1)


def ztw(text, n=2):
    return parse_poly(text, VarSpace.ztw(n))


def zt(text, n=1):
    return parse_poly(text, VarSpace.zt(n))


def xyt(text, n=1):
    return parse_poly(text, VarSpace.xyt(n))


def pair_from_split(f):
    """t - f1, t - f2 in the (x, y, t) space of f's dimension."""
    from kholo.polynomials import split_real_imag
    n = f.space.n
    f1, f2 = split_real_imag(f)
    space = VarSpace.xyt(n)
    lift = {name: name for name in f1.space.names}
    t = SparsePoly.variable(space, "t")
    return AnnihilatorPair(p1=t - rename_space(f1, space, lift),
                           p2=t - rename_space(f2, space, lift), n=n)


# -- resultant goldens -------------------------------------------------------------

def test_resultant_linear_pair():
    # Res_w(w - a, w - b) = det [[1, -a], [1, -b]] = a - b
    a = sylvester_resultant(ztw("w0 - z1"), ztw("w0 - z2"), "w0")
    assert a == parse_poly("z1 - z2", VarSpace.zt(2))


def test_resultant_quadratic_against_variable():
    # 3x3 Sylvester determinant expands to -z
    r = sylvester_resultant(ztw("w0^2 - z1", n=1), ztw("w0", n=1), "w0")
    assert r == zt("-z1")


def test_resultant_shifted_linear():
    r = sylvester_resultant(ztw("w0 - z1^2", n=1), ztw("-i*(t - w0)", n=1), "w0")
    assert r == zt("-i*(t - z1^2)")


def test_resultant_degree_zero_convention():
    # Res(A, b) = b^deg(A) for b constant in the variable
    r = sylvester_resultant(ztw("w0^3 - z1", n=1), ztw("z1 + 2", n=1), "w0")
    assert r == zt("(z1 + 2)^3")
    r = sylvester_resultant(ztw("z1 + 2", n=1), ztw("w0^2", n=1), "w0")
    assert r == zt("(z1 + 2)^2")


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ZeroInput):
        sylvester_resultant(SparsePoly.zero(ZTW2), ztw("w0"), "w0")
    with pytest.raises(DegreeZeroBoth):
        sylvester_resultant(ztw("z1"), ztw("z2 + 1"), "w0")


# -- Bareiss vs Laplace oracle -------------------------------------------------------

def test_bareiss_matches_laplace_oracle_random():
    rng = seeded(31)
    space = VarSpace.ztw(1)
    for _ in range(40):
        da = rng.randint(1, 4)
        db = rng.randint(1, 4)
        a = _random_univariate(space, "w0", da, rng)
        b = _random_univariate(space, "w0", db, rng)
        matrix = sylvester_matrix(a, b, "w0")
        assert len(matrix) == da + db <= 8
        assert bareiss_determinant(matrix) == laplace_det(matrix)


def _random_univariate(space, name, degree, rng):
    p = SparsePoly.variable(space, name) ** degree
    lead = random_poly(space.drop(name), rng, max_degree=1, max_terms=2)
    terms = p * _lift(lead, space)
    for k in range(degree):
        c = random_poly(space.drop(name), rng, max_degree=1, max_terms=2,
                        allow_zero=True)
        terms = terms + (SparsePoly.variable(space, name) ** k) * _lift(c, space)
    return terms


def _lift(p, space):
    return rename_space(p, space, {n: n for n in p.space.names})


def test_bareiss_with_zero_pivot_row_swap():
    space = VarSpace.zt(1)
    zero = SparsePoly.zero(space)
    one = SparsePoly.constant(space, 1)
    z = SparsePoly.variable(space, "z1")
    matrix = [[zero, one], [z, zero]]
    assert bareiss_determinant(matrix) == -z
    assert laplace_det(matrix) == -z


def test_resultant_multiplicativity_random():
    rng = seeded(32)
    space = VarSpace.ztw(1)
    for _ in range(15):
        a = _random_univariate(space, "w0", rng.randint(1, 2), rng)
        b = _random_univariate(space, "w0", rng.randint(1, 2), rng)
        c = _random_univariate(space, "w0", rng.randint(1, 2), rng)
        lhs = sylvester_resultant(a * b, c, "w0")
        rhs = sylvester_resultant(a, c, "w0") * sylvester_resultant(b, c, "w0")
        assert lhs == rhs


def test_resultant_vanishes_on_common_factor():
    rng = seeded(33)
    space = VarSpace.ztw(1)
    for _ in range(10):
        a = _random_univariate(space, "w0", rng.randint(1, 2), rng)
        c = _random_univariate(space, "w0", rng.randint(1, 2), rng)
        assert sylvester_resultant(a, a * c, "w0").is_zero()


def test_resultant_specialization_consistency():
    rng = seeded(34)
    space = VarSpace.ztw(1)
    for _ in range(15):
        a = _random_univariate(space, "w0", rng.randint(1, 3), rng)
        b = _random_univariate(space, "w0", rng.randint(1, 3), rng)
        r = sylvester_resultant(a, b, "w0")
        z0 = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        t0 = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        point = {"z1": z0, "t": t0}
        lead_a = univariate_coefficients(a, "w0")[-1].eval(point)
        lead_b = univariate_coefficients(b, "w0")[-1].eval(point)
        if not lead_a or not lead_b:
            continue
        spec_a = [c.eval(point) for c in univariate_coefficients(a, "w0")]
        spec_b = [c.eval(point) for c in univariate_coefficients(b, "w0")]
        assert _uni_resultant(spec_a, spec_b) == r.eval(point)


def _uni_resultant(ca, cb):
    """Scalar Sylvester determinant by fraction-free elimination over Q(i)."""
    da, db = len(ca) - 1, len(cb) - 1
    size = da + db
    rows = []
    for shift in range(db):
        row = [GaussianRational(0)] * size
        for k, c in enumerate(reversed(ca)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(da):
        row = [GaussianRational(0)] * size
        for k, c in enumerate(reversed(cb)):
            row[shift + k] = c
        rows.append(row)
    det = GaussianRational(1)
    for k in range(size):
        pivot_row = None
        for r in range(k, size):
            if rows[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return GaussianRational(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        det = det * rows[k][k]
        inv = GaussianRational(1) / rows[k][k]
        for r in range(k + 1, size):
            if rows[r][k]:
                factor = rows[r][k] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return det


# -- basepoint search ---------------------------------------------------------------

def test_basepoint_trivial():
    pair = AnnihilatorPair(p1=xyt("t - x^2 + y^2"), p2=xyt("t - 2*x*y"), n=1)
    assert search_basepoint(pair) == ((0,), (0,))


def test_basepoint_constant_restriction_is_valid():
    # P1(x, 0, t) = -1 is zero-degree but nonzero, so (0, 0) works
    pair = AnnihilatorPair(p1=xyt("y*t - 1"), p2=xyt("t - x"), n=1)
    assert search_basepoint(pair) == ((0,), (0,))


def test_basepoint_needs_translation():
    # P1(x, 0, t) = 0; first grid point with nonzero y0 is (-1, -1)
    pair = AnnihilatorPair(p1=xyt("y*t"), p2=xyt("t"), n=1)
    assert search_basepoint(pair) == ((-1,), (-1,))


def test_basepoint_not_found():
    pair = AnnihilatorPair(p1=xyt("y*t"), p2=xyt("t"), n=1)
    with pytest.raises(BasepointNotFound):
        # bound 0 leaves only the origin, which is invalid here
        search_basepoint(pair, bound=0)


# -- the pipeline -------------------------------------------------------------------

def test_eliminate_square():
    report = eliminate_annihilator(
        AnnihilatorPair(p1=xyt("t - x^2 + y^2"), p2=xyt("t - 2*x*y"), n=1))
    assert not report.degenerate
    assert report.basepoint_x == (0,) and report.basepoint_y == (0,)
    assert report.q1 == zt("t - z1^2")
    assert report.q2 == zt("-i*t")
    assert report.annihilator == zt("-i*(t - z1^2)")
    assert verify_annihilator(report.annihilator, parse_poly("z1^2", VarSpace.z(1)))


def test_eliminate_identity():
    report = eliminate_annihilator(
        AnnihilatorPair(p1=xyt("t - x"), p2=xyt("t - y"), n=1))
    assert report.annihilator == zt("-i*(t - z1)")


def test_eliminate_with_translation_still_annihilates():
    # P1 = y*(t - x) kills f1 = x but restricts to zero at y = 0
    report = eliminate_annihilator(
        AnnihilatorPair(p1=xyt("y*(t - x)"), p2=xyt("t - y"), n=1))
    assert report.basepoint_y != (0,)
    assert not report.degenerate
    assert verify_annihilator(report.annihilator, parse_poly("z1", VarSpace.z(1)))


def test_eliminate_sqrt_golden():
    pair = AnnihilatorPair(
        p1=xyt("4*(t+1)^4 - 4*(1+x)*(t+1)^2 - y^2"),
        p2=xyt("4*t^4 + 4*(1+x)*t^2 - y^2"),
        n=1)
    report = eliminate_annihilator(pair)
    assert not report.degenerate
    minimal = zt("t^2 + 2*t - z1")
    assert try_divide(report.annihilator, minimal) is not None
    # numeric spot check against f = sqrt(1+z) - 1 on (-1, 1)
    for z0 in (0.0, 0.5, -0.25, 0.9):
        fv = math.sqrt(1 + z0) - 1
        value = evaluate_complex(report.annihilator,
                                 {"z1": complex(z0), "t": complex(fv)})
        assert abs(value) < 1e-9


def test_end_to_end_random():
    rng = seeded(35)
    for _ in range(30):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, max_degree=4, max_terms=4)
        report = eliminate_annihilator(pair_from_split(f))
        assert not report.degenerate
        assert verify_annihilator(report.annihilator, f)


def test_verify_annihilator_goldens():
    assert verify_annihilator(zt("-i*(t - z1^2)"), parse_poly("z1^2", VarSpace.z(1)))
    assert not verify_annihilator(zt("t - z1"), parse_poly("z1^2", VarSpace.z(1)))


def test_annihilator_pair_validation():
    with pytest.raises(ZeroInput):
        AnnihilatorPair(p1=SparsePoly.zero(VarSpace.xyt(1)), p2=xyt("t"), n=1)
    with pytest.raises(ValueError):
        AnnihilatorPair(p1=xyt("i*t"), p2=xyt("t"), n=1)


def test_annihilator_pair_needs_t_in_both():
    # a nonzero P(x, y) free of t annihilates nothing
    with pytest.raises(ZeroDegree, match=r"^p2 does not use 't'"):
        AnnihilatorPair(p1=xyt("t - x^2 + y^2"), p2=xyt("y"), n=1)
    with pytest.raises(ZeroDegree, match=r"^p1 does not use 't'"):
        AnnihilatorPair(p1=xyt("x"), p2=xyt("t - 2*x*y"), n=1)
