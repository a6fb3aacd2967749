"""Discriminants, locus membership, and numeric fiber counting."""

from fractions import Fraction

import pytest
from support import random_gq, random_poly, seeded

from kholo.branches import (
    aberth_roots,
    covering_check,
    discriminant,
    distinct_root_count_exact,
    evaluate_complex,
    fiber_count,
    locus_membership,
)
from kholo.eliminate import sylvester_resultant
from kholo.errors import (
    LeadingCoefficientVanishes,
    NoSamplePoints,
    NonConvergence,
    PointOnLocus,
    ZeroDegree,
)
from kholo.exprio import parse_poly
from kholo.polynomials import SparsePoly, VarSpace
from kholo.rationals import GaussianRational

ZT1 = VarSpace.zt(1)
Z1 = VarSpace.z(1)


def zt(text, n=1):
    return parse_poly(text, VarSpace.zt(n))


def zp(text, n=1):
    return parse_poly(text, VarSpace.z(n))


# -- discriminant ------------------------------------------------------------------

def test_discriminant_goldens():
    assert discriminant(zt("t^2 - z1"), "t") == zp("4*z1")
    assert discriminant(zt("t^2 + 2*t - z1"), "t") == zp("4 + 4*z1")
    assert discriminant(zt("t^3 - z1"), "t") == zp("-27*z1^2")


def test_discriminant_of_linear_is_one():
    assert discriminant(zt("z1*t + 3"), "t") == zp("1")


def test_discriminant_zero_degree():
    with pytest.raises(ZeroDegree):
        discriminant(zt("z1 + 1"), "t")


def test_discriminant_multiplicativity_spot():
    rng = seeded(41)
    for _ in range(15):
        a = _random_monic_t(rng, rng.randint(1, 3))
        b = _random_monic_t(rng, rng.randint(1, 3))
        lhs = discriminant(a * b, "t")
        rhs = (discriminant(a, "t") * discriminant(b, "t")
               * sylvester_resultant(a, b, "t") ** 2)
        assert lhs == rhs


def _random_monic_t(rng, degree):
    p = SparsePoly.variable(ZT1, "t") ** degree
    for k in range(degree):
        c = random_gq(rng, 5)
        p = p + (SparsePoly.variable(ZT1, "t") ** k) * c
    return p


# -- locus membership --------------------------------------------------------------

def test_locus_membership_goldens():
    d = zp("4*z1")
    assert locus_membership(d, (GaussianRational(0),))
    assert not locus_membership(d, (GaussianRational(1),))
    assert locus_membership(zp("4 + 4*z1"), (GaussianRational(-1),))


# -- Aberth root finder ------------------------------------------------------------

def test_aberth_known_rational_roots():
    # (t-1)(t-2)(t+3/2) = t^3 - (3/2)t^2 - (5/2)t + 3
    roots = sorted(aberth_roots([3.0, -2.5, -1.5, 1.0]), key=lambda r: r.real)
    expected = [-1.5, 1.0, 2.0]
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-9


def test_aberth_quadratic_pm():
    roots = sorted(aberth_roots([-2.25, 0.0, 1.0]), key=lambda r: r.real)
    assert abs(roots[0] + 1.5) < 1e-9 and abs(roots[1] - 1.5) < 1e-9


def test_aberth_multiple_root():
    roots = aberth_roots([1.0, 2.0, 1.0])  # (t+1)^2
    assert all(abs(r + 1) < 1e-6 for r in roots)


def test_aberth_iteration_cap():
    with pytest.raises(NonConvergence):
        aberth_roots([3.0, -2.5, -1.5, 1.0], max_iter=1)


# -- fiber counting -----------------------------------------------------------------

def test_fiber_count_examples():
    p = zt("t^2 - z1")
    assert fiber_count(p, (GaussianRational(1),)) == 2
    assert fiber_count(p, (GaussianRational(0),)) == 1
    # roots at z0 = i are distinct (quadratic formula oracle)
    assert fiber_count(p, (GaussianRational(0, 1),)) == 2


def test_fiber_count_leading_coefficient_check():
    p = zt("z1*t^2 - 1")
    with pytest.raises(LeadingCoefficientVanishes):
        fiber_count(p, (GaussianRational(0),))


def test_exact_distinct_count_matches_numeric_off_locus():
    # the numeric count is only contractual off the locus; near a multiple
    # root float evaluation hits the sqrt(eps) barrier and the exact gcd
    # route is the authority
    rng = seeded(42)
    p_family = [zt("t^2 - z1"), zt("t^3 - z1"), zt("t^2 + 2*t - z1"),
                zt("t^2 - z1*z2", n=2), zt("(t^2 - z1)*(t - 3)")]
    for p in p_family:
        base = p.space.drop("t")
        d = discriminant(p, "t")
        for _ in range(10):
            z0 = tuple(random_gq(rng, 6) for _ in base.names)
            coeffs_at = [c.eval(dict(zip(base.names, z0)))
                         for c in _coeff_list(p)]
            if not coeffs_at[-1]:
                continue
            if locus_membership(d, dict(zip(base.names, z0))):
                continue
            assert fiber_count(p, z0) == distinct_root_count_exact(p, z0)


def test_on_locus_counting_for_exact_specializations():
    # cancellation-free specializations count multiple roots correctly
    assert fiber_count(zt("t^2 - z1"), (GaussianRational(0),)) == 1
    assert fiber_count(zt("t^3 - z1"), (GaussianRational(0),)) == 1
    assert distinct_root_count_exact(zt("t^2 + 2*t - z1"),
                                     (GaussianRational(-1),)) == 1


def _coeff_list(p):
    from kholo.polynomials import univariate_coefficients
    return univariate_coefficients(p, "t")


def test_gcd_crosscheck_against_discriminant():
    # disc vanishes at z0 exactly when the specialized gcd has positive degree
    rng = seeded(43)
    for _ in range(50):
        p = _random_monic_t(rng, rng.randint(2, 4))
        d = discriminant(p, "t")
        z0 = (random_gq(rng, 4),)
        point = dict(zip(Z1.names, z0))
        multiple = p.degree_in("t") - distinct_root_count_exact(p, z0) > 0
        assert locus_membership(d, point) == multiple


# -- covering checks -----------------------------------------------------------------

def test_covering_golden_square_root():
    report = covering_check(zt("t^2 - z1"),
                            [(GaussianRational(1),), (GaussianRational(2),),
                             (GaussianRational(1, 1),), (GaussianRational(-1),)])
    assert report.covering_degree == 2
    assert all(s.fiber_count == 2 and not s.on_locus for s in report.samples)


def test_covering_golden_shifted():
    report = covering_check(zt("t^2 + 2*t - z1"),
                            [(GaussianRational(0),), (GaussianRational(1),),
                             (GaussianRational(0, 1),)])
    assert report.covering_degree == 2


def test_covering_rejects_locus_point():
    with pytest.raises(PointOnLocus):
        covering_check(zt("t^2 - z1"),
                       [(GaussianRational(1),), (GaussianRational(0),)])


def test_covering_errors_spell_points_as_input():
    # coordinates as the CLI reads them, not Python reprs
    with pytest.raises(PointOnLocus, match=r"^sample 2,\(1\+i\) lies"):
        covering_check(zt("t^2 - z1*z2 + 2 + 2*i", n=2),
                       [(GaussianRational(2), GaussianRational(1, 1))])
    with pytest.raises(LeadingCoefficientVanishes, match=r"dies at \(-1/2\*i\)$"):
        fiber_count(zt("(2*z1 + i)*t^2 - 1"), (GaussianRational(0, Fraction(-1, 2)),))


def test_covering_rejects_empty_path():
    with pytest.raises(NoSamplePoints):
        covering_check(zt("t^2 - z1"), [])


def test_off_locus_constancy_family():
    rng = seeded(44)
    family = [zt("t^2 - z1"), zt("t^3 - z1"), zt("t^2 + 2*t - z1"),
              zt("t^2 - z1*z2", n=2)]
    for p in family:
        base = p.space.drop("t")
        d = discriminant(p, "t")
        points = []
        while len(points) < 20:
            z0 = tuple(random_gq(rng, 8) for _ in base.names)
            if not locus_membership(d, dict(zip(base.names, z0))):
                points.append(z0)
        report = covering_check(p, points)
        assert report.covering_degree == p.degree_in("t")
        for sample in report.samples:
            assert distinct_root_count_exact(p, sample.point) == p.degree_in("t")


def test_evaluate_complex():
    p = zt("t^2 - z1")
    assert abs(evaluate_complex(p, {"t": 2 + 0j, "z1": 4 + 0j})) < 1e-12
    assert abs(evaluate_complex(p, {"t": 1j, "z1": -1 + 0j})) < 1e-12
