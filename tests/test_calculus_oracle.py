"""The Cartan calculus kernels against their whole-polynomial oracles.

``LinearSubst.apply``, ``wirtinger``, ``build_g``, ``check_pluriharmonic``
and ``real_imag_coefficient_parts`` each reduce every output coefficient
once; the oracles in ``support`` build the same results from products,
partials and GaussianRational sums.  Seeded, n = 1..3.
"""

from fractions import Fraction

import pytest
from support import (
    build_g_oracle,
    check_pluriharmonic_oracle,
    linear_subst_apply_oracle,
    random_fraction,
    random_gq,
    random_poly,
    random_term_map,
    real_imag_coefficient_parts_oracle,
    seeded,
    wirtinger_oracle,
)

from kholo.cartan import build_g, check_pluriharmonic, verify_g_holomorphic
from kholo.errors import ExpansionTooLarge
from kholo.exprio import parse_poly
from kholo.polynomials import (
    MAX_EXPANSION_TERMS,
    LinearSubst,
    SparsePoly,
    VarSpace,
    real_imag_coefficient_parts,
    split_real_imag,
    wirtinger,
)
from kholo.rationals import GQ_MINUS_I, GaussianRational

DIMS = [1, 2, 3]


def _same(p, q):
    """Equal polynomials, both in canonical form."""
    assert p.validate() and q.validate()
    assert p.space == q.space
    assert p.terms() == q.terms()


def _random_image(rng, target, huge=False):
    """An affine form on a random subset of the target's variables.

    Covers the zero form, constants, monomials and sums with overlapping
    support, with denominators such as 2, 3 and 2i, or parts past 10^400.
    """
    def coeff():
        if huge:
            return GaussianRational(Fraction(rng.randint(-10**420, 10**420), rng.randint(1, 10**410)),
                                    Fraction(rng.randint(-10**420, 10**420), rng.randint(1, 10**410)))
        return rng.choice([GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(-1, 2)),
                           GaussianRational(Fraction(1, 3)), GaussianRational(0, 1),
                           random_gq(rng, 5)])

    image = SparsePoly.zero(target)
    if rng.random() < 0.5:
        image = image + SparsePoly.constant(target, coeff())
    for name in rng.sample(target.names, rng.randint(0, min(2, len(target)))):
        image = image + SparsePoly.variable(target, name, coeff())
    return image


@pytest.mark.parametrize("n", DIMS)
def test_apply_matches_oracle_on_random_images(n):
    rng = seeded(100 + n)
    source = VarSpace.z(n)
    for target in (VarSpace.xy(n), VarSpace.zw(n), VarSpace.z(n)):
        for _ in range(60):
            images = {name: _random_image(rng, target) for name in source.names}
            s = LinearSubst(source, target, images)
            p = random_poly(source, rng, max_degree=5, max_terms=6)
            _same(s.apply(p), linear_subst_apply_oracle(s, p))


@pytest.mark.parametrize("n", DIMS)
def test_apply_matches_oracle_on_pipeline_images(n):
    """The changes of variables the pipelines make, on random inputs."""
    rng = seeded(200 + n)
    z, xy, zw, zt, ztw = (VarSpace.z(n), VarSpace.xy(n), VarSpace.zw(n), VarSpace.zt(n),
                          VarSpace.ztw(n))
    half = GaussianRational(Fraction(1, 2))
    minus_half_i = GaussianRational(0, Fraction(-1, 2))
    y0 = [rng.randint(-2, 2) for _ in range(n)]
    diag = {}
    plus = {}
    complexify = {}
    restrict = {"t": SparsePoly.variable(zt, "t", GQ_MINUS_I)}
    into_shift = {"t": SparsePoly.variable(ztw, "t") - SparsePoly.variable(ztw, "w0")}
    for j in range(1, n + 1):
        diag[f"x{j}"] = SparsePoly.variable(z, f"z{j}", half)
        diag[f"y{j}"] = SparsePoly.variable(z, f"z{j}", minus_half_i)
        plus[f"z{j}"] = (SparsePoly.variable(zw, f"z{j}")
                         + SparsePoly.variable(zw, f"w{j}", GaussianRational(0, 1)))
        complexify[f"z{j}"] = (SparsePoly.variable(xy, f"x{j}")
                               + SparsePoly.variable(xy, f"y{j}", GaussianRational(0, 1)))
        restrict[f"x{j}"] = SparsePoly.variable(zt, f"z{j}")
        restrict[f"y{j}"] = SparsePoly.constant(zt, y0[j - 1])
        into_shift[f"z{j}"] = (SparsePoly.variable(ztw, f"z{j}")
                               - SparsePoly.constant(ztw, GaussianRational(0, y0[j - 1])))
    cases = [
        (LinearSubst(xy, z, diag), xy),
        (LinearSubst(z, zw, plus), z),
        (LinearSubst(z, xy, complexify), z),
        (LinearSubst(VarSpace.xyt(n), zt, restrict), VarSpace.xyt(n)),
        (LinearSubst(zt, ztw, into_shift), zt),
    ]
    for s, source in cases:
        for _ in range(25):
            p = random_poly(source, rng, max_degree=6, max_terms=8)
            _same(s.apply(p), linear_subst_apply_oracle(s, p))


@pytest.mark.parametrize("n", DIMS)
def test_apply_matches_oracle_on_huge_parts(n):
    rng = seeded(300 + n)
    source = VarSpace.z(n)
    target = VarSpace.zw(n)
    for _ in range(3):
        images = {name: _random_image(rng, target, huge=True) for name in source.names}
        s = LinearSubst(source, target, images)
        p = SparsePoly.from_terms(source, random_term_map(rng, n, 3, huge=True))
        _same(s.apply(p), linear_subst_apply_oracle(s, p))


def test_apply_cancellation_zero_and_constants():
    z2, z1 = VarSpace.z(2), VarSpace.z(1)
    w = SparsePoly.variable(z1, "z1")
    onto_diagonal = LinearSubst(z2, z1, {"z1": w + 1, "z2": w + 1})
    # every term cancels
    p = parse_poly("(z1 + z2)^3 - 8*z1^3 + (z1 - z2)*(z1 + 2*z2)", z2)
    assert onto_diagonal.apply(p).is_zero()
    # some terms cancel
    p = parse_poly("z1^2 - z2^2 + 1/3*z1*z2", z2)
    _same(onto_diagonal.apply(p), linear_subst_apply_oracle(onto_diagonal, p))
    _same(onto_diagonal.apply(p), parse_poly("1/3*(z1 + 1)^2", z1))
    for p in (SparsePoly.zero(z2), SparsePoly.constant(z2, GaussianRational(Fraction(2, 7), -3))):
        _same(onto_diagonal.apply(p), linear_subst_apply_oracle(onto_diagonal, p))
    # a zero image kills every term that uses its variable
    killing = LinearSubst(z2, z1, {"z1": SparsePoly.zero(z1), "z2": w})
    p = parse_poly("z1^2*z2 + z1 + z2^2 + 5", z2)
    _same(killing.apply(p), parse_poly("z1^2 + 5", z1))
    _same(killing.apply(p), linear_subst_apply_oracle(killing, p))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("barred", [False, True])
def test_wirtinger_matches_oracle(n, barred):
    rng = seeded(400 + n + 10 * barred)
    space = VarSpace.xy(n)
    for _ in range(60):
        p = random_poly(space, rng, max_degree=6, max_terms=8)
        for j in range(1, n + 1):
            _same(wirtinger(p, j, barred), wirtinger_oracle(p, j, barred))
    p = SparsePoly.from_terms(space, random_term_map(rng, 2 * n, 6, huge=True))
    _same(wirtinger(p, 1, barred), wirtinger_oracle(p, 1, barred))
    for p in (SparsePoly.zero(space), SparsePoly.constant(space, GaussianRational(1, 1))):
        assert wirtinger(p, n, barred).is_zero()


def test_wirtinger_terms_cancel():
    # d/dzbar of x^2 + 2*i*x*y - y^2 = z^2 is zero term by term only after the sum
    p = parse_poly("x^2 + 2*i*x*y - y^2 + 1/3*x", VarSpace.xy(1))
    _same(wirtinger(p, 1, True), parse_poly("1/6", VarSpace.xy(1)))
    _same(wirtinger(p, 1, True), wirtinger_oracle(p, 1, True))


@pytest.mark.parametrize("n", DIMS)
def test_build_g_matches_oracle(n):
    rng = seeded(500 + n)
    space = VarSpace.z(n)
    for _ in range(40):
        f = random_poly(space, rng, max_degree=5, max_terms=6)
        _same(build_g(f), build_g_oracle(f))
    f = SparsePoly.from_terms(space, random_term_map(rng, n, 4, huge=True))
    _same(build_g(f), build_g_oracle(f))
    for f in (SparsePoly.zero(space), SparsePoly.constant(space, GaussianRational(2, -1))):
        _same(build_g(f), build_g_oracle(f))


@pytest.mark.parametrize("n", DIMS)
def test_check_pluriharmonic_matches_oracle(n):
    rng = seeded(600 + n)
    space = VarSpace.xy(n)
    for trial in range(60):
        if trial % 3 == 0:
            # the real part of a holomorphic polynomial, plus a little noise
            u = split_real_imag(random_poly(VarSpace.z(n), rng, max_degree=4))[0]
            if trial % 2:
                u = u + random_poly(space, rng, max_degree=3, max_terms=2, real=True)
        else:
            u = random_poly(space, rng, max_degree=5, max_terms=6, real=True)
        verdict, witnesses = check_pluriharmonic(u)
        want_verdict, want = check_pluriharmonic_oracle(u)
        assert verdict == want_verdict
        assert len(witnesses) == len(want)
        for (j, k, got), (wj, wk, expected) in zip(witnesses, want):
            assert (j, k) == (wj, wk)
            _same(got, expected)


def test_check_pluriharmonic_witness_order_and_symmetry():
    u = parse_poly("x1*y2 + x1^2*y2 - 1/3*y1*x3", VarSpace.xy(3))
    _, witnesses = check_pluriharmonic(u)
    assert [(j, k) for j, k, _ in witnesses] == [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
    by_index = {(j, k): d for j, k, d in witnesses}
    assert by_index[(2, 1)] == -by_index[(1, 2)]
    assert not by_index[(1, 2)].has_real_coefficients()


@pytest.mark.parametrize("n", DIMS)
def test_real_imag_coefficient_parts_matches_oracle(n):
    rng = seeded(700 + n)
    space = VarSpace.xy(n)
    polys = [random_poly(space, rng, max_degree=4, max_terms=8) for _ in range(40)]
    polys.append(SparsePoly.from_terms(space, random_term_map(rng, 2 * n, 6, huge=True)))
    polys.append(SparsePoly.zero(space))
    polys.append(SparsePoly.constant(space, GaussianRational(0, random_fraction(rng) or 1)))
    for p in polys:
        re_part, im_part = real_imag_coefficient_parts(p)
        want_re, want_im = real_imag_coefficient_parts_oracle(p)
        _same(re_part, want_re)
        _same(im_part, want_im)


# -- the expansion budget -------------------------------------------------------

def test_apply_budget_edge():
    """Each input term contributes the product of its power tables' lengths."""
    z2 = VarSpace.z(2)
    images = {name: SparsePoly.variable(z2, name) + 1 for name in z2.names}
    s = LinearSubst(z2, z2, images)
    # (z1 + 1)^99 and (z2 + 1)^99 have 100 terms each: 100 * 100 contributions
    assert MAX_EXPANSION_TERMS == 100 * 100
    at_limit = parse_poly("z1^99*z2^99", z2)
    assert len(s.apply(at_limit)) == MAX_EXPANSION_TERMS
    with pytest.raises(ExpansionTooLarge) as info:
        s.apply(at_limit + 1)
    assert str(info.value) == (
        f"a change of variables into (z1, z2) expands to up to 10001 terms, "
        f"over the limit of {MAX_EXPANSION_TERMS}")


def test_apply_budget_refuses_before_expanding():
    z1, xy = VarSpace.z(1), VarSpace.xy(1)
    s = LinearSubst(z1, xy, {"z1": parse_poly("x + i*y", xy)})
    with pytest.raises(ExpansionTooLarge):
        # 10^6 + 1 terms; expanding would take far longer than the refusal
        s.apply(parse_poly("z1^1000000", z1))


def test_verify_g_budget_edge():
    """g of z1^e in real coordinates needs about e^3/12 contributions."""
    z1 = VarSpace.z(1)
    assert verify_g_holomorphic(parse_poly("z1^40", z1)) == (True, [])
    with pytest.raises(ExpansionTooLarge) as info:
        verify_g_holomorphic(parse_poly("z1^50", z1))
    assert "expands to up to 11726 terms" in str(info.value)
