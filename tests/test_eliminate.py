"""Resultants, basepoint search, and the annihilator pipeline."""

import math
from fractions import Fraction
from itertools import product

import pytest
from support import (
    evaluate_complex,
    laplace_det,
    random_gq,
    random_poly,
    random_term_map,
    seeded,
)

from kholo.eliminate import (
    AnnihilatorPair,
    bareiss_determinant,
    eliminate_annihilator,
    search_basepoint,
    sylvester_matrix,
    sylvester_resultant,
    verify_annihilator,
)
from kholo import eliminate
from kholo.branches import discriminant
from kholo.errors import DegreeZeroBoth, ExpansionTooLarge, ZeroDegree, ZeroInput
from kholo.exprio import parse_poly
from kholo.polynomials import (
    LinearSubst,
    SparsePoly,
    VarSpace,
    rename_space,
    substitute_variable,
    try_divide,
    univariate_coefficients,
)
from kholo.rationals import GQ_MINUS_I, GaussianRational

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


# -- the resultant's work budget ----------------------------------------------------

@pytest.mark.parametrize("a, b", [
    ("t^5 + z1*t^3 + z2*t + 1", "5*t^4 + 3*z1*t^2 + z2"),   # steps with delta 2
    ("z1*t^2 + 1", "z2"),                                     # b constant in t: b^2
    ("1/2*t^5 + 2/3*z1*t^3 + 5/6*z2*t + 1/3",                # denominators cleared
     "5/2*t^4 + 2*z1*t^2 + 5/6*z2"),
])
def test_resultant_work_budget_edge(monkeypatch, a, b):
    counts = []
    charge = eliminate._Work._charge

    def recording(work, amount):
        charge(work, amount)
        counts.append(work.count)

    monkeypatch.setattr(eliminate._Work, "_charge", recording)
    a, b = parse_poly(a, VarSpace.zt(2)), parse_poly(b, VarSpace.zt(2))
    expected = sylvester_resultant(a, b, "t")
    used = counts[-1]
    assert used > 0
    monkeypatch.setattr(eliminate, "MAX_RESULTANT_WORK", used)
    assert sylvester_resultant(a, b, "t") == expected
    monkeypatch.setattr(eliminate, "MAX_RESULTANT_WORK", used - 1)
    with pytest.raises(ExpansionTooLarge, match=f"more than {used - 1} term products"):
        sylvester_resultant(a, b, "t")


def test_the_cited_degree_12_discriminant_charges_710820(monkeypatch):
    counts = []
    charge = eliminate._Work._charge

    def recording(work, amount):
        charge(work, amount)
        counts.append(work.count)

    monkeypatch.setattr(eliminate._Work, "_charge", recording)
    p = parse_poly("t^12 + (z1^2 + z2)*t^7 + z2^3*t^3 + z1*z2 + 1", VarSpace.zt(2))
    discriminant(p, "t")
    assert counts[-1] == 710_820


def test_power_charges_each_product_in_bottom_up_order(monkeypatch):
    amounts = []
    charge = eliminate._Work._charge

    def recording(work, amount):
        charge(work, amount)
        amounts.append(amount)

    monkeypatch.setattr(eliminate._Work, "_charge", recording)
    p = parse_poly("z1 + 2*z2 - 1/3", VarSpace.z(2))
    # |p^k| = C(k + 2, 2): square, then multiply on each set bit after the lowest
    expected = {1: [], 2: [9], 3: [9, 18], 4: [9, 36], 5: [9, 36, 45], 6: [9, 36, 90],
                7: [9, 18, 36, 150], 8: [9, 36, 225], 9: [9, 36, 225, 135],
                10: [9, 36, 225, 270], 11: [9, 18, 36, 225, 450], 12: [9, 36, 225, 675]}
    for e, charges in expected.items():
        amounts.clear()
        work = eliminate._Work()
        assert work.power(p, e) == p ** e
        assert amounts == charges
        assert work.count == sum(charges)
    assert eliminate._Work().power(p, 0) == SparsePoly.constant(p.space, 1)


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
    # these branches come before the denominators are cleared
    r = sylvester_resultant(ztw("1/2*w0^3 - 1/3*z1", n=1), ztw("2/3*z1 + 5/6", n=1), "w0")
    assert r == zt("(2/3*z1 + 5/6)^3")
    r = sylvester_resultant(ztw("2/3*z1 + 5/6", n=1), ztw("1/6*w0^2 - z1", n=1), "w0")
    assert r == zt("(2/3*z1 + 5/6)^2")


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


# -- subresultant PRS vs the Bareiss reference ----------------------------------------

def _w_space(n):
    return VarSpace([f"z{j}" for j in range(1, n + 1)] + ["w0"], n)


def _w(text):
    return parse_poly(text, _w_space(1))


def _assert_matches_bareiss(a, b):
    """Both argument orders agree with the Sylvester determinant."""
    for p, q in ((a, b), (b, a)):
        expected = bareiss_determinant(sylvester_matrix(p, q, "w0"))
        assert sylvester_resultant(p, q, "w0") == expected


def _gappy_univariate(space, name, degree, rng):
    """lead * w^degree plus two lower terms at random degrees.

    Few terms leave the remainder sequence room to drop several degrees at
    once (delta > 1).
    """
    lower = random_poly(space.drop(name), rng, max_degree=1, max_terms=2,
                        allow_zero=True)
    lead = random_poly(space.drop(name), rng, max_degree=1, max_terms=2)
    w = SparsePoly.variable(space, name)
    return (w ** degree * _lift(lead, space)
            + w ** rng.randint(0, degree - 1) * _lift(lower, space)
            + SparsePoly.constant(space, random_gq(rng)))


@pytest.mark.parametrize("n, max_degree", [(1, 5), (2, 3)])
def test_prs_matches_bareiss_random(n, max_degree):
    rng = seeded(40 + n)
    space = _w_space(n)
    for _ in range(20):
        make = rng.choice([_random_univariate, _gappy_univariate])
        a = make(space, "w0", rng.randint(1, max_degree), rng)
        b = make(space, "w0", rng.randint(1, max_degree), rng)
        _assert_matches_bareiss(a, b)


@pytest.mark.parametrize("a, b", [
    # a degree gap: prem(a, a') has degree 1, so the next step has delta = 3
    ("w0^5 + z1*w0 + 1", "5*w0^4 + z1"),
    ("w0^5 + z1*w0 + 1", "w0^2 + z1"),
    # polynomials in w0^2: every step drops two degrees, and the sequence
    # ends at a constant after a remainder of degree 2
    ("w0^4 + z1*w0^2 + 1", "z1*w0^2 + 1"),
    ("w0^6 + z1*w0^2 - 1", "(z1 + 1)*w0^4 + w0^2 + z1"),
    # z-dependent leading coefficients
    ("z1*w0^3 + w0 + 1", "3*z1*w0^2 + 1"),
    ("(z1 + i)*w0^4 - w0^2 + z1", "(2*z1 - 1)*w0^3 + z1*w0"),
    # degree 1 on either side
    ("w0 - z1", "w0^4 + z1*w0^3 - 2"),
    ("z1*w0 + 1", "w0^2 - z1"),
    # odd times odd: the sign flips with the argument order
    ("w0^3 - z1*w0 + 1", "w0 + z1"),
    ("w0^3 + z1", "w0^5 - w0 + z1^2"),
    ("z1*w0^3 + w0^2 - 1", "w0^3 + (1 + i)*z1"),
    # Gaussian-integer coefficients beyond 1 and i
    ("w0^3 + (2 + i)*z1*w0 - 3", "4*w0^2 - z1"),
    ("(1 - i)*w0^4 + z1^2*w0 + 7", "w0^3 - 2*i*z1"),
])
def test_prs_matches_bareiss_examples(a, b):
    # every example has L_a = L_b = 1: nothing is scaled at entry or divided out
    a, b = _w(a), _w(b)
    assert a.denominator() == b.denominator() == 1
    _assert_matches_bareiss(a, b)


# -- denominators cleared at entry ------------------------------------------------------

def _with_denominators(space, name, degree, rng, huge=False):
    """Exact degree ``degree`` in ``name``; coefficients with mixed denominators,
    past 10^400 when ``huge``."""
    base = space.drop(name)
    width = len(base.names)
    w = SparsePoly.variable(space, name)
    p = SparsePoly.zero(space)
    for k in range(degree + 1):
        terms = random_term_map(rng, width, rng.randint(0, 3), huge)
        if k == degree and not terms:
            terms = {(0,) * width: GaussianRational(Fraction(5, 6))}
        p = p + w ** k * _lift(SparsePoly.from_terms(base, terms), space)
    return p


@pytest.mark.parametrize("n, huge", [(1, False), (2, False), (1, True)])
def test_prs_matches_both_determinants_on_mixed_denominators(n, huge):
    rng = seeded(44 + n + 2 * huge)
    space = _w_space(n)
    most = 2 if huge else 3
    for _ in range(6 if huge else 12):
        a = _with_denominators(space, "w0", rng.randint(1, most), rng, huge)
        b = _with_denominators(space, "w0", rng.randint(1, most), rng, huge)
        for p, q in ((a, b), (b, a)):
            matrix = sylvester_matrix(p, q, "w0")
            assert sylvester_resultant(p, q, "w0") == bareiss_determinant(matrix)
            assert sylvester_resultant(p, q, "w0") == laplace_det(matrix)


def test_resultant_scaling_identity():
    rng = seeded(47)
    space = _w_space(1)
    for _ in range(10):
        a = _with_denominators(space, "w0", rng.randint(1, 3), rng)
        b = _with_denominators(space, "w0", rng.randint(1, 3), rng)
        la, lb = rng.choice([2, 6, 35, Fraction(1, 6)]), rng.choice([3, 10, Fraction(2, 15)])
        da, db = a.degree_in("w0"), b.degree_in("w0")
        assert (sylvester_resultant(a * la, b * lb, "w0")
                == sylvester_resultant(a, b, "w0") * (la ** db * lb ** da))


def test_prs_kernels_see_only_gaussian_integers(monkeypatch):
    a = _w("(1/2 + 7/3*i)*w0^3 + 2/3*z1*w0 + 5/6")
    b = _w("1/3*w0^2 - 1/4*z1 + 1/6")
    expected = bareiss_determinant(sylvester_matrix(a, b, "w0"))
    seen = []

    def spy(fn):
        def wrapped(*args):
            out = fn(*args)
            seen.extend(p.denominator() for p in args + (out,)
                        if isinstance(p, SparsePoly))
            return out
        return wrapped

    monkeypatch.setattr(eliminate, "mul_sub", spy(eliminate.mul_sub))
    monkeypatch.setattr(eliminate, "exact_divide", spy(eliminate.exact_divide))
    monkeypatch.setattr(eliminate._Work, "mul", spy(eliminate._Work.mul))
    assert sylvester_resultant(a, b, "w0") == expected
    assert sylvester_resultant(b, a, "w0") == expected  # (-1)^(3*2)
    assert seen and set(seen) == {1}


def test_prs_is_zero_on_a_common_factor_with_denominators():
    rng = seeded(48)
    space = _w_space(1)
    for huge, most in ((False, 2), (True, 1)):
        for _ in range(4):
            c = _with_denominators(space, "w0", rng.randint(1, most), rng, huge)
            a = c * _with_denominators(space, "w0", rng.randint(0, most), rng)
            b = c * _with_denominators(space, "w0", rng.randint(0, most), rng)
            assert sylvester_resultant(a, b, "w0").is_zero()
            assert sylvester_resultant(b, a, "w0").is_zero()


def test_prs_is_zero_on_a_common_factor_random():
    rng = seeded(43)
    for n in (1, 2):
        space = _w_space(n)
        for _ in range(6):
            c = _random_univariate(space, "w0", rng.randint(1, 2), rng)
            a = c * _random_univariate(space, "w0", rng.randint(1, 2), rng)
            b = c * _gappy_univariate(space, "w0", rng.randint(1, 3), rng)
            assert sylvester_resultant(a, b, "w0").is_zero()
            _assert_matches_bareiss(a, b)


# -- basepoint search ---------------------------------------------------------------

def test_basepoint_trivial():
    pair = AnnihilatorPair(p1=xyt("t - x^2 + y^2"), p2=xyt("t - 2*x*y"), n=1)
    assert search_basepoint(pair) == ((0,), zt("t - z1^2"), zt("-i*t"))


def test_basepoint_skips_a_restriction_free_of_t():
    # P1(x, 0, t) = -1 is nonzero but free of t, so y0 = 0 is skipped
    pair = AnnihilatorPair(p1=xyt("y*t - 1"), p2=xyt("t - x"), n=1)
    assert search_basepoint(pair) == ((-1,), zt("-t - 1"), zt("-i*t - z1"))


def test_basepoint_needs_translation():
    # P1(x, 0, t) = 0; the first y0 of max-norm 1 is -1
    pair = AnnihilatorPair(p1=xyt("y*t"), p2=xyt("t"), n=1)
    assert search_basepoint(pair) == ((-1,), zt("-t"), zt("-i*t"))


def test_basepoint_within_the_nullstellensatz_radius():
    # y*(y - 1)*(y + 1) vanishes on [-1, 1], so y0 = -2 at radius D = 3
    pair = AnnihilatorPair(p1=xyt("y*(y - 1)*(y + 1)*t"), p2=xyt("t"), n=1)
    assert search_basepoint(pair)[0] == (-2,)
    # P1*P2 vanishes on the axes and the diagonal of [-1, 1]^2; D = 2
    pair = AnnihilatorPair(p1=parse_poly("y1*y2*t", VarSpace.xyt(2)),
                           p2=parse_poly("(y1 - y2)*t", VarSpace.xyt(2)), n=2)
    assert search_basepoint(pair)[0] == (-1, 1)


# -- oracle: the 2n-dimensional search over (x0, y0) that search_basepoint replaced --

def _oracle_grid(dim, bound):
    yield (0,) * dim
    for radius in range(1, bound + 1):
        for point in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, point)) == radius:
                yield point


def _oracle_restrict(p, n, x0, y0):
    """P(x + x0, y0, t) as a polynomial in (x, t)."""
    target = VarSpace.xt(n)
    images = {"t": SparsePoly.variable(target, "t")}
    for j in range(1, n + 1):
        images[f"x{j}"] = (SparsePoly.variable(target, f"x{j}")
                           + SparsePoly.constant(target, x0[j - 1]))
        images[f"y{j}"] = SparsePoly.constant(target, y0[j - 1])
    return LinearSubst(p.space, target, images).apply(p)


def _oracle_eliminate(pair, bound=5):
    """(y0, degenerate, annihilator) by the grid search and back-translation."""
    n = pair.n
    for point in _oracle_grid(2 * n, bound):
        x0, y0 = point[:n], point[n:]
        r1 = _oracle_restrict(pair.p1, n, x0, y0)
        r2 = _oracle_restrict(pair.p2, n, x0, y0)
        if r1.degree_in("t") > 0 and r2.degree_in("t") > 0:
            break
    else:
        raise AssertionError("the oracle found no basepoint")
    zt_ = VarSpace.zt(n)
    x_to_z = {f"x{j}": f"z{j}" for j in range(1, n + 1)}
    x_to_z["t"] = "t"
    q1 = rename_space(r1, zt_, x_to_z)
    q2 = substitute_variable(rename_space(r2, zt_, x_to_z), "t",
                             SparsePoly.variable(zt_, "t", GQ_MINUS_I))
    ztw_ = VarSpace.ztw(n)
    into_aux = {f"z{j}": SparsePoly.variable(ztw_, f"z{j}") for j in range(1, n + 1)}
    into_aux["t"] = SparsePoly.variable(ztw_, "w0")
    into_shift = dict(into_aux)
    into_shift["t"] = SparsePoly.variable(ztw_, "t") - SparsePoly.variable(ztw_, "w0")
    resultant = sylvester_resultant(LinearSubst(zt_, ztw_, into_aux).apply(q1),
                                    LinearSubst(zt_, ztw_, into_shift).apply(q2), "w0")
    if resultant.is_zero() or not (any(x0) or any(y0)):
        return y0, resultant.is_zero(), resultant
    back = {"t": SparsePoly.variable(zt_, "t")}
    for j in range(1, n + 1):
        back[f"z{j}"] = (SparsePoly.variable(zt_, f"z{j}")
                         - SparsePoly.constant(zt_, GaussianRational(x0[j - 1], y0[j - 1])))
    return y0, False, LinearSubst(zt_, zt_, back).apply(resultant)


_Y_FACTORS = {
    1: ["y1", "y1 - 1", "y1 + 1", "x1*y1", "y1^2 + y1", "y1^2 - 1"],
    2: ["y1", "y2", "y1 - y2", "y1*y2 + y2", "y1^2 + y2^2", "y2 - 1", "y1^2 - 1",
        "x1*y2 - x2*y1"],
}


def _random_real_with_t(n, rng):
    space = VarSpace.xyt(n)
    while True:
        p = random_poly(space, rng, max_degree=2, max_terms=4, real=True)
        if p.degree_in("t") > 0:
            return p


def _pair_with_y_factors(rng):
    n = rng.choice([1, 2])
    if rng.random() < 0.5:
        pair = pair_from_split(random_poly(VarSpace.z(n), rng, max_degree=2, max_terms=3))
        p1, p2 = pair.p1, pair.p2
    else:
        p1, p2 = _random_real_with_t(n, rng), _random_real_with_t(n, rng)
    factors = [parse_poly(text, VarSpace.xyt(n)) for text in _Y_FACTORS[n]]
    for _ in range(rng.randint(0, 2)):
        p1 = p1 * rng.choice(factors)
    for _ in range(rng.randint(0, 1)):
        p2 = p2 * rng.choice(factors)
    return AnnihilatorPair(p1=p1, p2=p2, n=n)


def test_basepoint_and_annihilator_match_the_grid_oracle():
    rng = seeded(36)
    translated = 0
    for _ in range(320):
        pair = _pair_with_y_factors(rng)
        y0, degenerate, annihilator = _oracle_eliminate(pair)
        report = eliminate_annihilator(pair)
        assert report.basepoint_x == (Fraction(0),) * pair.n
        assert report.basepoint_y == y0
        assert report.degenerate == degenerate
        assert report.annihilator == annihilator
        translated += any(y0)
    assert translated >= 100


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


@pytest.mark.parametrize("p2, f", [("t", "1"), ("y*t + 1", "1 + i")])
def test_eliminate_skips_restrictions_free_of_t(p2, f):
    # P1 = y*t + 1 annihilates f1 = -1/y but restricts to 1, free of t, at y = 0
    report = eliminate_annihilator(AnnihilatorPair(p1=xyt("y*t + 1"), p2=xyt(p2), n=1))
    assert report.basepoint_y == (-1,)
    # on the line Im z = -1, f1 = -1/y and f2 (0 or -1/y) are constants
    assert verify_annihilator(report.annihilator, parse_poly(f, VarSpace.z(1)))


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
