"""Shared test helpers: independent oracles and corpus generators.

The oracles here deliberately avoid the code paths they are used to check:
the determinant oracle is cofactor expansion, never Bareiss; the adjacency
oracle enumerates simplex pairs directly; the splitting oracle compares
evaluations instead of expansions; the term-map oracles multiply and divide
through the GaussianRational operators, one reduction per operation; the
calculus oracles substitute by whole-polynomial products and differentiate by
composing partials, and build g and the pluriharmonic check the long way;
the printer oracle reads each coefficient through its Fraction parts; the
evaluation oracle sums reduced GaussianRational products; the point-in-simplex
oracle scales the point and the simplex by their own lcm on each call, where
the router locates points on its complex's lattice.
The corpus generators (``random_fraction``, ``random_gq``, ``random_poly``,
``grid_complex`` and ``rational_complex``) live in ``kholo.selftest``, whose
checks the acceptance suite shares; they are re-exported here.
"""

import random
from fractions import Fraction

from kholo.errors import (
    DegreeOverflow,
    IncompleteAssignment,
    IncompleteSubstitution,
    IndexOutOfRange,
    InexactDivision,
    InvalidComplex,
    SpaceMismatch,
)
from kholo.polynomials import (
    MAX_TOTAL_DEGREE,
    LinearSubst,
    SparsePoly,
    VarSpace,
    conjugate_coefficients,
    require_real_coefficients,
)
from kholo.rationals import (
    GQ_HALF,
    GQ_I,
    GQ_MINUS_I,
    GQ_ZERO,
    GaussianRational,
    as_gaussian,
    terms_add_into,
    terms_scale,
    terms_sub,
)
from kholo.selftest import (  # noqa: F401
    grid_complex,
    random_fraction,
    random_gq,
    random_poly,
    rational_complex,
)
from kholo.simplicial import _integer_points, _signed_volume


def assert_canonical_gq(c):
    """(x + y*i)/d with d > 0 and gcd(x, y, d) == 1, so zero is (0, 0, 1)."""
    from math import gcd
    assert c.d > 0
    assert gcd(c.x, c.y, c.d) == 1


# -- determinant oracle ----------------------------------------------------------

def laplace_det(rows):
    """Cofactor expansion along the first active row, minors memoized.

    Structurally the Laplace formula; independent of Bareiss elimination.
    """
    size = len(rows)
    space = rows[0][0].space
    one = SparsePoly.constant(space, 1)
    zero = SparsePoly.zero(space)
    cache = {}

    def minor(r, cols):
        if not cols:
            return one
        key = (r, cols)
        got = cache.get(key)
        if got is not None:
            return got
        total = zero
        sign = 1
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if not entry.is_zero():
                sub = minor(r + 1, cols[:k] + cols[k + 1:])
                piece = entry * sub
                total = total + piece if sign > 0 else total - piece
            sign = -sign
        cache[key] = total
        return total

    return minor(0, tuple(range(size)))


# -- term-map oracles -------------------------------------------------------------

def random_term_map(rng, width, size, huge=False):
    """Up to ``size`` terms of degree <= 3 per variable, mixed denominators.

    ``huge`` draws numerators past 10^400 over denominators past 10^400.
    """
    def part():
        if huge:
            return Fraction(rng.randint(-10**420, 10**420), rng.randint(1, 10**410))
        return random_fraction(rng)

    out = {}
    for _ in range(size):
        c = GaussianRational(part(), part())
        if c:
            out[tuple(rng.randint(0, 3) for _ in range(width))] = c
    return out


def terms_mul_oracle(a, b):
    """Schoolbook product of two term maps, one GaussianRational sum per pair."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def try_divide_oracle(p, d):
    """p / d by leading-term cancellation, or None when d does not divide p.

    Finds the remainder's leading term with max() and rebuilds the remainder
    for every quotient term, so it is quadratic in the quotient's size.
    """
    if d.is_zero():
        raise InexactDivision("division by the zero polynomial")
    divisor = dict(d.terms())
    quotient = {}
    rest = dict(p.terms())

    def leading(terms):
        return max(terms, key=lambda e: (sum(e), e))

    d_lead = leading(divisor)
    d_lead_coeff = divisor[d_lead]
    while rest:
        r_lead = leading(rest)
        exps = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(e < 0 for e in exps):
            return None
        coeff = rest[r_lead] / d_lead_coeff
        quotient[exps] = coeff
        rest = terms_sub(rest, terms_mul_oracle({exps: coeff}, divisor))
    return SparsePoly.from_terms(p.space, quotient)


def eval_oracle(p, point):
    """``p.eval(point)`` through the GaussianRational operators: every power,
    product and partial sum is reduced."""
    values = {}
    for name in p.variables_present():
        if name not in point:
            raise IncompleteAssignment(f"no value for {name!r}")
        values[p.space.index(name)] = as_gaussian(point[name])
    total = GQ_ZERO
    powers = {}
    for exps, coeff in p.terms():
        term = coeff
        for k, e in enumerate(exps):
            if e:
                cached = powers.get((k, e))
                if cached is None:
                    cached = values[k] ** e
                    powers[(k, e)] = cached
                term = term * cached
        total = total + term
    return total


# -- calculus oracles -------------------------------------------------------------

def linear_subst_apply_oracle(subst, p):
    """``subst.apply(p)`` as a sum of products: each input term is its
    coefficient times a product of cached powers of the images."""
    if p.space != subst.source:
        raise SpaceMismatch(f"{p.space} vs substitution source {subst.source}")
    for name in p.variables_present():
        if name not in subst.images:
            raise IncompleteSubstitution(f"no image for {name!r}")
    if p.total_degree() > MAX_TOTAL_DEGREE:
        raise DegreeOverflow("input degree exceeds the supported bound")
    one = SparsePoly.constant(subst.target, 1)
    powers = {}

    def power(k, e):
        key = (k, e)
        cached = powers.get(key)
        if cached is None:
            if e == 1:
                cached = subst.images[p.space.names[k]]
            else:
                half = power(k, e // 2)
                cached = half * half
                if e & 1:
                    cached = cached * power(k, 1)
            powers[key] = cached
        return cached

    acc = {}
    for exps, coeff in p.terms():
        prod = one
        for k, e in enumerate(exps):
            if e:
                prod = prod * power(k, e)
        terms_add_into(acc, terms_scale(dict(prod.terms()), coeff))
    return SparsePoly.from_terms(subst.target, acc)


def wirtinger_oracle(p, j, barred):
    """(d/dx_j -/+ i d/dy_j)/2 from two partials, a scale, a sum and a scale."""
    npairs = p.space.xy_pair_count()
    if not 1 <= j <= npairs:
        raise IndexOutOfRange(f"index {j} outside 1..{npairs}")
    dx = p.partial(f"x{j}")
    dy = p.partial(f"y{j}")
    unit = GQ_I if barred else GQ_MINUS_I
    return (dx + dy.scale(unit)).scale(GQ_HALF)


def build_g_oracle(f):
    """(f(z + i*w) + sigma(f)(z - i*w)) / 2 by two substitutions."""
    n = f.space.n
    target = VarSpace.zw(n)
    plus = {}
    minus = {}
    for j in range(1, n + 1):
        zj = SparsePoly.variable(target, f"z{j}")
        wj = SparsePoly.variable(target, f"w{j}")
        plus[f"z{j}"] = zj + wj.scale(GQ_I)
        minus[f"z{j}"] = zj - wj.scale(GQ_I)
    first = linear_subst_apply_oracle(LinearSubst(f.space, target, plus), f)
    second = linear_subst_apply_oracle(LinearSubst(f.space, target, minus),
                                       conjugate_coefficients(f))
    return (first + second).scale(Fraction(1, 2))


def check_pluriharmonic_oracle(u):
    """All n*n mixed derivatives d/dzbar_k d/dz_j u, witnesses row-major in (j, k)."""
    require_real_coefficients(u, "check_pluriharmonic")
    npairs = u.space.xy_pair_count()
    witnesses = []
    for j in range(1, npairs + 1):
        dj = wirtinger_oracle(u, j, barred=False)
        for k in range(1, npairs + 1):
            djk = wirtinger_oracle(dj, k, barred=True)
            if not djk.is_zero():
                witnesses.append((j, k, djk))
    return (not witnesses), witnesses


def real_imag_coefficient_parts_oracle(p):
    """Split each coefficient a + b*i into (a, b) through Fraction."""
    re_terms = {}
    im_terms = {}
    for exps, coeff in p.terms():
        if coeff.re:
            re_terms[exps] = GaussianRational(coeff.re)
        if coeff.im:
            im_terms[exps] = GaussianRational(coeff.im)
    return SparsePoly.from_terms(p.space, re_terms), SparsePoly.from_terms(p.space, im_terms)


# -- printer oracle ---------------------------------------------------------------

def _format_rational_oracle(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _imag_piece_oracle(b):
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{_format_rational_oracle(b)}*i"


def format_gaussian_oracle(c):
    """The canonical scalar text, from the Fraction parts ``c.re`` and ``c.im``."""
    if c.is_real():
        return _format_rational_oracle(c.re)
    re, im = c.re, c.im
    if re == 0:
        return f"({_imag_piece_oracle(im)})"
    sign = "+" if im > 0 else "-"
    mag = -im if im < 0 else im
    piece = "i" if mag == 1 else f"{_format_rational_oracle(mag)}*i"
    return f"({_format_rational_oracle(re)}{sign}{piece})"


def _monomial_oracle(space, exps):
    parts = []
    for name, e in zip(space.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly_oracle(p):
    """The canonical polynomial text, each coefficient read through Fractions."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.terms():
        mono = _monomial_oracle(p.space, exps)
        if coeff.is_real():
            re = coeff.re
            negative = re < 0
            mag = -re if negative else re
            if not mono:
                body = _format_rational_oracle(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_format_rational_oracle(mag)}*{mono}"
            pieces.append(("-" if negative else "+", body))
        else:
            body = format_gaussian_oracle(coeff)
            if mono:
                body = f"{body}*{mono}"
            pieces.append(("+", body))
    sign, body = pieces[0]
    out = [f"-{body}" if sign == "-" else body]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


# -- splitting oracle -------------------------------------------------------------

def split_matches_evaluation(f, re_part, im_part, rng, samples=5):
    """Check p(x0 + i*y0) == re(x0, y0) + i*im(x0, y0) at random rational points."""
    n = f.space.n
    for _ in range(samples):
        xs = {f"x{j}": GaussianRational(random_fraction(rng)) for j in range(1, n + 1)}
        ys = {f"y{j}": GaussianRational(random_fraction(rng)) for j in range(1, n + 1)}
        zs = {f"z{j}": xs[f"x{j}"] + ys[f"y{j}"] * GaussianRational(0, 1)
              for j in range(1, n + 1)}
        point = {**xs, **ys}
        direct = f.eval(zs)
        split_value = re_part.eval(point) + im_part.eval(point) * GaussianRational(0, 1)
        if direct != split_value:
            return False
    return True


# -- floating-point evaluation ----------------------------------------------------

def _to_complex(c):
    return float(c.re) + 1j * float(c.im)


def evaluate_complex(p, point):
    """Floating-point value of p at a complex assignment {name: complex}."""
    total = 0j
    for exps, coeff in p.terms():
        term = _to_complex(coeff)
        for k, e in enumerate(exps):
            if e:
                term *= point[p.space.names[k]] ** e
        total += term
    return total


# -- simplicial oracle -------------------------------------------------------------

def point_in_simplex(point, vertices):
    """Exact membership of a point of R^n in the closed simplex on n+1 vertices.

    The barycentric coordinates are ratios of signed volumes (Cramer's rule),
    so the point is inside iff none of them has the opposite sign of the
    simplex's volume.  Runs on integers over the lcm of this call's
    denominators.
    """
    _, (p, *pts) = _integer_points((point, *vertices))
    volume = _signed_volume(pts)
    if volume == 0:
        raise InvalidComplex("degenerate simplex in membership test")
    return all(_signed_volume(pts[:j] + [p] + pts[j + 1:]) * volume >= 0
               for j in range(len(pts)))


def shared_facet_pairs(complex_):
    """Oracle: brute-force pair enumeration counting shared (n-1)-faces."""
    n = complex_.dim
    pairs = []
    for a in range(len(complex_.top)):
        for b in range(a + 1, len(complex_.top)):
            if len(set(complex_.top[a]) & set(complex_.top[b])) == n:
                pairs.append((a, b))
    return pairs


# -- misc ---------------------------------------------------------------------------

def seeded(seed):
    return random.Random(seed)
