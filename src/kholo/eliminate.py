"""From annihilators of the real and imaginary parts to an annihilator of f.

Given nonzero real polynomials P1(x, y, t), P2(x, y, t) annihilating the two
components of f = f1 + i*f2, the pipeline restricts them to y = y0, where y0
is chosen so both restrictions survive, complexifies x to z, and eliminates
the auxiliary variable:

    Q1(z, t) := P1(z, y0, t)
    Q2(z, t) := P2(z, y0, -i*t)
    R(z, t)  := Res_w0( Q1(z - i*y0, w0), Q2(z - i*y0, t - w0) )

R annihilates f when it is nonzero.  The resultant is the determinant of the
Sylvester matrix, computed by the subresultant polynomial remainder sequence
over the polynomial ring (Collins, "Subresultants and reduced polynomial
remainder sequences", 1967; Brown & Traub, "On Euclid's algorithm and the
theory of subresultants", 1971): O(N^2) ring operations where the Bareiss
determinant of the N-square Sylvester matrix takes O(N^3), on operands of the
same size.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from kholo.errors import (
    DegreeZeroBoth,
    ExpansionTooLarge,
    KholoError,
    NonRealCoefficients,
    SpaceMismatch,
    ZeroDegree,
    ZeroInput,
)
from kholo.polynomials import (
    MAX_RESULTANT_WORK,
    LinearSubst,
    SparsePoly,
    VarSpace,
    drop_variable,
    exact_divide,
    substitute_variable,
    univariate_coefficients,
)
from kholo.rationals import GQ_MINUS_I, GaussianRational


@dataclass
class AnnihilatorPair:
    """Nonzero real annihilators of f1 and f2, both in (x, y, t) variables.

    Each must have positive degree in t: a nonzero P(x, y) cannot vanish at
    (x, y, f_k(x, y)) on an open set, so an annihilator free of t is no
    annihilator.
    """

    p1: SparsePoly
    p2: SparsePoly
    n: int

    def __post_init__(self):
        space = VarSpace.xyt(self.n)
        for label, p in (("p1", self.p1), ("p2", self.p2)):
            if p.space != space:
                raise SpaceMismatch(f"{label} must live in {space}, got {p.space}")
            if p.is_zero():
                raise ZeroInput(f"{label} is the zero polynomial")
            if not p.has_real_coefficients():
                raise NonRealCoefficients(f"{label} must have real coefficients")
            if p.degree_in("t") <= 0:
                raise ZeroDegree(f"{label} does not use 't'; an annihilator needs "
                                 "positive degree in t")


@dataclass
class EliminationReport:
    """Pipeline outcome: basepoint, restrictions, eliminant.

    The basepoint is (0, y0): whether a restriction vanishes does not depend
    on the x-translation, so ``basepoint_x`` is all zeros.  ``annihilator`` is
    Res_w0(q1(z - i*y0, w0), q2(z - i*y0, t - w0)), in the original
    coordinates.  ``degenerate`` flags a vanishing resultant and is always
    False: q1 and q2 are nonzero, and a common root rho(z) of q1(z, w0) and
    q2(z, t - w0) would make q2(z, t - rho) vanish for every t.  The field
    stays so that the report schema does not change.
    """

    basepoint_x: tuple[Fraction, ...]
    basepoint_y: tuple[Fraction, ...]
    q1: SparsePoly
    q2: SparsePoly
    annihilator: SparsePoly
    degenerate: bool


# -- resultants ---------------------------------------------------------------

def sylvester_matrix(a, b, name):
    """Sylvester matrix of a and b as univariate polynomials in ``name``.

    Rows of a's coefficients come first and there are deg(b) of them; entries
    live in the space with ``name`` dropped.  Both degrees must be positive.
    """
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space} vs {b.space}")
    ca = univariate_coefficients(a, name)
    cb = univariate_coefficients(b, name)
    da, db = len(ca) - 1, len(cb) - 1
    size = da + db
    target = a.space.drop(name)
    zero = SparsePoly.zero(target)
    rows = []
    for shift in range(db):
        row = [zero] * size
        for k, c in enumerate(reversed(ca)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(da):
        row = [zero] * size
        for k, c in enumerate(reversed(cb)):
            row[shift + k] = c
        rows.append(row)
    return rows


# No pipeline calls this; it stays as the tests' reference and perfbench/tracing.py wraps it.
def bareiss_determinant(rows):
    """Fraction-free determinant of a square polynomial matrix.

    Intermediate entries stay in the ring: every division is by the previous
    pivot and is exact (Bareiss).  Zero pivot columns trigger a row swap; if
    none is available the determinant is zero.
    """
    size = len(rows)
    if size == 0:
        raise ZeroInput("empty matrix")
    space = rows[0][0].space
    m = [list(row) for row in rows]
    sign = 1
    prev = SparsePoly.constant(space, 1)
    for k in range(size - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, size):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SparsePoly.zero(space)
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                entry = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(entry, prev) if k else entry
            m[i][k] = SparsePoly.zero(space)
        prev = pivot
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def sylvester_resultant(a, b, name):
    """Resultant of a and b with respect to one variable, computed exactly.

    Res(a, b) is the determinant of ``sylvester_matrix(a, b, name)``, a's
    rows first, so Res(b, a) = (-1)^(deg a * deg b) * Res(a, b).  It is
    computed by the subresultant PRS (Cohen, "A Course in Computational
    Algebraic Number Theory", Alg. 3.3.7, without the content step), whose
    divisions are all exact by the subresultant theorem: see
    ``_subresultant_prs``.

    Degree-0 conventions: Res(a, b) = b**deg(a) when b is constant in the
    variable (and symmetrically); both constant is rejected.  A zero result
    signals a common factor of positive degree over the fraction field.

    The call keeps a work budget: |a|*|b| per product of two polynomials and
    |q|*|d| per exact division, refused with ExpansionTooLarge as soon as the
    running count passes ``MAX_RESULTANT_WORK``.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    da = a.degree_in(name)
    db = b.degree_in(name)
    if da <= 0 and db <= 0:
        raise DegreeZeroBoth(f"neither argument uses {name!r}")
    work = _Work()
    if db <= 0:
        return work.power(drop_variable(b, name), da)
    if da <= 0:
        return work.power(drop_variable(a, name), db)
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space} vs {b.space}")
    return _subresultant_prs(univariate_coefficients(a, name),
                             univariate_coefficients(b, name), work)


class _Work:
    """The products and exact divisions of one resultant, counted against its budget."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def _charge(self, amount):
        self.count += amount
        if self.count > MAX_RESULTANT_WORK:
            raise ExpansionTooLarge(
                f"the resultant needs more than {MAX_RESULTANT_WORK} term products "
                f"(|a|*|b| per product, |q|*|d| per division)")

    def mul(self, a, b):
        """a * b, charged |a|*|b| before it is formed."""
        self._charge(len(a) * len(b))
        return a * b

    def power(self, p, e):
        """p**e by binary powering, each product charged."""
        result = None
        while True:
            if e & 1:
                result = p if result is None else self.mul(result, p)
            e >>= 1
            if not e:
                return SparsePoly.constant(p.space, 1) if result is None else result
            p = self.mul(p, p)

    def divide(self, p, d):
        """The exact quotient p / d, charged |q|*|d|."""
        q = exact_divide(p, d)
        self._charge(len(q) * len(d))
        return q


def _pseudo_remainder(a, b, work):
    """lc(b)^(deg a - deg b + 1) * a mod b, on coefficient lists (lowest first).

    Needs deg a >= deg b >= 1.  Returns the remainder's coefficients with
    trailing zeros dropped, so [] for a zero remainder.
    """
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        # r := lead * r - c * x^k * b, whose x^(db + k) coefficient cancels
        c = r.pop()
        for j in range(db + k):
            entry = work.mul(lead, r[j]) if r[j] else r[j]
            if c and j >= k and b[j - k]:
                entry = entry - work.mul(c, b[j - k])
            r[j] = entry
    while r and not r[-1]:
        r.pop()
    return r


def _subresultant_prs(a, b, work):
    """Res(a, b) for coefficient lists of degrees >= 1, by the subresultant PRS.

    Each step replaces (a, b) by (b, prem(a, b) / (g * h^delta)), where
    delta = deg a - deg b, g = lc(a) and h tracks the leading coefficient of
    the last subresultant: h := g^delta / h^(delta - 1).  Every division is
    exact in the ring: the scaled remainders are, up to sign, the
    subresultants of a and b, and g, h and the last step's h^(deg a - 1) are
    (powers of) their leading coefficients, all minors of the Sylvester
    matrix (the subresultant theorem).  A division that leaves a remainder is
    an internal bug and surfaces as InexactDivision.  The sign follows
    Res(a, b) = (-1)^(deg a * deg b) * Res(b, a): one flip for the initial
    swap and one for each step where both degrees are odd.  A zero remainder
    means a common factor and gives the zero polynomial; otherwise the
    sequence ends at a constant b, and Res = h^(1 - deg a) * b^(deg a).
    """
    space = a[0].space
    one = SparsePoly.constant(space, 1)
    negate = False
    if len(a) < len(b):
        a, b = b, a
        negate = (len(a) - 1) * (len(b) - 1) % 2 == 1
    g = h = one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            negate = not negate
        r = _pseudo_remainder(a, b, work)
        if not r:
            return SparsePoly.zero(space)
        divisor = work.mul(g, work.power(h, delta))
        if divisor != one:
            r = [work.divide(c, divisor) if c else c for c in r]
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = work.divide(work.power(g, delta), work.power(h, delta - 1))
        if len(b) == 1:
            da = len(a) - 1
            res = work.divide(work.power(b[0], da), work.power(h, da - 1))
            return -res if negate else res


# -- basepoint search ---------------------------------------------------------

def _grid_points(dim, bound):
    # graded by max-norm, then lexicographic
    yield (0,) * dim
    for radius in range(1, bound + 1):
        for point in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, point)) == radius:
                yield point


def _restriction(p, y0, t_image):
    """P(z, y0, t_image) in the space of ``t_image``: x -> z, y -> y0, t -> t_image."""
    zt = t_image.space
    images = {"t": t_image}
    for j, c in enumerate(y0, 1):
        images[f"x{j}"] = SparsePoly.variable(zt, f"z{j}")
        images[f"y{j}"] = SparsePoly.constant(zt, c)
    return LinearSubst(p.space, zt, images).apply(p)


def search_basepoint(pair):
    """First integer y0 where both restrictions keep t, with the restrictions.

    Returns ``(y0, q1, q2)`` with q1 = P1(z, y0, t) and q2 = P2(z, y0, -i*t),
    both of positive degree in t.  A restriction free of t annihilates no f1:
    if P(x, y0, t) = c(x) != 0, then P(x, y0, f1(x, y0)) = c(x).  Walks y0
    graded by max-norm, then lexicographically over [-r, r]^n, so y0 = 0 wins
    when it is valid.  The walk always succeeds by radius
    D = max_j(deg_{y_j} P1 + deg_{y_j} P2): lc_t(P1)*lc_t(P2) is a nonzero
    polynomial in y over Q(x) with y_j-degree at most D, a nonzero polynomial
    does not vanish on a grid prod_j S_j with |S_j| > deg_{y_j} (Alon,
    "Combinatorial Nullstellensatz", 1999, Lemma 2.1), so some y0 of
    max-norm <= D keeps both leading t-coefficients, and the first y0 where
    both restrictions merely keep t comes no later.
    """
    n = pair.n
    zt = VarSpace.zt(n)
    t = SparsePoly.variable(zt, "t")
    minus_it = SparsePoly.variable(zt, "t", GQ_MINUS_I)
    radius = max(pair.p1.degree_in(f"y{j}") + pair.p2.degree_in(f"y{j}")
                 for j in range(1, n + 1))
    for y0 in _grid_points(n, radius):
        q1 = _restriction(pair.p1, y0, t)
        if q1.degree_in("t") <= 0:
            continue
        q2 = _restriction(pair.p2, y0, minus_it)
        if q2.degree_in("t") <= 0:
            continue
        return y0, q1, q2
    raise KholoError(f"no basepoint within max-norm {radius}, against Alon's lemma")


# -- the pipeline -------------------------------------------------------------

def eliminate_annihilator(pair):
    """Run the full restriction / resultant pipeline.

    The resultant never vanishes (see ``EliminationReport``), so
    ``degenerate`` is always False.
    """
    n = pair.n
    y0, q1, q2 = search_basepoint(pair)

    zt = VarSpace.zt(n)
    ztw = VarSpace.ztw(n)
    # z -> z - i*y0 states the eliminant in the original coordinates
    into_aux = {f"z{j}": (SparsePoly.variable(ztw, f"z{j}")
                          - SparsePoly.constant(ztw, GaussianRational(0, y0[j - 1])))
                for j in range(1, n + 1)}
    into_aux["t"] = SparsePoly.variable(ztw, "w0")
    a = LinearSubst(zt, ztw, into_aux).apply(q1)
    into_shift = dict(into_aux)
    into_shift["t"] = (SparsePoly.variable(ztw, "t")
                       - SparsePoly.variable(ztw, "w0"))
    b = LinearSubst(zt, ztw, into_shift).apply(q2)

    annihilator = sylvester_resultant(a, b, "w0")
    return EliminationReport(
        basepoint_x=(Fraction(0),) * n,
        basepoint_y=tuple(map(Fraction, y0)),
        q1=q1,
        q2=q2,
        annihilator=annihilator,
        degenerate=annihilator.is_zero(),
    )


def verify_annihilator(r, f):
    """Exact check that r(z, f(z)) is the zero polynomial."""
    return substitute_variable(r, "t", f).is_zero()
