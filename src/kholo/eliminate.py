"""From annihilators of the real and imaginary parts to an annihilator of f.

Given nonzero real polynomials P1(x, y, t), P2(x, y, t) annihilating the two
components of f = f1 + i*f2, the pipeline restricts them to y = y0 after a
translation chosen so both restrictions survive, complexifies x to z, and
eliminates the auxiliary variable:

    Q1(z, t) := P1(z + x0, y0, t)
    Q2(z, t) := P2(z + x0, y0, -i*t)
    R(z, t)  := Res_w0( Q1(z, w0), Q2(z, t - w0) )

A nonzero R annihilates the translated f; the report's annihilator is R
expressed back in the original coordinates.  The resultant is the determinant
of the Sylvester matrix, computed by fraction-free Bareiss elimination over
the polynomial ring.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from kholo.errors import (
    BasepointNotFound,
    DegreeZeroBoth,
    NonRealCoefficients,
    SpaceMismatch,
    ZeroDegree,
    ZeroInput,
)
from kholo.polynomials import (
    LinearSubst,
    SparsePoly,
    VarSpace,
    drop_variable,
    exact_divide,
    rename_space,
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
    """Pipeline outcome: translation point, restrictions, eliminant.

    ``annihilator`` is stated in the original coordinates; with a zero
    basepoint it is literally Res_w0(q1(z, w0), q2(z, t - w0)).  ``degenerate``
    flags a vanishing resultant (the restrictions shared a factor), in which
    case no annihilator was obtained.
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

    Degree-0 conventions: Res(a, b) = b**deg(a) when b is constant in the
    variable (and symmetrically); both constant is rejected.  A zero result
    signals a common factor of positive degree over the fraction field.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    da = a.degree_in(name)
    db = b.degree_in(name)
    if da <= 0 and db <= 0:
        raise DegreeZeroBoth(f"neither argument uses {name!r}")
    if db <= 0:
        return drop_variable(b, name) ** da
    if da <= 0:
        return drop_variable(a, name) ** db
    return bareiss_determinant(sylvester_matrix(a, b, name))


# -- basepoint search ---------------------------------------------------------

def _grid_points(dim, bound):
    # graded by max-norm, then lexicographic
    yield (0,) * dim
    for radius in range(1, bound + 1):
        for point in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, point)) == radius:
                yield point


def _restrict(p, n, x0, y0):
    """P(x + x0, y0, t) as a polynomial in (x, t)."""
    target = VarSpace.xt(n)
    images = {"t": SparsePoly.variable(target, "t")}
    for j in range(1, n + 1):
        images[f"x{j}"] = (SparsePoly.variable(target, f"x{j}")
                           + SparsePoly.constant(target, x0[j - 1]))
        images[f"y{j}"] = SparsePoly.constant(target, y0[j - 1])
    return LinearSubst(p.space, target, images).apply(p)


def search_basepoint(pair, bound=5):
    """First integer grid point making both translated restrictions nonzero.

    Enumerates [-bound, bound]^(2n) graded by max-norm then lexicographically
    and returns the first (x0, y0) such that P1(x + x0, y0, t) and
    P2(x + x0, y0, t) are both nonzero; (0, 0) wins when already valid.
    """
    n = pair.n
    for point in _grid_points(2 * n, bound):
        x0, y0 = point[:n], point[n:]
        if _restrict(pair.p1, n, x0, y0).is_zero():
            continue
        if _restrict(pair.p2, n, x0, y0).is_zero():
            continue
        return x0, y0
    raise BasepointNotFound(f"no valid translation within max-norm {bound}")


# -- the pipeline -------------------------------------------------------------

def eliminate_annihilator(pair, bound=5):
    """Run the full restriction / translation / resultant pipeline.

    A vanishing resultant is reported through the ``degenerate`` flag rather
    than an exception: the no-common-factor hypothesis can fail for user
    inputs.
    """
    n = pair.n
    x0, y0 = search_basepoint(pair, bound)

    zt = VarSpace.zt(n)
    x_to_z = {f"x{j}": f"z{j}" for j in range(1, n + 1)}
    x_to_z["t"] = "t"
    q1 = rename_space(_restrict(pair.p1, n, x0, y0), zt, x_to_z)
    q2_raw = rename_space(_restrict(pair.p2, n, x0, y0), zt, x_to_z)
    q2 = substitute_variable(q2_raw, "t",
                             SparsePoly.variable(zt, "t", GQ_MINUS_I))

    ztw = VarSpace.ztw(n)
    into_aux = {f"z{j}": SparsePoly.variable(ztw, f"z{j}") for j in range(1, n + 1)}
    into_aux["t"] = SparsePoly.variable(ztw, "w0")
    a = LinearSubst(zt, ztw, into_aux).apply(q1)
    into_shift = dict(into_aux)
    into_shift["t"] = (SparsePoly.variable(ztw, "t")
                       - SparsePoly.variable(ztw, "w0"))
    b = LinearSubst(zt, ztw, into_shift).apply(q2)

    resultant = sylvester_resultant(a, b, "w0")
    degenerate = resultant.is_zero()

    annihilator = resultant
    if not degenerate and (any(x0) or any(y0)):
        # express the eliminant in the original coordinates: z -> z - (x0 + i*y0)
        back = {"t": SparsePoly.variable(zt, "t")}
        for j in range(1, n + 1):
            shift = GaussianRational(x0[j - 1], y0[j - 1])
            back[f"z{j}"] = (SparsePoly.variable(zt, f"z{j}")
                             - SparsePoly.constant(zt, shift))
        annihilator = LinearSubst(zt, zt, back).apply(resultant)

    return EliminationReport(
        basepoint_x=tuple(map(Fraction, x0)),
        basepoint_y=tuple(map(Fraction, y0)),
        q1=q1,
        q2=q2,
        annihilator=annihilator,
        degenerate=degenerate,
    )


def verify_annihilator(r, f):
    """Exact check that r(z, f(z)) is the zero polynomial."""
    return substitute_variable(r, "t", f).is_zero()
