"""Integration-free reconstruction of a holomorphic polynomial from its real part.

Given a real-coefficient polynomial u(x, y), the candidate completion is

    f(z) := 2 * u(z/2, z/(2i)) - u(0),

which recovers f exactly whenever u is pluriharmonic (u = Re f for some
polynomial f normalized to have real constant term).  The module also builds
the doubled-variable polynomial

    g(z, w) := (f(z + i*w) + sigma(f)(z - i*w)) / 2,

where sigma conjugates coefficients, and verifies its two restriction
identities and its holomorphy symbolically.

All three steps run on one substitution kernel (``LinearSubst.apply``) and
one Wirtinger kernel (``wirtinger``), each reducing every output coefficient
once, and each step applies them as few times as its symmetry allows: g is
the real part of the coefficients of f(z + i*w), one substitution, and the
pluriharmonic check differentiates only j <= k, since for real u the (k, j)
derivative is the coefficient conjugate of the (j, k) one.
"""

from dataclasses import dataclass
from fractions import Fraction

from kholo.errors import NonZSpace
from kholo.polynomials import (
    LinearSubst,
    SparsePoly,
    VarSpace,
    conjugate_coefficients,
    real_imag_coefficient_parts,
    require_real_coefficients,
    split_real_imag,
    to_real_coordinates,
    wirtinger,
)
from kholo.rationals import GQ_I, GaussianRational

_HALF = Fraction(1, 2)
_MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))


@dataclass
class CartanReport:
    """Outcome of a reconstruction attempt.

    ``candidate`` is the completion f, ``residual`` is Re(f) - u (zero exactly
    when the reconstruction succeeded), and ``g`` is the doubled-variable
    polynomial built from the candidate.
    """

    real_part: SparsePoly
    candidate: SparsePoly
    residual: SparsePoly
    g: SparsePoly
    pluriharmonic: bool
    reconstructed: bool


@dataclass
class RestrictionCheck:
    """Both restriction identities of g, with their exact verdicts."""

    recover_lhs: SparsePoly
    recover_rhs: SparsePoly
    recover_ok: bool
    real_part_lhs: SparsePoly
    real_part_rhs: SparsePoly
    real_part_ok: bool

    @property
    def ok(self):
        return self.recover_ok and self.real_part_ok


def _require_z_space(f):
    if not f.space.is_z_only():
        raise NonZSpace(f"expected z-variables only, got {f.space}")
    return f.space.n


def build_g(f):
    """The doubled-variable polynomial g(z, w) attached to f.

    For polynomial f, conjugating the value at conjugated arguments equals
    evaluating the coefficient-conjugated polynomial at the original
    arguments, so g has the closed form (f(z+iw) + sigma(f)(z-iw)) / 2 and
    lives in 2n complex variables.

    Expanding (z - i*w)^a in place of (z + i*w)^a conjugates every binomial
    term, so sigma(f)(z - i*w) is f(z + i*w) with its coefficients
    conjugated, and the mean of the two is the real part of each
    coefficient of f(z + i*w): one substitution and a coefficient split.
    """
    n = _require_z_space(f)
    target = VarSpace.zw(n)
    plus = {}
    for j in range(1, n + 1):
        plus[f"z{j}"] = (SparsePoly.variable(target, f"z{j}")
                         + SparsePoly.variable(target, f"w{j}", GQ_I))
    return real_imag_coefficient_parts(LinearSubst(f.space, target, plus).apply(f))[0]


def restrict_g_identity(f):
    """Check both restriction identities of g symbolically.

    (a) 2*g(z/2, z/(2i)) = f + conj(f(0)); equality with f itself needs
        f(0) = 0.
    (b) g(x, y) = Re-part of f under the real/imaginary splitting.
    """
    n = _require_z_space(f)
    g = build_g(f)

    diag = {}
    for j in range(1, n + 1):
        zj = SparsePoly.variable(f.space, f"z{j}")
        diag[f"z{j}"] = zj.scale(_HALF)
        diag[f"w{j}"] = zj.scale(_MINUS_HALF_I)
    recover_lhs = LinearSubst(g.space, f.space, diag).apply(g).scale(2)
    recover_rhs = f + SparsePoly.constant(f.space, f.constant_term().conjugate())

    xy = VarSpace.xy(n)
    onto_reals = {}
    for j in range(1, n + 1):
        onto_reals[f"z{j}"] = SparsePoly.variable(xy, f"x{j}")
        onto_reals[f"w{j}"] = SparsePoly.variable(xy, f"y{j}")
    real_part_lhs = LinearSubst(g.space, xy, onto_reals).apply(g)
    real_part_rhs = split_real_imag(f)[0]

    return RestrictionCheck(
        recover_lhs=recover_lhs,
        recover_rhs=recover_rhs,
        recover_ok=recover_lhs == recover_rhs,
        real_part_lhs=real_part_lhs,
        real_part_rhs=real_part_rhs,
        real_part_ok=real_part_lhs == real_part_rhs,
    )


def holomorphic_witnesses(expanded):
    """Nonvanishing zbar-Wirtinger derivatives of a real-coordinate expansion.

    ``expanded`` lives in a paired x/y space; returns the list of
    (index, derivative) pairs with a nonzero d/dzbar_j, which is empty exactly
    when the expansion is the expansion of a genuine polynomial in z.
    """
    witnesses = []
    for j in range(1, expanded.space.xy_pair_count() + 1):
        dbar = wirtinger(expanded, j, barred=True)
        if not dbar.is_zero():
            witnesses.append((j, dbar))
    return witnesses


def verify_g_holomorphic(f):
    """Expand g into real coordinates and assert all zbar/wbar derivatives vanish.

    Returns (verdict, witnesses); witnesses list the failing index together
    with the offending nonzero derivative.
    """
    _require_z_space(f)
    g = build_g(f)
    expanded = to_real_coordinates(g)
    witnesses = holomorphic_witnesses(expanded)
    return (not witnesses), witnesses


def check_pluriharmonic(u):
    """True iff all mixed Wirtinger second derivatives of u vanish.

    Checks d2 u / dz_j dzbar_k for 1 <= j, k <= n; a nonzero derivative is
    returned as the witness (j, k, polynomial), in row-major (j, k) order.
    The matrix is Hermitian: conjugating coefficients swaps d/dz and
    d/dzbar, and u has real coefficients, so the (k, j) derivative is the
    (j, k) one with its coefficients conjugated.  Only j <= k is
    differentiated.
    """
    require_real_coefficients(u, "check_pluriharmonic")
    npairs = u.space.xy_pair_count()
    upper = {}
    for j in range(1, npairs + 1):
        dj = wirtinger(u, j, barred=False)
        for k in range(j, npairs + 1):
            upper[j, k] = wirtinger(dj, k, barred=True)
    witnesses = []
    for j in range(1, npairs + 1):
        for k in range(1, npairs + 1):
            djk = upper[j, k] if j <= k else conjugate_coefficients(upper[k, j])
            if djk:
                witnesses.append((j, k, djk))
    return (not witnesses), witnesses


def reconstruct_from_real_part(u):
    """Attempt to recover a holomorphic polynomial whose real part is u.

    The candidate is normalized to Im f(0) = 0: for u = Re f this returns
    f - i*Im f(0) exactly.  Failure is data, not an error: the report carries
    the residual Re(candidate) - u as the certificate.
    """
    require_real_coefficients(u, "reconstruct_from_real_part")
    n = u.space.xy_pair_count()
    zspace = VarSpace.z(n)
    diag = {}
    for j in range(1, n + 1):
        zj = SparsePoly.variable(zspace, f"z{j}")
        diag[f"x{j}"] = zj.scale(_HALF)
        diag[f"y{j}"] = zj.scale(_MINUS_HALF_I)
    candidate = LinearSubst(u.space, zspace, diag).apply(u).scale(2) \
        - SparsePoly.constant(zspace, u.constant_term())
    residual = split_real_imag(candidate)[0] - u
    pluriharmonic, _ = check_pluriharmonic(u)
    return CartanReport(
        real_part=u,
        candidate=candidate,
        residual=residual,
        g=build_g(candidate),
        pluriharmonic=pluriharmonic,
        reconstructed=residual.is_zero(),
    )
