"""Discriminant loci and exact fiber counting.

For an annihilator P(z, t) the discriminant D(z) cuts out the locus over
which the t-fibers degenerate.  Off the locus, where the leading
t-coefficient also survives, P(z0, t) is squarefree of degree d = deg_t P,
so every fiber has exactly d points and the projection is a d-sheeted
covering.  The covering check therefore proves its counts instead of
computing them; ``distinct_root_count_exact`` counts any fiber, on the locus
too, by the Euclidean algorithm over Q(i).
"""

import cmath
from dataclasses import dataclass

from kholo.errors import (
    IncompleteAssignment,
    LeadingCoefficientVanishes,
    NoSamplePoints,
    NonConvergence,
    PointOnLocus,
    ZeroDegree,
)
from kholo.eliminate import sylvester_resultant
from kholo.exprio import format_gaussian
from kholo.polynomials import SparsePoly, exact_divide, univariate_coefficients
from kholo.rationals import GQ_ZERO, GaussianRational, as_gaussian

DEFAULT_MAX_ITER = 200


@dataclass
class FiberSample:
    point: tuple[GaussianRational, ...]
    on_locus: bool
    fiber_count: int


@dataclass
class BranchReport:
    """Fiber counts along a sample path, plus the discriminant that guards it.

    Every sample lies off the locus, so every count and ``covering_degree``
    equal deg_t P."""

    p: SparsePoly
    discriminant: SparsePoly
    samples: list[FiberSample]
    covering_degree: int


def discriminant(p, name):
    """disc(p) = (-1)^(d(d-1)/2) * Res(p, dp/dt) / lc(p), exactly.

    The leading coefficient always divides the resultant in the polynomial
    ring; a failed division signals an internal convention bug and surfaces
    as InexactDivision.
    """
    d = p.degree_in(name)
    if d < 1:
        raise ZeroDegree(f"discriminant needs positive degree in {name!r}")
    res = sylvester_resultant(p, p.partial(name), name)
    lead = univariate_coefficients(p, name)[d]
    quot = exact_divide(res, lead)
    if (d * (d - 1) // 2) % 2:
        quot = -quot
    return quot


def _as_point(space, z0):
    """Accept a mapping or a coordinate sequence for the space's variables."""
    if isinstance(z0, dict):
        return {name: as_gaussian(v) for name, v in z0.items()}
    values = tuple(z0) if isinstance(z0, (tuple, list)) else (z0,)
    if len(values) != len(space.names):
        raise IncompleteAssignment(
            f"point of arity {len(values)} for space {space}")
    return {name: as_gaussian(v) for name, v in zip(space.names, values)}


def _spell_point(space, point):
    """A point as the CLI reads it: comma-separated coordinates."""
    return ",".join(format_gaussian(point[name]) for name in space.names)


def locus_membership(d, z0):
    """Exact membership test: D(z0) = 0."""
    return not d.eval(_as_point(d.space, z0))


# -- numeric root finding -----------------------------------------------------

# No pipeline calls this; it stays until perfbench/tracing.py stops wrapping it by name.
def aberth_roots(coeffs, max_iter=DEFAULT_MAX_ITER):
    """All complex roots of sum(coeffs[k] * t^k) by Aberth-Ehrlich iteration.

    Deterministic: starts on a Cauchy-bound circle with fixed angular offset
    and a mild per-index radius perturbation.  Raises NonConvergence when the
    correction steps have not settled within the iteration cap.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 1:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    if d == 1:
        return [-monic[0]]
    deriv = [k * monic[k] for k in range(1, d + 1)]
    radius = 1.0 + max(abs(c) for c in monic[:-1])

    roots = [radius * (1.0 + 0.05 * k / d)
             * cmath.exp(2j * cmath.pi * (k + 0.37) / d)
             for k in range(d)]

    def horner(cs, x):
        acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    scale = max(1.0, radius)
    for _ in range(max_iter):
        shift = 0.0
        for k in range(d):
            zk = roots[k]
            pv = horner(monic, zk)
            if pv == 0:
                continue
            pd = horner(deriv, zk)
            if pd == 0:
                roots[k] = zk * (1 + 1e-6) + 1e-9
                shift = float("inf")
                continue
            ratio = pv / pd
            acc = 0j
            for j in range(d):
                if j != k:
                    diff = zk - roots[j]
                    if diff == 0:
                        diff = 1e-12
                    acc += 1.0 / diff
            denom = 1.0 - ratio * acc
            if denom == 0:
                delta = ratio
            else:
                delta = ratio / denom
            roots[k] = zk - delta
            shift = max(shift, abs(delta) / scale)
        if shift < 1e-13:
            return roots
    raise NonConvergence(f"root iteration did not settle in {max_iter} steps")


def _specialize(p, z0, name):
    """Exact coefficients of P(z0, t) as a univariate list in t.

    Raises LeadingCoefficientVanishes when the leading t-coefficient dies at z0.
    """
    coeffs = univariate_coefficients(p, name)
    base = p.space.drop(name)
    point = _as_point(base, z0)
    exact = [c.eval(point) if not c.is_zero() else GQ_ZERO for c in coeffs]
    if not exact or not exact[-1]:
        raise _lead_dies(name, base, point)
    return exact


def _lead_dies(name, base, point):
    """The error for a point where the leading coefficient in ``name`` vanishes."""
    return LeadingCoefficientVanishes(
        f"leading {name}-coefficient dies at {_spell_point(base, point)}")


def distinct_root_count_exact(p, z0, name="t"):
    """Exact distinct-root count of P(z0, t): deg - deg(gcd(P, dP/dt)).

    Uses the Euclidean algorithm over Q(i) on the exact specialization.
    Raises LeadingCoefficientVanishes when the leading t-coefficient dies at z0.
    """
    exact = _specialize(p, z0, name)
    d = len(exact) - 1
    deriv = [exact[k] * k for k in range(1, d + 1)]
    g = _univariate_gcd(exact, deriv)
    return d - (len(g) - 1)


fiber_count = distinct_root_count_exact


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _univariate_gcd(a, b):
    """Monic gcd of two univariate coefficient lists over Q(i)."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _poly_mod(a, b):
    """Remainder of univariate division over the field Q(i)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and a:
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for k in range(db + 1):
            a[shift + k] = a[shift + k] - factor * b[k]
        a.pop()
        _trim(a)
    return a


# -- covering checks ----------------------------------------------------------

def covering_check(p, path, name="t"):
    """Fiber counts along user-supplied sample points off the discriminant locus.

    Each point is checked exactly: off the locus (PointOnLocus names the
    offender), then with a surviving leading coefficient
    (LeadingCoefficientVanishes).  Both together make P(z0, t) squarefree of
    degree d = deg_t P, so every count is d.  An empty path is an input
    error (NoSamplePoints), since it gives no verdict.
    """
    disc = discriminant(p, name)
    base = p.space.drop(name)
    coeffs = univariate_coefficients(p, name)  # split once: a sample evaluates the lead only
    lead, degree = coeffs[-1], len(coeffs) - 1
    samples = []
    for z0 in path:
        point = _as_point(base, z0)
        if locus_membership(disc, point):
            raise PointOnLocus(
                f"sample {_spell_point(base, point)} lies on the discriminant locus")
        if not lead.eval(point):
            raise _lead_dies(name, base, point)
        key = tuple(point[nm] for nm in base.names)
        samples.append(FiberSample(point=key, on_locus=False, fiber_count=degree))
    if not samples:
        raise NoSamplePoints("the covering check needs at least one sample point")
    return BranchReport(p=p, discriminant=disc, samples=samples,
                        covering_degree=degree)
