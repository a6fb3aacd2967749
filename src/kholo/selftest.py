"""Seeded self-checks runnable from the command line.

A fast, deterministic subset of the full test suite: field axioms, the
reconstruction round trip, the elimination pipeline, discriminant goldens,
fiber constancy, a routed grid, and parser round trips.  Each check prints
one line; the runner returns a process exit code.  The random corpus
generators below are also the test suite's (``tests/support.py``).
"""

import random
from fractions import Fraction

from kholo.branches import covering_check, discriminant, locus_membership
from kholo.cartan import reconstruct_from_real_part, restrict_g_identity, verify_g_holomorphic
from kholo.eliminate import AnnihilatorPair, eliminate_annihilator, verify_annihilator
from kholo.errors import KholoError
from kholo.exprio import parse_poly, print_poly
from kholo.polynomials import SparsePoly, VarSpace, rename_space, split_real_imag
from kholo.rationals import GaussianRational
from kholo.simplicial import SimplicialComplex, Subcomplex, route_path, verify_avoidance


def random_fraction(rng, bound=10):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gq(rng, bound=10, real=False):
    re = random_fraction(rng, bound)
    im = Fraction(0) if real else random_fraction(rng, bound)
    return GaussianRational(re, im)


def random_poly(space, rng, max_degree=4, max_terms=6, bound=10, real=False,
                zero_constant=False, allow_zero=False):
    width = len(space.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(width)] += 1
        if zero_constant and sum(exps) == 0:
            exps[rng.randrange(width)] = 1
        coeff = random_gq(rng, bound, real=real)
        if coeff:
            terms[tuple(exps)] = coeff
    p = SparsePoly.from_terms(space, terms)
    if p.is_zero() and not allow_zero:
        return SparsePoly.variable(space, space.names[rng.randrange(width)])
    return p


def _check_field_axioms(rng, trials=200):
    for _ in range(trials):
        a = random_gq(rng)
        b = random_gq(rng)
        c = random_gq(rng)
        if (a + b) + c != a + (b + c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if a and a * (1 / a) != GaussianRational(1):
            return False
        if (a * b).conjugate() != a.conjugate() * b.conjugate():
            return False
    return True

def _check_round_trip(rng, trials=20):
    for _ in range(trials):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, zero_constant=True)
        report = reconstruct_from_real_part(split_real_imag(f)[0])
        if not report.reconstructed or report.candidate != f:
            return False
    return True


def _check_g(rng, trials=10):
    for _ in range(trials):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, max_degree=3)
        ok, _ = verify_g_holomorphic(f)
        if not ok or not restrict_g_identity(f).ok:
            return False
    return True


def _check_elimination(rng, trials=10):
    for _ in range(trials):
        n = rng.choice([1, 2])
        f = random_poly(VarSpace.z(n), rng, max_degree=3, max_terms=4)
        f1, f2 = split_real_imag(f)
        space = VarSpace.xyt(n)
        lift = {name: name for name in f1.space.names}
        t = SparsePoly.variable(space, "t")
        pair = AnnihilatorPair(
            p1=t - rename_space(f1, space, lift),
            p2=t - rename_space(f2, space, lift),
            n=n,
        )
        report = eliminate_annihilator(pair)
        if report.degenerate or not verify_annihilator(report.annihilator, f):
            return False
    return True


def _check_discriminants():
    zt = VarSpace.zt(1)
    cases = [
        ("t^2 - z1", "4*z1"),
        ("t^2 + 2*t - z1", "4*z1 + 4"),
        ("t^3 - z1", "-27*z1^2"),
    ]
    for text, expected in cases:
        got = discriminant(parse_poly(text, zt), "t")
        if got != parse_poly(expected, VarSpace.z(1)):
            return False
    return True


def _check_fibers(rng, samples=5):
    zt = VarSpace.zt(1)
    p = parse_poly("t^2 - z1", zt)
    disc = discriminant(p, "t")
    points = []
    while len(points) < samples:
        z0 = random_gq(rng, bound=9)
        if not locus_membership(disc, (z0,)):
            points.append((z0,))
    report = covering_check(p, points)
    return report.covering_degree == 2


def _check_router():
    square = SimplicialComplex(
        dim=2,
        vertices=[(0, 0), (1, 0), (1, 1), (0, 1)],
        top=[(0, 1, 2), (0, 2, 3)],
    )
    sub = Subcomplex(square, [(1,), (3,)], start=0, end=2)
    path = route_path(square, sub)
    ok, _ = verify_avoidance(path, square, sub)
    return ok


def _check_parser(rng, trials=50, fuzz=200):
    for _ in range(trials):
        n = rng.choice([1, 2])
        p = random_poly(VarSpace.xy(n), rng)
        if parse_poly(print_poly(p), p.space) != p:
            return False
    alphabet = "xyzwt0123456789+-*/^() i."
    for _ in range(fuzz):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 30)))
        try:
            parse_poly(text, VarSpace.xy(1))
        except KholoError:
            pass
    return True


def run(seed=0, stream=None):
    """Run every check; print one line each; return a process exit code."""
    import sys
    stream = stream or sys.stdout
    rng = random.Random(seed)
    checks = [
        ("field axioms", lambda: _check_field_axioms(rng)),
        ("cartan round trip", lambda: _check_round_trip(rng)),
        ("g restriction and holomorphy", lambda: _check_g(rng)),
        ("annihilator elimination", lambda: _check_elimination(rng)),
        ("discriminant goldens", _check_discriminants),
        ("fiber constancy", lambda: _check_fibers(rng)),
        ("barycentric router", _check_router),
        ("parser round trip and fuzz", lambda: _check_parser(rng)),
    ]
    failures = 0
    for name, check in checks:
        ok = check()
        stream.write(f"selftest {name}: {'ok' if ok else 'FAIL'}\n")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
