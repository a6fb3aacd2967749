"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-3 and 5-9 run the checks of ``kholo selftest`` (``kholo.selftest``)
at the seeds and sizes pinned in ``SHARED``, far larger than the command's
defaults; a guard test keeps that table paired with the command's list of
checks.  What stays written out here needs a test-side oracle: criterion 4
compares the PRS and Bareiss resultants with cofactor expansion, and
criterion 3 adds the sqrt(1 + z) - 1 golden, whose float residue is pinned
at 1e-9.  Every other check is exact equality.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math
import time
from contextlib import contextmanager

from support import evaluate_complex, laplace_det, random_poly, seeded

from kholo import selftest
from kholo.eliminate import (
    AnnihilatorPair,
    bareiss_determinant,
    eliminate_annihilator,
    sylvester_matrix,
    sylvester_resultant,
)
from kholo.exprio import parse_poly
from kholo.polynomials import SparsePoly, VarSpace, rename_space, try_divide
from kholo.selftest import Corpus

CARTAN = Corpus(200, dims=(1, 2, 3), max_degree=6, max_terms=10, bound=100, zero_constant=True)
FIBER_FAMILY = ((1, "t^2 - z1"), (1, "t^3 - z1"), (1, "t^2 + 2*t - z1"), (2, "t^2 - z1*z2"))
PARSER = Corpus(500, dims=(1, 2, 3),
                kinds=(VarSpace.xy, VarSpace.z, VarSpace.zt, VarSpace.xyt, VarSpace.zw),
                max_degree=6, max_terms=10, bound=100, allow_zero=True)

# criterion: (shared check, seed, sizes); criterion 5 draws nothing
SHARED = {
    1: (selftest.check_round_trip, 1001, {"corpus": CARTAN}),
    2: (selftest.check_g, 1001, {"corpus": CARTAN}),
    3: (selftest.check_elimination, 1003, {"corpus": Corpus(100, max_degree=4, max_terms=6)}),
    5: (selftest.check_discriminants, None, {}),
    6: (selftest.check_fibers, 1006, {"family": FIBER_FAMILY, "samples": 20, "bound": 10}),
    7: (selftest.check_router, 1007, {"grids": 100, "max_side": 4}),
    8: (selftest.check_parser, 1008, {"corpus": PARSER, "fuzz": 10_000, "fuzz_length": 50}),
    9: (selftest.check_waypoints, 1009, {"complexes": 30, "max_side": 3}),
}


def shared(number):
    """The failure description of a shared criterion's check, or None."""
    check, seed, sizes = SHARED[number]
    return check(seeded(seed), **sizes)


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"acceptance {number} ({name}): PASS [{elapsed:.2f}s]")


def test_shared_checks_pair_with_selftest():
    in_acceptance = [check for check, _, _ in SHARED.values()]
    in_selftest = [check for _, check in selftest.CHECKS]
    assert sorted(SHARED) == [1, 2, 3, 5, 6, 7, 8, 9]
    assert len(set(in_acceptance)) == len(in_acceptance)
    assert set(in_acceptance) <= set(in_selftest)
    assert [c for c in in_selftest if c not in in_acceptance] == [selftest.check_field_axioms]


def test_criterion_1_cartan_round_trip():
    with criterion(1, "cartan round trip"):
        assert shared(1) is None


def test_criterion_2_doubled_polynomial_suite():
    with criterion(2, "g holomorphy and restriction identities"):
        assert shared(2) is None


def test_criterion_3_annihilator_end_to_end():
    with criterion(3, "annihilator elimination end to end"):
        assert shared(3) is None

        # golden: f = sqrt(1+z) - 1 via its quartic component annihilators
        space = VarSpace.xyt(1)
        pair = AnnihilatorPair(
            p1=parse_poly("4*(t+1)^4 - 4*(1+x)*(t+1)^2 - y^2", space),
            p2=parse_poly("4*t^4 + 4*(1+x)*t^2 - y^2", space),
            n=1)
        report = eliminate_annihilator(pair)
        assert not report.degenerate
        minimal = parse_poly("t^2 + 2*t - z1", VarSpace.zt(1))
        assert try_divide(report.annihilator, minimal) is not None
        for z0 in (0.0, 0.5, -0.25, 0.75):
            fv = math.sqrt(1 + z0) - 1
            residue = evaluate_complex(report.annihilator,
                                       {"z1": complex(z0), "t": complex(fv)})
            assert abs(residue) < 1e-9


def test_criterion_4_resultant_oracle():
    with criterion(4, "PRS resultant and Bareiss equal Laplace oracle"):
        rng = seeded(1004)
        space = VarSpace.ztw(1)
        w0 = SparsePoly.variable(space, "w0")
        checked = 0
        for _ in range(100):
            da = rng.randint(1, 4)
            db = rng.randint(1, 8 - da)

            def univariate(degree):
                p = SparsePoly.zero(space)
                for k in range(degree + 1):
                    c = random_poly(space.drop("w0"), rng, max_degree=1,
                                    max_terms=2, bound=6, allow_zero=(k < degree))
                    lifted = rename_space(c, space, {n: n for n in c.space.names})
                    p = p + (w0 ** k) * lifted
                return p

            a = univariate(da)
            b = univariate(db)
            matrix = sylvester_matrix(a, b, "w0")
            assert len(matrix) <= 8
            expected = laplace_det(matrix)
            assert bareiss_determinant(matrix) == expected
            assert sylvester_resultant(a, b, "w0") == expected
            checked += 1
        assert checked == 100


def test_criterion_5_discriminant_goldens():
    with criterion(5, "discriminant goldens"):
        assert shared(5) is None


def test_criterion_6_covering_constancy():
    with criterion(6, "covering constancy off the locus"):
        assert shared(6) is None


def test_criterion_7_router_on_random_grids():
    with criterion(7, "barycentric router on random grids"):
        assert shared(7) is None


def test_criterion_8_parser_round_trip_and_fuzz():
    with criterion(8, "parser round trip and fuzz"):
        assert shared(8) is None


def test_criterion_9_waypoints_and_barycenters():
    with criterion(9, "lattice waypoints and barycenters in 2-D and 3-D"):
        assert shared(9) is None
