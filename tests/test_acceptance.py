"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Corpora are seeded and exact; the one float check, criterion 3's residue of
the annihilator at sqrt(1 + z) - 1, pins its tolerance at 1e-9, and every
other check is exact equality.
"""

import math
import time
from contextlib import contextmanager

from support import (
    evaluate_complex,
    grid_complex,
    laplace_det,
    random_gq,
    random_poly,
    seeded,
    shared_facet_pairs,
)

from kholo.branches import (
    covering_check,
    discriminant,
    distinct_root_count_exact,
    locus_membership,
)
from kholo.cartan import (
    reconstruct_from_real_part,
    restrict_g_identity,
    verify_g_holomorphic,
)
from kholo.eliminate import (
    AnnihilatorPair,
    bareiss_determinant,
    eliminate_annihilator,
    sylvester_matrix,
    verify_annihilator,
)
from kholo.errors import Disconnected, KholoError
from kholo.exprio import parse_poly, print_poly
from kholo.polynomials import (
    SparsePoly,
    VarSpace,
    rename_space,
    split_real_imag,
    try_divide,
)
from kholo.simplicial import (
    SimplicialComplex,
    Subcomplex,
    facet_adjacency,
    route_path,
    verify_avoidance,
)


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


def _cartan_corpus():
    """200 polynomials, n in {1,2,3}, total degree <= 6, coefficient parts <= 100,
    zero constant term."""
    rng = seeded(1001)
    corpus = []
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        f = random_poly(VarSpace.z(n), rng, max_degree=6, max_terms=10,
                        bound=100, zero_constant=True)
        corpus.append(f)
    return corpus


def test_criterion_1_cartan_round_trip():
    with criterion(1, "cartan round trip"):
        for f in _cartan_corpus():
            report = reconstruct_from_real_part(split_real_imag(f)[0])
            assert report.reconstructed
            assert report.candidate == f


def test_criterion_2_doubled_polynomial_suite():
    with criterion(2, "g holomorphy and restriction identities"):
        for f in _cartan_corpus():
            ok, witnesses = verify_g_holomorphic(f)
            assert ok and not witnesses
            check = restrict_g_identity(f)
            assert check.recover_ok
            assert check.real_part_ok


def test_criterion_3_annihilator_end_to_end():
    with criterion(3, "annihilator elimination end to end"):
        rng = seeded(1003)
        for _ in range(100):
            n = rng.choice([1, 2])
            f = random_poly(VarSpace.z(n), rng, max_degree=4, max_terms=6)
            f1, f2 = split_real_imag(f)
            space = VarSpace.xyt(n)
            lift = {name: name for name in f1.space.names}
            t = SparsePoly.variable(space, "t")
            pair = AnnihilatorPair(p1=t - rename_space(f1, space, lift),
                                   p2=t - rename_space(f2, space, lift), n=n)
            report = eliminate_annihilator(pair)
            assert not report.degenerate
            assert verify_annihilator(report.annihilator, f)

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
    with criterion(4, "Bareiss equals Laplace oracle"):
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
            assert bareiss_determinant(matrix) == laplace_det(matrix)
            checked += 1
        assert checked == 100


def test_criterion_5_discriminant_goldens():
    with criterion(5, "discriminant goldens"):
        zt = VarSpace.zt(1)
        z = VarSpace.z(1)
        assert discriminant(parse_poly("t^2 - z1", zt), "t") \
            == parse_poly("4*z1", z)
        assert discriminant(parse_poly("t^2 + 2*t - z1", zt), "t") \
            == parse_poly("4 + 4*z1", z)
        assert discriminant(parse_poly("t^3 - z1", zt), "t") \
            == parse_poly("-27*z1^2", z)


def test_criterion_6_covering_constancy():
    with criterion(6, "covering constancy off the locus"):
        rng = seeded(1006)
        family = ["t^2 - z1", "t^3 - z1", "t^2 + 2*t - z1"]
        polys = [parse_poly(text, VarSpace.zt(1)) for text in family]
        polys.append(parse_poly("t^2 - z1*z2", VarSpace.zt(2)))
        for p in polys:
            base = p.space.drop("t")
            locus = discriminant(p, "t")
            points = []
            while len(points) < 20:
                z0 = tuple(random_gq(rng, 10) for _ in base.names)
                if not locus_membership(locus, dict(zip(base.names, z0))):
                    points.append(z0)
            report = covering_check(p, points)
            assert report.covering_degree == p.degree_in("t")
            for sample in report.samples:
                assert sample.fiber_count == p.degree_in("t")
                # exact square-freeness cross-check at every sample
                assert distinct_root_count_exact(p, sample.point) \
                    == p.degree_in("t")


def test_criterion_7_router_on_random_grids():
    with criterion(7, "barycentric router on random grids"):
        rng = seeded(1007)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            diagonals = [rng.randint(0, 1) for _ in range(rows * cols)]
            complex_ = grid_complex(rows, cols, diagonals)
            assert len(complex_.top) <= 32
            nverts = len(complex_.vertices)
            start = rng.randrange(nverts)
            end = rng.randrange(nverts)
            marked = [(v,) for v in range(nverts) if rng.random() < 0.35]
            sub = Subcomplex(complex_, marked, start=start, end=end)
            # a grid's facet graph is connected, so routing must succeed
            assert any(shared_facet_pairs(complex_)) or len(complex_.top) == 1
            path = route_path(complex_, sub)
            ok, witness = verify_avoidance(path, complex_, sub)
            assert ok, witness

        # and the disconnected case must report exactly that
        split = SimplicialComplex(
            dim=2,
            vertices=[(0, 0), (1, 0), (0, 1), (9, 9), (10, 9), (9, 10)],
            top=[(0, 1, 2), (3, 4, 5)])
        sub = Subcomplex(split, [], start=0, end=3)
        try:
            route_path(split, sub)
            raised = False
        except Disconnected:
            raised = True
        assert raised


def test_criterion_8_parser_round_trip_and_fuzz():
    with criterion(8, "parser round trip and fuzz"):
        rng = seeded(1008)
        for _ in range(500):
            n = rng.choice([1, 2, 3])
            kind = rng.choice([VarSpace.xy, VarSpace.z, VarSpace.zt,
                               VarSpace.xyt, VarSpace.zw])
            space = kind(n)
            p = random_poly(space, rng, max_degree=6, max_terms=10,
                            bound=100, allow_zero=True)
            assert parse_poly(print_poly(p), space) == p

        alphabet = ("xyzwti0123456789+-*/^()., ;@#$%&[]{}\\\"'`~=<>?!"
                    "éβ\n\t")
        space = VarSpace.xy(2)
        for _ in range(10000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 50)))
            try:
                parse_poly(text, space)
            except KholoError:
                pass  # structured errors only; anything else is a crash
