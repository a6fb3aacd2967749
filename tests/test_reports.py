"""Report documents: lossless round trips and stable serialization."""

import json
from fractions import Fraction

import pytest
from support import random_poly, seeded

from kholo import reports
from kholo.branches import BranchReport, covering_check
from kholo.cartan import (
    CartanReport,
    RestrictionCheck,
    reconstruct_from_real_part,
    restrict_g_identity,
)
from kholo.eliminate import AnnihilatorPair, EliminationReport, eliminate_annihilator
from kholo.errors import InvalidComplex
from kholo.exprio import parse_poly
from kholo.polynomials import VarSpace
from kholo.rationals import GaussianRational
from kholo.simplicial import PLPath, Subcomplex, route_path
from support import grid_complex


def test_poly_round_trip_random():
    rng = seeded(81)
    for _ in range(40):
        space = VarSpace.zt(rng.choice([1, 2]))
        p = random_poly(space, rng, max_degree=4, allow_zero=True)
        assert reports.poly_from_doc(reports.poly_to_doc(p)) == p


def test_cartan_report_round_trip():
    report = reconstruct_from_real_part(parse_poly("x^2 - y^2", VarSpace.xy(1)))
    doc = reports.report_to_doc(report)
    back = reports.report_from_doc(CartanReport, json.loads(json.dumps(doc)))
    assert back.candidate == report.candidate
    assert back.residual == report.residual
    assert back.g == report.g
    assert back.reconstructed == report.reconstructed
    assert back.pluriharmonic == report.pluriharmonic


def test_restriction_check_round_trip():
    check = restrict_g_identity(parse_poly("z1^2 + 1", VarSpace.z(1)))
    doc = reports.report_to_doc(check)
    back = reports.report_from_doc(RestrictionCheck, json.loads(json.dumps(doc)))
    assert back.recover_lhs == check.recover_lhs
    assert back.ok == check.ok


def test_elimination_report_round_trip():
    space = VarSpace.xyt(1)
    report = eliminate_annihilator(AnnihilatorPair(
        p1=parse_poly("t - x^2 + y^2", space),
        p2=parse_poly("t - 2*x*y", space), n=1))
    doc = reports.report_to_doc(report)
    back = reports.report_from_doc(EliminationReport, json.loads(json.dumps(doc)))
    assert back.annihilator == report.annihilator
    assert back.q1 == report.q1 and back.q2 == report.q2
    assert back.basepoint_x == report.basepoint_x
    assert back.degenerate == report.degenerate


def test_branch_report_round_trip():
    report = covering_check(parse_poly("t^2 - z1", VarSpace.zt(1)),
                            [(GaussianRational(1),), (GaussianRational(0, 1),)])
    doc = reports.report_to_doc(report)
    back = reports.report_from_doc(BranchReport, json.loads(json.dumps(doc)))
    assert back.p == report.p
    assert back.discriminant == report.discriminant
    assert back.covering_degree == report.covering_degree
    assert [s.point for s in back.samples] == [s.point for s in report.samples]


def test_path_and_complex_round_trip():
    c = grid_complex(1, 2)
    sub = Subcomplex(c, [(1,)], start=0, end=5)
    path = route_path(c, sub)
    doc = reports.report_to_doc(path)
    back = reports.report_from_doc(PLPath, json.loads(json.dumps(doc)))
    assert back.waypoints == path.waypoints
    assert back.tags == path.tags

    cdoc = reports.complex_to_doc(c, sub)
    c2, sub2 = reports.complex_from_doc(json.loads(json.dumps(cdoc)))
    assert c2.vertices == c.vertices
    assert c2.top == c.top
    assert sub2.marked == sub.marked
    assert (sub2.start, sub2.end) == (sub.start, sub.end)


def test_coordinate_grammar():
    for value, expected in [(3, 3), (-7, -7), ("3", 3), ("-1/2", Fraction(-1, 2)),
                            ("+0.125", Fraction(1, 8)), (" 2/4 ", Fraction(1, 2)),
                            ("." + "3" * 40, Fraction(int("3" * 40), 10**40))]:
        assert reports._coordinate(value) == expected
    for value in ["1e5", "2E-3", " -1.5e+3", "1e10000000"]:
        with pytest.raises(InvalidComplex, match="uses exponent notation"):
            reports._coordinate(value)
    for value in [0.1, 1.0, float("inf")]:
        with pytest.raises(InvalidComplex, match="is a JSON number"):
            reports._coordinate(value)
    for value in ["1/0", "a", "", "1/2/3", "one", "1/2e3", None, True, [1], "9" * 5000]:
        with pytest.raises(InvalidComplex, match="is not a rational number"):
            reports._coordinate(value)


def test_document_envelope_and_determinism():
    p = parse_poly("z1^2", VarSpace.z(1))
    doc = reports.document("demo", {"p": reports.poly_to_doc(p)},
                           {"ok": True}, 0)
    assert doc["schema_version"] == 1
    text_a = reports.dumps(doc)
    text_b = reports.dumps(json.loads(text_a))
    assert text_a == text_b
    assert list(json.loads(text_a)) == [
        "schema_version", "tool", "command", "inputs", "exit_code", "result"]
