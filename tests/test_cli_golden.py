"""Golden CLI corpus: exit code, stdout and stderr of ``kholo.cli.main``, byte for byte.

Each case is one in-process call.  The recorded outputs live in
``data/cli_golden.json``; after a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the data file.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from kholo.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"


def _doc(dim, vertices, top, marked, endpoints):
    return json.dumps({
        "ambient_dim": dim,
        "vertices": [[str(c) for c in v] for v in vertices],
        "top": top,
        "marked": marked,
        "endpoints": endpoints,
    })


_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
_STRIP = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
_STRIP_TOP = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]

# (id, argv, stdin)
CASES = [
    # reconstruct
    ("reconstruct-doc", ["reconstruct", "-n", "1", "x^2 - y^2"], None),
    ("reconstruct-plain", ["reconstruct", "-n", "1", "--format", "plain", "x^2 - y^2"], None),
    ("reconstruct-negative", ["reconstruct", "-n", "1", "x^2"], None),
    ("reconstruct-n2-plain", ["reconstruct", "-n", "2", "--format", "plain", "x1*x2 - y1*y2"], None),
    ("reconstruct-stdin", ["reconstruct", "-n", "1", "-"], "x*y\n"),
    ("reconstruct-syntax", ["reconstruct", "-n", "1", "x +* y"], None),
    ("reconstruct-negative-exponent", ["reconstruct", "-n", "1", "x^-1"], None),
    ("reconstruct-unbalanced", ["reconstruct", "-n", "1", "x1^2 + (1"], None),
    ("reconstruct-unknown-variable", ["reconstruct", "-n", "1", "x3 + 1"], None),
    ("reconstruct-division-by-zero", ["reconstruct", "-n", "1", "1/0"], None),
    ("reconstruct-degree-overflow", ["reconstruct", "-n", "1", "x^100000000"], None),
    ("reconstruct-superscript-digit", ["reconstruct", "-n", "1", "2²"], None),
    ("reconstruct-superscript-exponent", ["reconstruct", "-n", "1", "x^²"], None),
    ("reconstruct-superscript-after-name", ["reconstruct", "-n", "1", "x²"], None),
    ("reconstruct-n2-negative-denominators",
     ["reconstruct", "-n", "2", "1/3*x1^2 - 2/5*x1*y2 + 3/7*y1 + 1/2"], None),
    # parser paths: nested signs, powers and products of sums, a zero factor
    ("reconstruct-double-negation", ["reconstruct", "-n", "1", "-(-(x - y))*x"], None),
    ("reconstruct-cube-of-a-sum", ["reconstruct", "-n", "1", "(x + y + 1)^3"], None),
    ("reconstruct-product-of-sums",
     ["reconstruct", "-n", "1", "(x + y)*(x - y) + (x + 1)*(y - 1)*(x - y)"], None),
    ("reconstruct-zero-factor", ["reconstruct", "-n", "1", "0*x*(x+y)^2"], None),
    ("reconstruct-trailing-paren", ["reconstruct", "-n", "1", "x )"], None),
    ("reconstruct-missing-paren", ["reconstruct", "-n", "1", "(x + y*(x - 1)"], None),
    ("reconstruct-nested-too-deeply",
     ["reconstruct", "-n", "1", "(" * 300 + "x" + ")" * 300], None),
    # error positions: tabs, non-ASCII spaces and CR count one column each;
    # a line feed starts the next line
    ("reconstruct-position-tabs-line-3",
     ["reconstruct", "-n", "1", "x +\n\ty\n\t\t+ @"], None),
    ("reconstruct-position-unicode-spaces",
     ["reconstruct", "-n", "1", "x +\u00a0y\u3000\u00a0* * y"], None),
    ("reconstruct-position-crlf", ["reconstruct", "-n", "1", "-"], "x +\r\n  y +\r\n  ) + 1\r\n"),
    ("reconstruct-position-superscript-line-2",
     ["reconstruct", "-n", "1", "y +\n 2*x1²"], None),
    ("reconstruct-position-nested-in-product",
     ["reconstruct", "-n", "1", "x*y*" + "(" * 300 + "x" + ")" * 300], None),
    # pluriharmonic
    ("pluriharmonic-doc", ["pluriharmonic", "-n", "1", "x^2 - y^2"], None),
    ("pluriharmonic-negative", ["pluriharmonic", "-n", "1", "x^2"], None),
    ("pluriharmonic-n2-plain", ["pluriharmonic", "-n", "2", "--format", "plain", "x1*y2"], None),
    ("pluriharmonic-expansion-too-large",
     ["pluriharmonic", "-n", "2", "(x1+x2+y1+y2+1)^30"], None),
    # off-diagonal witnesses with nonzero imaginary parts, (j, k) row-major
    ("pluriharmonic-n2-complex-witnesses",
     ["pluriharmonic", "-n", "2", "x1*y2 + x1^2*y2 - 1/3*y1*x2"], None),
    ("pluriharmonic-n3-complex-witnesses",
     ["pluriharmonic", "-n", "3", "x1*y2 + x1^2*y2 - 1/3*y1*x3"], None),
    # verify-g
    ("verify-g-doc", ["verify-g", "-n", "2", "z1*z2 + i*z1^3"], None),
    ("verify-g-plain", ["verify-g", "-n", "1", "--format", "plain", "z1^2 + 1"], None),
    ("verify-g-n2-complex-rational",
     ["verify-g", "-n", "2", "(1/2 + 2/3*i)*z1^2*z2 - 3/5*i*z2 + 1/7"], None),
    ("verify-g-gaussian-power", ["verify-g", "-n", "1", "(1-i)^3*z"], None),
    # the parser accepts z1^200; expanding g into real coordinates would not fit
    ("verify-g-expansion-too-large", ["verify-g", "-n", "1", "z1^200"], None),
    ("verify-g-unknown-variable", ["verify-g", "-n", "1", "z2"], None),
    ("verify-g-power-too-long", ["verify-g", "-n", "1", "10^5000*z"], None),
    ("verify-g-literal-too-long", ["verify-g", "-n", "1", "1" * 5000 + "*z"], None),
    # eliminate
    ("eliminate-doc", ["eliminate", "-n", "1", "t - x^2 + y^2", "t - 2*x*y"], None),
    ("eliminate-plain", ["eliminate", "-n", "1", "--format", "plain", "t - x^2 + y^2", "t - 2*x*y"], None),
    ("eliminate-translated", ["eliminate", "-n", "1", "y*t - y*x", "t - y"], None),
    ("eliminate-translated-n2",
     ["eliminate", "-n", "2", "y2*(t - x1*x2 + y1*y2)", "t - x1*y2 - x2*y1"], None),
    ("eliminate-non-real", ["eliminate", "-n", "1", "i*t", "t"], None),
    ("eliminate-zero", ["eliminate", "-n", "1", "0", "t"], None),
    ("eliminate-no-t", ["eliminate", "-n", "1", "x", "y"], None),
    ("eliminate-p1-no-t", ["eliminate", "-n", "1", "x", "t - 2*x*y"], None),
    ("eliminate-p2-no-t", ["eliminate", "-n", "1", "t - x^2 + y^2", "y"], None),
    ("eliminate-restriction-vanishes-at-origin", ["eliminate", "-n", "1", "y*t", "t"], None),
    ("eliminate-unknown-variable", ["eliminate", "-n", "1", "t - z1", "t"], None),
    ("eliminate-cubic-quadratic-plain",
     ["eliminate", "-n", "1", "--format", "plain", "t^3 - x*t + y", "t^2 - y"], None),
    # discriminant
    ("discriminant-doc", ["discriminant", "-n", "1", "t^2 - z1"], None),
    ("discriminant-n2-plain", ["discriminant", "-n", "2", "--format", "plain", "t^3 - z1*t + z2"], None),
    ("discriminant-other-variable", ["discriminant", "-n", "1", "-t", "z1", "t^2 - z1"], None),
    ("discriminant-unknown-fiber-variable", ["discriminant", "-n", "1", "-t", "q", "t^2 - z1"], None),
    ("discriminant-zero-degree", ["discriminant", "-n", "1", "z1 + 1"], None),
    # remainder sequences with degree gaps, a z-dependent leading coefficient,
    # a repeated factor and a derivative that is a monomial
    ("discriminant-quintic-gap-plain",
     ["discriminant", "-n", "1", "--format", "plain", "t^5 + z1*t + 1"], None),
    ("discriminant-leading-z-plain",
     ["discriminant", "-n", "1", "--format", "plain", "z1*t^3 + t + 1"], None),
    ("discriminant-repeated-factor-plain",
     ["discriminant", "-n", "2", "--format", "plain", "(t - z1)^2*(t - z2)"], None),
    ("discriminant-binomial-plain",
     ["discriminant", "-n", "1", "--format", "plain", "t^4 + z1"], None),
    # the resultant's work budget (polynomials.MAX_RESULTANT_WORK): the
    # degree-12 member of this family is accepted, the degree-14 one refused
    ("discriminant-budget-largest-accepted-plain",
     ["discriminant", "-n", "2", "--format", "plain", "--",
      "t^12 + (z1^2 + z2)*t^7 + z2^3*t^3 + z1*z2 + 1"], None),
    ("discriminant-budget-refused",
     ["discriminant", "-n", "2", "--", "t^14 + (z1^2 + z2)*t^9 + z2^3*t^3 + z1*z2 + 1"], None),
    # fibers
    ("fibers-doc", ["fibers", "-n", "1", "t^2 - z1", "1; 2; 1+i; -1"], None),
    ("fibers-plain", ["fibers", "-n", "1", "--format", "plain", "t^3 - z1", "1; 2"], None),
    ("fibers-no-samples", ["fibers", "-n", "1", "t^2 - z1", ";"], None),
    ("fibers-on-locus", ["fibers", "-n", "1", "t^2 - z1", "1; 0"], None),
    ("fibers-leading-vanishes", ["fibers", "-n", "1", "z1*t^2 + t + 1", "0"], None),
    ("fibers-arity", ["fibers", "-n", "2", "t^2 - z1", "1"], None),
    ("fibers-huge-coefficient", ["fibers", "-n", "1", "t^2 - 10^400*z1", "1; 2"], None),
    # route
    ("route-doc", ["route", "-"], _doc(2, _STRIP, _STRIP_TOP, [[1]], [0, 5])),
    ("route-plain", ["route", "--format", "plain", "-"],
     _doc(2, _SQUARE, [[0, 1, 2], [0, 2, 3]], [[1], [3]], [0, 2])),
    ("route-disconnected", ["route", "-"],
     _doc(2, [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)],
          [[0, 1, 2], [3, 4, 5]], [], [0, 3])),
    ("route-invalid-json", ["route", "-"], "{not json"),
    ("route-overlap", ["route", "-"],
     _doc(2, _SQUARE, [[0, 1, 2], [0, 1, 3]], [], [0, 2])),
    ("route-overlap-1d", ["route", "-"],
     _doc(1, [(0,), (2,), (3,), (1,)], [[0, 1], [1, 2], [0, 3]], [], [3, 2])),
    ("route-marked-not-a-face", ["route", "-"],
     _doc(2, _SQUARE, [[0, 1, 2], [0, 2, 3]], [[1, 3]], [0, 2])),
    ("route-marked-edge", ["route", "-"],
     _doc(2, _SQUARE, [[0, 1, 2], [0, 2, 3]], [[0, 1]], [0, 2])),
    ("route-marked-top-3d", ["route", "-"],
     _doc(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2, 3]],
          [[0, 1, 2, 3]], [0, 1])),
    ("route-endpoint-out-of-range", ["route", "-"],
     _doc(2, _SQUARE, [[0, 1, 2], [0, 2, 3]], [], [0, 9])),
    ("route-endpoint-in-no-top", ["route", "-"],
     _doc(2, _SQUARE + [(5, 5)], [[0, 1, 2], [0, 2, 3]], [], [0, 4])),
    # malformed route documents
    ("route-malformed-no-vertices", ["route", "-"], '{"ambient_dim": 2}'),
    ("route-malformed-list", ["route", "-"], "[1, 2]"),
    ("route-malformed-coordinate", ["route", "-"],
     _doc(2, [("a", 0), (1, 0), (0, 1)], [[0, 1, 2]], [], [0, 1])),
    ("route-malformed-endpoints", ["route", "-"],
     json.dumps({"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
                 "top": [[0, 1, 2]], "marked": [], "endpoints": [0]})),
    # selftest
    ("selftest-seed-3", ["selftest", "--seed", "3"], None),
    # argparse: help and usage errors
    ("cli-no-command", [], None),
    ("cli-help", ["--help"], None),
    ("cli-unknown-command", ["frobnicate"], None),
    ("cli-extra-argument", ["reconstruct", "-n", "1", "x", "y"], None),
    ("reconstruct-help", ["reconstruct", "--help"], None),
    ("eliminate-help", ["eliminate", "-h"], None),
    ("fibers-help", ["fibers", "-h"], None),
    ("reconstruct-bad-dimension", ["reconstruct", "-n", "two", "x"], None),
    # -n outside 1..cli.MAX_DIMENSION
    ("eliminate-dimension-zero", ["eliminate", "-n", "0", "--", "t", "t"], None),
    ("reconstruct-dimension-negative", ["reconstruct", "-n", "-1", "--", "1"], None),
    ("verify-g-dimension-past-bound", ["verify-g", "-n", "101", "--", "1"], None),
    ("verify-g-dimension-million", ["verify-g", "-n", "1000000", "--", "1"], None),
    ("fibers-missing-points", ["fibers", "-n", "1", "t^2 - z1"], None),
]


def run_case(argv, stdin):
    """One call of ``main``; argparse's help and usage errors end in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal width, read from COLUMNS
    with patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_matches_recorded_cases():
    assert sorted(_golden()) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id, argv, stdin", CASES, ids=[c[0] for c in CASES])
def test_golden(case_id, argv, stdin):
    assert run_case(argv, stdin) == _golden()[case_id]


if __name__ == "__main__":
    recorded = {case_id: run_case(argv, stdin) for case_id, argv, stdin in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
