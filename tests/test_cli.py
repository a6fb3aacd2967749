"""Command-line surface: subcommands, documents, exit codes."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import kholo
from kholo import reports, selftest
from kholo.cli import MAX_DIMENSION, main
from kholo.simplicial import Subcomplex
from support import grid_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reconstruct_document(capsys):
    code, out, _ = run(capsys, "reconstruct", "-n", "1", "x^2 - y^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "reconstruct"
    assert doc["result"]["candidate"]["text"] == "z1^2"
    assert doc["result"]["reconstructed"] is True


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["kholo", "reconstruct", "-n", "1", "--format", "plain", "x"])
    assert main() == 0
    assert capsys.readouterr().out == "z1\n"
    monkeypatch.setattr(sys, "argv", ["kholo", "frobnicate"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_reconstruct_plain(capsys):
    code, out, _ = run(capsys, "reconstruct", "-n", "1", "--format", "plain", "x")
    assert code == 0
    assert out.strip() == "z1"


def test_pluriharmonic_negative_verdict(capsys):
    code, out, _ = run(capsys, "pluriharmonic", "-n", "1", "x^2")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["pluriharmonic"] is False
    assert doc["result"]["witnesses"][0]["derivative"]["text"] == "1/2"


def test_verify_g(capsys):
    code, out, _ = run(capsys, "verify-g", "-n", "2", "z1*z2 + i*z1^3")
    assert code == 0
    assert json.loads(out)["result"]["holomorphic"] is True


def test_eliminate_document(capsys):
    code, out, _ = run(capsys, "eliminate", "-n", "1",
                       "t - x^2 + y^2", "t - 2*x*y")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["degenerate"] is False
    assert doc["result"]["annihilator"]["text"] == "(i)*z1^2 + (-i)*t"


@pytest.mark.parametrize("p2, annihilator", [("t", "(i)*t + (-i)"),
                                               ("y*t + 1", "(-i)*t + (-1+i)")])
def test_eliminate_skips_a_restriction_free_of_t(capsys, p2, annihilator):
    # y = 0 turns y*t + 1 into 1, which annihilates nothing
    code, out, err = run(capsys, "eliminate", "-n", "1", "--format", "plain",
                         "y*t + 1", p2)
    assert (code, out, err) == (0, annihilator + "\n", "")


def test_discriminant_plain(capsys):
    code, out, _ = run(capsys, "discriminant", "-n", "1", "--format", "plain",
                       "t^2 - z1")
    assert code == 0
    assert out.strip() == "4*z1"


def test_fibers_success(capsys):
    code, out, _ = run(capsys, "fibers", "-n", "1", "t^2 - z1",
                       "1; 2; 1+i; -1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["covering_degree"] == 2
    assert [s["fiber_count"] for s in doc["result"]["samples"]] == [2, 2, 2, 2]


def test_fibers_locus_point_is_input_error(capsys):
    code, _, err = run(capsys, "fibers", "-n", "1", "t^2 - z1", "1; 0")
    assert code == 2
    assert "locus" in err


def test_route_document(tmp_path, capsys):
    c = grid_complex(1, 1)
    sub = Subcomplex(c, [(1,)], start=0, end=3)
    doc_path = tmp_path / "complex.json"
    doc_path.write_text(json.dumps(reports.complex_to_doc(c, sub)))
    code, out, _ = run(capsys, "route", str(doc_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["avoided"] is True
    assert doc["result"]["tags"][0] == "endpoint"


def test_route_disconnected_is_negative_verdict(tmp_path, capsys):
    payload = {
        "ambient_dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"],
                     ["5", "5"], ["6", "5"], ["5", "6"]],
        "top": [[0, 1, 2], [3, 4, 5]],
        "marked": [],
        "endpoints": [0, 3],
    }
    doc_path = tmp_path / "disconnected.json"
    doc_path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "route", str(doc_path))
    assert code == 1
    assert "route" in err


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "reconstruct", "-n", "1", "x +* y")
    assert code == 2
    assert "error" in err


def test_unknown_variable_exit_code(capsys):
    code, _, err = run(capsys, "reconstruct", "-n", "1", "x3 + 1")
    assert code == 2


def test_long_sum_and_product_end_in_a_verdict(capsys):
    long_sum = " + ".join(f"{k + 1}*x1^{k % 3}*y1^{k % 5}" for k in range(5000))
    code, out, err = run(capsys, "pluriharmonic", "-n", "1", "--format", "plain", long_sum)
    assert (code, out, err) == (1, "false\n", "")
    long_product = "*".join(["z1"] * 2000)
    code, out, err = run(capsys, "discriminant", "-n", "1", "--format", "plain",
                         f"t^2 - {long_product}")
    assert (code, out, err) == (0, "4*z1^2000\n", "")


def test_expansion_past_the_budget_is_input_error(capsys):
    code, out, err = run(capsys, "pluriharmonic", "-n", "2", "(x1+x2+y1+y2+1)^30")
    assert (code, out) == (2, "")
    assert err.startswith("error: power 30 of a sum of 5 terms")
    code, out, err = run(capsys, "verify-g", "-n", "1", "10^5000*z")
    assert (code, out) == (2, "")
    assert err.startswith("error: power 5000 builds integers")


@pytest.mark.parametrize("command, operands", [
    ("reconstruct", ["1"]), ("pluriharmonic", ["1"]), ("verify-g", ["1"]),
    ("eliminate", ["t", "t"]), ("discriminant", ["t^2"]), ("fibers", ["t^2 - 2"]),
])
def test_dimension_bound(capsys, command, operands):
    def argv(n):
        points = [",".join(["1"] * n)] if command == "fibers" else []  # one sample point
        return [command, "-n", str(n), "--", *operands, *points]

    code, _, err = run(capsys, *argv(MAX_DIMENSION))
    assert code == 0, err
    for n in (0, -1, MAX_DIMENSION + 1):
        assert run(capsys, *argv(n)) == (
            2, "", f"error: dimension -n {n} is outside 1..{MAX_DIMENSION}\n")


def test_expression_from_file(tmp_path, capsys):
    path = tmp_path / "u.txt"
    path.write_text("x^2 - y^2\n")
    code, out, _ = run(capsys, "reconstruct", "-n", "1", "--format", "plain",
                       str(path))
    assert code == 0
    assert out.strip() == "z1^2"


CHECK_NAMES = ["field axioms", "cartan round trip", "g restriction and holomorphy",
               "annihilator elimination", "discriminant goldens", "fiber constancy",
               "barycentric router", "waypoints and barycenters", "parser round trip and fuzz"]


@pytest.mark.parametrize("seed", range(5))
def test_selftest(capsys, seed):
    code, out, _ = run(capsys, "selftest", "--seed", str(seed))
    assert code == 0
    assert out.splitlines() == [f"selftest {name}: ok" for name in CHECK_NAMES]


def test_selftest_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "verify_g_holomorphic", lambda f: (False, []))
    code, out, _ = run(capsys, "selftest", "--seed", "0")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"selftest {name}" for name in CHECK_NAMES]
    assert lines[2].startswith("selftest g restriction and holomorphy: FAIL: the g identities fail for ")
    assert [line for line in lines if not line.endswith(": ok")] == [lines[2]]


@pytest.mark.parametrize("payload", [
    {"ambient_dim": 2},
    [{"ambient_dim": 2}],
    {"ambient_dim": 2, "vertices": [["a", "0"], ["1", "0"], ["0", "1"]],
     "top": [[0, 1, 2]], "marked": [], "endpoints": [0, 1]},
    {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "top": [[0, 1, 2]], "marked": [], "endpoints": [0]},
    {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "top": [[0, 1, "2"]], "marked": [], "endpoints": [0, 1]},
    # JSON true and false are not integers, though Python's bool is an int
    {"ambient_dim": True, "vertices": [["0"], ["1"]],
     "top": [[0, 1]], "marked": [], "endpoints": [0, 1]},
    {"ambient_dim": 1, "vertices": [["0"], ["1"]],
     "top": [[False, True]], "marked": [], "endpoints": [0, 1]},
    {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "top": [[0, 1, 2]], "marked": [[True]], "endpoints": [0, 2]},
    {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "top": [[0, 1, 2]], "marked": [], "endpoints": [False, True]},
    {"ambient_dim": 2, "vertices": [["0", "0"], [True, "0"], ["0", "1"]],
     "top": [[0, 1, 2]], "marked": [], "endpoints": [0, 1]},
], ids=["no-vertices", "top-level-list", "bad-coordinate", "one-endpoint", "index-not-integer",
        "boolean-dimension", "boolean-top", "boolean-marked", "boolean-endpoints",
        "boolean-coordinate"])
def test_route_malformed_document_is_input_error(tmp_path, capsys, payload):
    doc_path = tmp_path / "malformed.json"
    doc_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "route", str(doc_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_route_deeply_nested_document_is_input_error(capsys):
    # json's decoder refuses this depth with a RecursionError
    code, out, err = run(capsys, "route", "[" * 100_000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid document: maximum recursion depth exceeded")


def test_perfbench_names_resolve():
    """Every span perfbench wraps, and the backend name it reads, exists in kholo."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for module_name, attr, _ in tracing.SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
    assert kholo.COEFF_BACKEND == "python"
