"""Tests of the benchmark itself: seeded inputs, exact checks, time limit, tracing.

    python3 -m pytest -q perfbench
"""

import json
from itertools import islice
from pathlib import Path

import pytest

from perfbench import algebra as A
from perfbench import corpus, harness, run
from perfbench.checks import check
from perfbench.tracing import Tracer


def _texts(workload, seed, rounds=2):
    return [r.text() for batch in islice(corpus.rounds(workload, seed), rounds) for r in batch]


@pytest.mark.parametrize("workload", sorted(corpus.ROUNDS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _texts(workload, 7)
    assert first == _texts(workload, 7)
    assert first != _texts(workload, 8)


def _first(workload, kind, predicate=lambda r: True):
    for batch in islice(corpus.rounds(workload, 3), 3):
        for request in batch:
            if request.kind == kind and predicate(request):
                return request
    raise LookupError(kind)


def _answer(request):
    outcome = harness.call(request)
    assert check(request, outcome) is None, outcome
    return outcome, json.loads(outcome.stdout) if outcome.stdout else None


def _rejected(request, outcome, doc, code=None):
    corrupted = harness.Outcome(outcome.code if code is None else code,
                                json.dumps(doc), outcome.elapsed)
    return check(request, corrupted) is not None


def _bump_first_coefficient(text, names):
    p = A.parse(text, names)
    exps = next(iter(p))
    p[exps] = p[exps] + A.G(1)
    return A.to_text(p, names)


def test_reconstruct_check_rejects_wrong_candidate():
    request = _first("cartan", "reconstruct", lambda r: r.expect["pluriharmonic"])
    outcome, doc = _answer(request)
    candidate = doc["result"]["candidate"]
    candidate["text"] = _bump_first_coefficient(candidate["text"], A.names_z(request.expect["n"]))
    assert _rejected(request, outcome, doc)


def test_reconstruct_check_rejects_wrong_residual():
    request = _first("cartan", "reconstruct", lambda r: not r.expect["pluriharmonic"])
    outcome, doc = _answer(request)
    assert outcome.code == 1
    doc["result"]["residual"]["text"] = "0"
    assert _rejected(request, outcome, doc)


def test_pluriharmonic_check_rejects_missing_witness():
    request = _first("cartan", "pluriharmonic", lambda r: r.expect["witnesses"])
    outcome, doc = _answer(request)
    doc["result"]["witnesses"].pop()
    assert _rejected(request, outcome, doc)


def test_verify_g_check_rejects_wrong_verdict():
    request = _first("cartan", "verify-g")
    outcome, doc = _answer(request)
    doc["result"]["holomorphic"] = False
    assert _rejected(request, outcome, doc)
    assert _rejected(request, outcome, json.loads(outcome.stdout), code=1)


def test_eliminate_check_rejects_changed_annihilator_coefficient():
    request = _first("resultants", "eliminate", lambda r: r.expect["exit"] == 0)
    outcome, doc = _answer(request)
    annihilator = doc["result"]["annihilator"]
    annihilator["text"] = _bump_first_coefficient(annihilator["text"],
                                                  A.names_zt(request.expect["n"]))
    assert _rejected(request, outcome, doc)


def test_eliminate_without_t_is_an_input_error():
    request = _first("resultants", "eliminate", lambda r: r.expect["exit"] == 2)
    outcome, _ = _answer(request)
    assert outcome.code == 2


def test_discriminant_check_rejects_changed_coefficient():
    request = _first("resultants", "discriminant", lambda r: r.expect["n"] == 1)
    outcome, doc = _answer(request)
    disc = doc["result"]["discriminant"]
    disc["text"] = _bump_first_coefficient(disc["text"], A.names_z(1))
    assert _rejected(request, outcome, doc)


def test_fibers_check_rejects_wrong_count():
    request = _first("resultants", "fibers", lambda r: r.expect["n"] == 1)
    outcome, doc = _answer(request)
    doc["result"]["samples"][-1]["fiber_count"] -= 1
    assert _rejected(request, outcome, doc)


def test_route_check_rejects_flipped_avoided_and_wrong_exit():
    request = _first("route", "route", lambda r: r.expect["exit"] == 0)
    outcome, doc = _answer(request)
    doc["result"]["avoided"] = False
    assert _rejected(request, outcome, doc)
    invalid = _first("route", "route", lambda r: r.expect["exit"] == 2)
    outcome, _ = _answer(invalid)
    assert _rejected(invalid, outcome, {}, code=0)


def test_algebra_discriminant_matches_closed_form():
    # disc(a t^2 + b t + c) = b^2 - 4ac
    a, b, c = A.G(2, 1), A.G(-3), A.G(1, -5)
    assert A.discriminant([c, b, a]) == b * b - A.G(4) * a * c


def test_time_limit_cannot_be_swallowed_by_main():
    outcome = harness.call(corpus.KNOWN_DEFECTS["cartan"], limit=0.05)
    assert outcome.timed_out and outcome.code is None
    assert check(corpus.KNOWN_DEFECTS["cartan"], outcome) is not None


def test_tracer_records_spans_and_restores_every_binding():
    import kholo.cli
    import kholo.polynomials

    originals = (kholo.cli.main, kholo.cli.discriminant, kholo.polynomials.terms_mul,
                 kholo.polynomials.LinearSubst.apply)
    request = _first("resultants", "discriminant", lambda r: r.expect["n"] == 1)
    tracer = Tracer()
    with tracer.spans():
        assert harness.call(request).code == 0
    assert originals == (kholo.cli.main, kholo.cli.discriminant, kholo.polynomials.terms_mul,
                         kholo.polynomials.LinearSubst.apply)
    assert tracer.self_s["branches.discriminant"] > 0
    assert tracer.counts["polynomials.terms_mul.calls"] > 0
    assert tracer.counts["eliminate.sylvester_size_max"] > 0


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
