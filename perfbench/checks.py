"""Exact checks of kholo's answers, run after the clock stops.

Each check returns None for a correct answer and a one-line reason
otherwise. Expected values come from ``algebra`` and from the facts the
corpus recorded; where kholo code is used (``verify_annihilator``,
``distinct_root_count_exact``, ``parse_poly``), it is a different path from
the one the timed request ran.
"""

import json

from perfbench import algebra as A


def _doc(stdout):
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return None


def _reconstruct(expect, code, result):
    n, u, f = expect["n"], expect["u"], expect["f"]
    pluriharmonic = expect["pluriharmonic"]
    if code != (0 if pluriharmonic else 1):
        return f"exit {code}, pluriharmonic={pluriharmonic}"
    if pluriharmonic:
        # f normalized to Im f(0) = 0
        c0 = f.get((0,) * n, A.G(0))
        candidate = A.sub(f, A.constant(A.G(0, c0.im), n))
    else:
        candidate = A.cartan_candidate(u, n)
    residual = A.sub(A.real_part(A.real_coordinates(candidate, n)), u)
    if A.parse(result["candidate"]["text"], A.names_z(n)) != candidate:
        return "wrong candidate"
    if A.parse(result["residual"]["text"], A.names_xy(n)) != residual:
        return "wrong residual"
    if result["reconstructed"] is not pluriharmonic or result["pluriharmonic"] is not pluriharmonic:
        return "wrong verdict"
    return None


def _pluriharmonic(expect, code, result):
    expected = expect["witnesses"]
    if code != (1 if expected else 0) or result["pluriharmonic"] is not (not expected):
        return f"exit {code} with {len(expected)} expected witnesses"
    got = {(w["j"], w["k"]): A.parse(w["derivative"]["text"], A.names_xy(expect["n"]))
           for w in result["witnesses"]}
    return None if got == expected else "wrong witnesses"


def _verify_g(expect, code, result):
    if code != 0 or result["holomorphic"] is not True or result["witnesses"]:
        return f"exit {code}: g not holomorphic"
    return None


def _eliminate(expect, code, result):
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if code != 0:
        return None
    from kholo.eliminate import verify_annihilator
    from kholo.exprio import parse_poly
    from kholo.polynomials import VarSpace

    n = expect["n"]
    r = parse_poly(result["annihilator"]["text"], VarSpace.zt(n))
    f = parse_poly(expect["f"], VarSpace.z(n))
    if result["degenerate"] or r.is_zero() or not verify_annihilator(r, f):
        return "R(z, f(z)) != 0"
    return None


def _discriminant(expect, code, result):
    if code != 0:
        return f"exit {code}"
    n, p, z0 = expect["n"], expect["p"], expect["z0"]
    got = A.evaluate(A.parse(result["discriminant"]["text"], A.names_z(n)), z0)
    want = A.discriminant([A.evaluate(c, z0) for c in A.univariate(p, n)])
    return None if got == want else "D(z0) differs from disc P(z0, t)"


def _fibers(expect, code, result):
    if code != 0:
        return f"exit {code}"
    from kholo.branches import distinct_root_count_exact
    from kholo.exprio import parse_gaussian, parse_poly
    from kholo.polynomials import VarSpace

    samples = result["samples"]
    if result["covering_degree"] != expect["degree"] or len(samples) != expect["points"]:
        return f"covering degree {result['covering_degree']} over {len(samples)} samples"
    p = parse_poly(expect["p"], VarSpace.zt(expect["n"]))
    for s in samples:
        point = tuple(parse_gaussian(c) for c in s["point"])
        if s["on_locus"] or s["fiber_count"] != distinct_root_count_exact(p, point):
            return f"fiber count {s['fiber_count']} at {s['point']}"
    return None


def _route(expect, code, result):
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if code == 0 and result["avoided"] is not True:
        return "route not certified as avoiding"
    return None


def _verdict(expect, code, result):
    return None if code in expect["exits"] else f"exit {code}, expected one of {expect['exits']}"


def check(request, outcome):
    """None when the outcome is the exact expected answer, else the reason."""
    if outcome.error:
        return outcome.error
    kind, expect, code = request.kind, request.expect, outcome.code
    result = _doc(outcome.stdout)   # None without a document; checks read it only on exit 0 or 1
    try:
        return {
            "reconstruct": _reconstruct,
            "pluriharmonic": _pluriharmonic,
            "verify-g": _verify_g,
            "eliminate": _eliminate,
            "discriminant": _discriminant,
            "fibers": _fibers,
            "route": _route,
            "verdict": _verdict,
        }[kind](expect, code, result)
    except Exception as exc:  # noqa: BLE001 - a malformed answer fails the request
        return f"malformed answer: {exc!r}"
