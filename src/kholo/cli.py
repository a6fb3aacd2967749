"""Command-line surface.

One batch invocation per subcommand; every run writes a single report
document (or a plain rendering with ``--format plain``) to standard output.

Exit codes: 0 success / positive verdict, 1 negative verdict (not
pluriharmonic, degenerate resultant, mismatched covering counts, no route),
2 input error, 3 internal error.  A handler returns 0 or 1 for its verdict;
an error's code is declared on its class in :mod:`kholo.errors`, so the CLI
catches only ``KholoError`` and needs no list of error classes.
"""

import argparse
import json
import os
import sys

from kholo import reports, selftest
from kholo.branches import covering_check, discriminant
from kholo.cartan import check_pluriharmonic, reconstruct_from_real_part, verify_g_holomorphic
from kholo.eliminate import AnnihilatorPair, eliminate_annihilator
from kholo.errors import KholoError
from kholo.exprio import parse_point, parse_poly, print_poly
from kholo.polynomials import VarSpace
from kholo.simplicial import route_path, verify_avoidance

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# the stderr prefix of an error, by its exit code
_PREFIXES = {EXIT_NEGATIVE: "no route", EXIT_INPUT: "error", EXIT_INTERNAL: "internal error"}


def _read_text_arg(value):
    """An inline expression, or the contents of a file when the value names one."""
    if value == "-":
        return sys.stdin.read()
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as handle:
            return handle.read()
    return value


def _emit(args, doc, plain_lines):
    if args.format == "plain":
        for line in plain_lines:
            print(line)
    else:
        sys.stdout.write(reports.dumps(doc))


def _cmd_reconstruct(args):
    u = parse_poly(_read_text_arg(args.expr), VarSpace.xy(args.n))
    report = reconstruct_from_real_part(u)
    code = EXIT_OK if report.reconstructed else EXIT_NEGATIVE
    doc = reports.document("reconstruct", {"u": reports.poly_to_doc(u)},
                           reports.report_to_doc(report), code)
    _emit(args, doc, [print_poly(report.candidate)])
    return code


def _cmd_pluriharmonic(args):
    u = parse_poly(_read_text_arg(args.expr), VarSpace.xy(args.n))
    verdict, witnesses = check_pluriharmonic(u)
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    result = {
        "pluriharmonic": verdict,
        "witnesses": [
            {"j": j, "k": k, "derivative": reports.poly_to_doc(w)}
            for j, k, w in witnesses
        ],
    }
    doc = reports.document("pluriharmonic", {"u": reports.poly_to_doc(u)},
                           result, code)
    _emit(args, doc, ["true" if verdict else "false"])
    return code


def _cmd_verify_g(args):
    f = parse_poly(_read_text_arg(args.expr), VarSpace.z(args.n))
    verdict, witnesses = verify_g_holomorphic(f)
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    result = {
        "holomorphic": verdict,
        "witnesses": [
            {"j": j, "derivative": reports.poly_to_doc(w)}
            for j, w in witnesses
        ],
    }
    doc = reports.document("verify-g", {"f": reports.poly_to_doc(f)},
                           result, code)
    _emit(args, doc, ["true" if verdict else "false"])
    return code


def _cmd_eliminate(args):
    space = VarSpace.xyt(args.n)
    p1 = parse_poly(_read_text_arg(args.p1), space)
    p2 = parse_poly(_read_text_arg(args.p2), space)
    pair = AnnihilatorPair(p1=p1, p2=p2, n=args.n)
    report = eliminate_annihilator(pair, bound=args.bound)
    code = EXIT_NEGATIVE if report.degenerate else EXIT_OK
    doc = reports.document(
        "eliminate",
        {"p1": reports.poly_to_doc(p1), "p2": reports.poly_to_doc(p2)},
        reports.report_to_doc(report), code)
    _emit(args, doc, [print_poly(report.annihilator)])
    return code


def _cmd_discriminant(args):
    space = VarSpace.zt(args.n)
    p = parse_poly(_read_text_arg(args.expr), space)
    d = discriminant(p, args.t)
    doc = reports.document("discriminant", {"p": reports.poly_to_doc(p)},
                           {"discriminant": reports.poly_to_doc(d)}, EXIT_OK)
    _emit(args, doc, [print_poly(d)])
    return EXIT_OK


def _cmd_fibers(args):
    space = VarSpace.zt(args.n)
    p = parse_poly(_read_text_arg(args.expr), space)
    points = [parse_point(part, args.n)
              for part in args.points.split(";") if part.strip()]
    report = covering_check(p, points, tol=args.tol)
    code = EXIT_OK if report.covering_degree is not None else EXIT_NEGATIVE
    doc = reports.document("fibers", {"p": reports.poly_to_doc(p)},
                           reports.report_to_doc(report), code)
    counts = " ".join(str(s.fiber_count) for s in report.samples)
    _emit(args, doc, [f"degree {report.covering_degree} counts {counts}"])
    return code


def _cmd_route(args):
    text = _read_text_arg(args.document)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: invalid document: {exc}", file=sys.stderr)
        return EXIT_INPUT
    complex_, sub = reports.complex_from_doc(payload)
    path = route_path(complex_, sub)
    avoided, witness = verify_avoidance(path, complex_, sub)
    code = EXIT_OK if avoided else EXIT_NEGATIVE
    result = reports.report_to_doc(path)
    result["avoided"] = avoided
    if witness is not None:
        result["violation"] = {"segment": witness[0], "face": list(witness[1])}
    doc = reports.document("route", {"complex": payload}, result, code)
    plain = [" ".join(str(c) for c in point) for point in path.waypoints]
    _emit(args, doc, plain)
    return code


def _cmd_selftest(args):
    return selftest.run(seed=args.seed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kholo",
        description="Exact toolkit: holomorphic reconstruction, annihilator "
                    "elimination, discriminant fibers, simplicial routing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        if need_n:
            p.add_argument("-n", type=int, default=1, metavar="DIM",
                           help="number of complex dimensions (default 1)")
        p.add_argument("--format", choices=("doc", "plain"), default="doc",
                       help="output format (default doc)")

    p = sub.add_parser("reconstruct", help="recover f from its real part")
    common(p)
    p.add_argument("expr", help="real part u in x/y variables")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("pluriharmonic", help="test the reconstruction obstruction")
    common(p)
    p.add_argument("expr", help="candidate real part u in x/y variables")
    p.set_defaults(handler=_cmd_pluriharmonic)

    p = sub.add_parser("verify-g", help="check holomorphy of the doubled polynomial")
    common(p)
    p.add_argument("expr", help="polynomial f in z variables")
    p.set_defaults(handler=_cmd_verify_g)

    p = sub.add_parser("eliminate", help="annihilator of f from annihilators of its parts")
    common(p)
    p.add_argument("--bound", type=int, default=5,
                   help="basepoint grid half-width (default 5)")
    p.add_argument("p1", help="annihilator of the real part, in x/y/t")
    p.add_argument("p2", help="annihilator of the imaginary part, in x/y/t")
    p.set_defaults(handler=_cmd_eliminate)

    p = sub.add_parser("discriminant", help="discriminant of P(z, t) in t")
    common(p)
    p.add_argument("-t", default="t", metavar="VAR",
                   help="fiber variable (default t)")
    p.add_argument("expr", help="polynomial P in z/t variables")
    p.set_defaults(handler=_cmd_discriminant)

    p = sub.add_parser("fibers", help="fiber counts over sample points")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="root clustering tolerance (default 1e-8)")
    p.add_argument("expr", help="polynomial P in z/t variables")
    p.add_argument("points",
                   help="semicolon-separated sample points, e.g. '1; 1+i; 2,3'")
    p.set_defaults(handler=_cmd_fibers)

    p = sub.add_parser("route", help="barycentric route through a complex")
    common(p, need_n=False)
    p.add_argument("document", help="complex document (JSON file path or '-')")
    p.set_defaults(handler=_cmd_route)

    p = sub.add_parser("selftest", help="run the built-in checks")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed (default 0)")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KholoError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"{_PREFIXES[EXIT_INTERNAL]}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
