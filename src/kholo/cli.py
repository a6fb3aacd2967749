"""Command-line surface.

One batch invocation per subcommand; every run writes a single report
document (or a plain rendering with ``--format plain``) to standard output.
A handler passes its plain rendering as a callable, so the plain lines (a
second printing of the candidate, annihilator or discriminant) are built
only under ``--format plain``.

Exit codes: 0 success / positive verdict, 1 negative verdict (not
pluriharmonic, degenerate resultant, no route),
2 input error, 3 internal error.  The degenerate resultant cannot happen:
a common root rho(z) of q1(z, w0) and q2(z, t - w0) would make
q2(z, t - rho) vanish for every t, yet q2 is nonzero.  Its exit-1 branch
stays with the report field it reads.  A handler returns 0 or 1 for its verdict;
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
from kholo.errors import DimensionOutOfRange, KholoError
from kholo.exprio import parse_point, parse_poly, print_poly
from kholo.polynomials import VarSpace
from kholo.simplicial import route_path, verify_avoidance

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The largest -n accepted.  Work grows with n even for a constant input
# (verify-g is quadratic, reconstruct and pluriharmonic about cubic in n);
# at n = 100 each of them answers "1" in under 0.05 s.
MAX_DIMENSION = 100

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
    """Write the document, or under ``--format plain`` the lines ``plain_lines()`` returns."""
    if args.format == "plain":
        for line in plain_lines():
            print(line)
    else:
        sys.stdout.write(reports.dumps(doc))


def _cmd_reconstruct(args):
    u = parse_poly(_read_text_arg(args.expr), VarSpace.xy(args.n))
    report = reconstruct_from_real_part(u)
    code = EXIT_OK if report.reconstructed else EXIT_NEGATIVE
    doc = reports.document("reconstruct", {"u": reports.poly_to_doc(u)},
                           reports.report_to_doc(report), code)
    _emit(args, doc, lambda: [print_poly(report.candidate)])
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
    _emit(args, doc, lambda: ["true" if verdict else "false"])
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
    _emit(args, doc, lambda: ["true" if verdict else "false"])
    return code


def _cmd_eliminate(args):
    space = VarSpace.xyt(args.n)
    p1 = parse_poly(_read_text_arg(args.p1), space)
    p2 = parse_poly(_read_text_arg(args.p2), space)
    pair = AnnihilatorPair(p1=p1, p2=p2, n=args.n)
    report = eliminate_annihilator(pair)
    code = EXIT_NEGATIVE if report.degenerate else EXIT_OK
    doc = reports.document(
        "eliminate",
        {"p1": reports.poly_to_doc(p1), "p2": reports.poly_to_doc(p2)},
        reports.report_to_doc(report), code)
    _emit(args, doc, lambda: [print_poly(report.annihilator)])
    return code


def _cmd_discriminant(args):
    space = VarSpace.zt(args.n)
    p = parse_poly(_read_text_arg(args.expr), space)
    d = discriminant(p, args.t)
    doc = reports.document("discriminant", {"p": reports.poly_to_doc(p)},
                           {"discriminant": reports.poly_to_doc(d)}, EXIT_OK)
    _emit(args, doc, lambda: [print_poly(d)])
    return EXIT_OK


def _cmd_fibers(args):
    space = VarSpace.zt(args.n)
    p = parse_poly(_read_text_arg(args.expr), space)
    points = [parse_point(part, args.n)
              for part in args.points.split(";") if part.strip()]
    report = covering_check(p, points)
    doc = reports.document("fibers", {"p": reports.poly_to_doc(p)},
                           reports.report_to_doc(report), EXIT_OK)
    _emit(args, doc, lambda: [
        f"degree {report.covering_degree} counts "
        + " ".join(str(s.fiber_count) for s in report.samples)])
    return EXIT_OK


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
    _emit(args, doc, lambda: [" ".join(str(c) for c in point) for point in path.waypoints])
    return code


def _cmd_selftest(args):
    return selftest.run(seed=args.seed)


_DIM = (("-n",), {"type": int, "default": 1, "metavar": "DIM",
                  "help": "number of complex dimensions (default 1)"})
_FORMAT = (("--format",), {"choices": ("doc", "plain"), "default": "doc",
                           "help": "output format (default doc)"})

# name -> (handler, help, arguments in declaration order): the one declaration
# of the command line, used for the full tree and for a single subcommand
SUBCOMMANDS = {
    "reconstruct": (_cmd_reconstruct, "recover f from its real part", [
        _DIM, _FORMAT,
        (("expr",), {"help": "real part u in x/y variables"})]),
    "pluriharmonic": (_cmd_pluriharmonic, "test the reconstruction obstruction", [
        _DIM, _FORMAT,
        (("expr",), {"help": "candidate real part u in x/y variables"})]),
    "verify-g": (_cmd_verify_g, "check holomorphy of the doubled polynomial", [
        _DIM, _FORMAT,
        (("expr",), {"help": "polynomial f in z variables"})]),
    "eliminate": (_cmd_eliminate, "annihilator of f from annihilators of its parts", [
        _DIM, _FORMAT,
        (("p1",), {"help": "annihilator of the real part, in x/y/t"}),
        (("p2",), {"help": "annihilator of the imaginary part, in x/y/t"})]),
    "discriminant": (_cmd_discriminant, "discriminant of P(z, t) in t", [
        _DIM, _FORMAT,
        (("-t",), {"default": "t", "metavar": "VAR",
                   "help": "fiber variable (default t)"}),
        (("expr",), {"help": "polynomial P in z/t variables"})]),
    "fibers": (_cmd_fibers, "fiber counts over sample points", [
        _DIM, _FORMAT,
        (("expr",), {"help": "polynomial P in z/t variables"}),
        (("points",), {"help": "semicolon-separated sample points, e.g. '1; 1+i; 2,3'"})]),
    "route": (_cmd_route, "barycentric route through a complex", [
        _FORMAT,
        (("document",), {"help": "complex document (JSON file path or '-')"})]),
    "selftest": (_cmd_selftest, "run the built-in checks", [
        (("--seed",), {"type": int, "default": 0, "help": "corpus seed (default 0)"})]),
}


def build_parser(names):
    """The argument parser holding the named subcommands of ``SUBCOMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="kholo",
        description="Exact toolkit: holomorphic reconstruction, annihilator "
                    "elimination, discriminant fibers, simplicial routing.")
    # A tree with fewer subcommands still names them all in its usage line,
    # which an unrecognized argument prints; the full tree keeps the default,
    # since a metavar would also rename 'command' in its error messages.
    metavar = None if len(names) == len(SUBCOMMANDS) else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        handler, help_text, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named subcommand's parser is built; help, a missing or an
    # unknown subcommand need the full tree for their text.
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else list(SUBCOMMANDS)
    args = build_parser(names).parse_args(argv)
    try:
        n = getattr(args, "n", None)
        if n is not None and not 1 <= n <= MAX_DIMENSION:
            raise DimensionOutOfRange(f"dimension -n {n} is outside 1..{MAX_DIMENSION}")
        return args.handler(args)
    except KholoError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"{_PREFIXES[EXIT_INTERNAL]}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
