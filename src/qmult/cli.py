"""Command-line interface.

Subcommands: expand, fit, cx, e, e-neg, koszul, limit, theta, serre, verify.
Exit codes: 0 success, 1 computational or validation error, 2 usage error.
Output is deterministic for fixed inputs and seed.  The environment variable
MULT_FIXTURE_DIR overrides the fixture corpus location for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .exact import NotExpandableError, format_rational, series_coefficients
from .fixtures import FixtureError, run_corpus, run_property_suites
from .koszul import KoszulError, reduce_chain
from .lengths import FitError, LengthFunction, ModelError, from_series
from .multiplicity import (
    MultiplicityError,
    limit_estimate,
    multiplicity_neg,
    multiplicity_pos,
    serre_intersection,
    theta_invariant,
)
from .series import SeriesSemanticError, SeriesSyntaxError, parse_series

_ERRORS = (
    FitError,
    FixtureError,
    KoszulError,
    ModelError,
    MultiplicityError,
    NotExpandableError,
    SeriesSemanticError,
    SeriesSyntaxError,
    OSError,
    UnicodeDecodeError,
    json.JSONDecodeError,
)


_INT = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """Parse an integer flag value: ASCII ``-?[0-9]+`` and nothing else (no
    whitespace, '+' sign, underscores or non-ASCII digits)."""
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--expr", help="series expression, expanded and fitted")
    sub.add_argument("--d", type=_int, default=2, help="period (even, >= 2); used with --expr")
    sub.add_argument("--probe", type=_int, default=80, help="expansion window for fitting")
    sub.add_argument("--input", help="path to a length-function JSON file")


def _load_input(args: argparse.Namespace, parser: argparse.ArgumentParser) -> LengthFunction:
    if (args.expr is None) == (args.input is None):
        parser.error("provide exactly one of --expr or --input")
    if args.expr is not None:
        return from_series(parse_series(args.expr), args.d, args.probe)
    with open(args.input) as fh:
        return LengthFunction.from_json_dict(json.load(fh))


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_expand(args, parser) -> int:
    f = parse_series(args.expr)
    coeffs = series_coefficients(f, args.n)
    if args.json:
        _print_json({"expr": args.expr, "coefficients": [format_rational(c) for c in coeffs]})
    else:
        print(" ".join(format_rational(c) for c in coeffs))
    return 0


def _cmd_fit(args, parser) -> int:
    lf = _load_input(args, parser)
    _print_json(lf.to_json_dict())
    return 0


def _cmd_cx(args, parser) -> int:
    lf = _load_input(args, parser)
    print(lf.complexity(args.side))
    return 0


def _report_lines(
    report, convention: str, d: int, limit_n: int | None, limits: dict[str, Fraction]
) -> list[str]:
    lines = [
        f"side           {report.side}",
        f"d              {d}",
        f"cx             {report.cx}",
        f"cx_neg         {report.cx_neg}",
        f"s              {report.s}",
    ]
    polys = report.polys if report.side == "positive" else report.polys_neg
    for i, p in enumerate(polys):
        lines.append(f"g[{i}]           {p}")
    if report.leading:
        lines.append(
            "leading        " + ", ".join(format_rational(a) for a in report.leading)
        )
    if convention in ("delta", "both"):
        lines.append(f"e_delta        {report.e_delta}")
    if convention in ("coefficient", "both"):
        lines.append(f"e_coeff        {report.e_coeff}")
    if report.stabilization_index is not None:
        lines.append(f"stabilized_at  {report.stabilization_index}")
    if limits and convention in ("coefficient", "both"):
        lines.append(f"limit_paper(n={limit_n})      {_approx(limits['paper'])}")
    if limits and convention in ("delta", "both"):
        lines.append(f"limit_corrected(n={limit_n})  {_approx(limits['corrected'])}")
    return lines


def _approx(value: Fraction) -> str:
    return f"{format_rational(value)} (~ {float(value):.6f})"


def _cmd_e(args, parser, side: str) -> int:
    lf = _load_input(args, parser)
    compute = multiplicity_pos if side == "positive" else multiplicity_neg
    s = args.s if args.s is not None else lf.complexity(side)
    report = compute(lf, s)
    limits = {}
    if args.limit_n is not None:
        limits = {c: limit_estimate(lf, s, args.limit_n, c) for c in ("paper", "corrected")}
    if args.json:
        payload = report.to_json_dict()
        payload.update((f"limit_{c}", format_rational(v)) for c, v in limits.items())
        _print_json(payload)
    else:
        for line in _report_lines(report, args.convention, lf.d, args.limit_n, limits):
            print(line)
    return 0


def _cmd_koszul(args, parser) -> int:
    lf = _load_input(args, parser)
    s = args.s if args.s is not None else lf.complexity(args.regime)
    chain = reduce_chain(lf, s, args.regime)
    _print_json(chain.to_json_dict())
    return 0


def _cmd_limit(args, parser) -> int:
    lf = _load_input(args, parser)
    est = limit_estimate(lf, args.s, args.n, args.constant)
    if args.json:
        _print_json(
            {"s": args.s, "n": args.n, "constant": args.constant, "estimate": format_rational(est)}
        )
    else:
        print(_approx(est))
    return 0


def _cmd_theta(args, parser) -> int:
    with open(args.input) as fh:
        lf = LengthFunction.from_json_dict(json.load(fh))
    value = theta_invariant(lf)
    if args.json:
        _print_json({"theta": value})
    else:
        print(value)
    return 0


def _cmd_serre(args, parser) -> int:
    try:
        tor = [_int(part) for part in args.tor.split(",")]
    except argparse.ArgumentTypeError:
        parser.error("--tor must be a comma-separated list of integers")
    value = serre_intersection(tor)
    if args.json:
        _print_json({"serre": value})
    else:
        print(value)
    return 0


def _cmd_verify(args, parser) -> int:
    results = []
    if args.suite in ("paper", "all"):
        results += run_corpus()
    if args.suite in ("properties", "all"):
        results += run_property_suites(args.seed)
    results.sort(key=lambda r: r.key)
    failures = [r for r in results if not r.ok]
    if args.json:
        _print_json(
            {
                "results": [
                    {"name": r.key, "ok": r.ok, "detail": r.detail} for r in results
                ],
                "passed": len(results) - len(failures),
                "failed": len(failures),
            }
        )
    else:
        for r in results:
            if r.ok:
                print(f"PASS {r.key}")
            else:
                print(f"FAIL {r.key} -- {r.detail}")
        print(f"passed {len(results) - len(failures)} of {len(results)}")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmult",
        description="Exact multiplicities of graded length functions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="expand a series expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True, help="last coefficient index")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("fit", help="fit a length function and print its JSON")
    _add_input_flags(p)

    p = subs.add_parser("cx", help="complexity of a length function")
    _add_input_flags(p)
    p.add_argument("--side", choices=["positive", "negative"], default="positive")

    for name, side in (("e", "positive"), ("e-neg", "negative")):
        p = subs.add_parser(name, help=f"{side} multiplicity report")
        _add_input_flags(p)
        p.add_argument("--s", type=_int, default=None, help="index (defaults to the complexity)")
        p.add_argument(
            "--convention", choices=["delta", "coefficient", "both"], default="both"
        )
        p.add_argument("--json", action="store_true")
        if side == "positive":
            p.add_argument("--limit-n", type=_int, default=None, dest="limit_n")
        else:
            p.set_defaults(limit_n=None)  # the limit estimate is positive-side only

    p = subs.add_parser("koszul", help="iterated reduction chain as JSON")
    _add_input_flags(p)
    p.add_argument("--s", type=_int, default=None)
    p.add_argument("--regime", choices=["positive", "negative"], default="positive")

    p = subs.add_parser("limit", help="finite-n limit estimate")
    _add_input_flags(p)
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--constant", choices=["paper", "corrected"], default="paper")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("theta", help="stabilized even/odd difference of Tor lengths")
    p.add_argument("--input", required=True, help="homologically indexed length-function JSON")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("serre", help="alternating sum of Tor lengths")
    p.add_argument("--tor", required=True, help="comma-separated lengths, degree 0 first")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("verify", help="run the fixture corpus and property suites")
    p.add_argument("--suite", choices=["paper", "properties", "all"], default="all")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


_COMMANDS = {
    "expand": _cmd_expand,
    "fit": _cmd_fit,
    "cx": _cmd_cx,
    "koszul": _cmd_koszul,
    "limit": _cmd_limit,
    "theta": _cmd_theta,
    "serre": _cmd_serre,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "e":
            return _cmd_e(args, parser, "positive")
        if args.command == "e-neg":
            return _cmd_e(args, parser, "negative")
        return _COMMANDS[args.command](args, parser)
    except _ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
