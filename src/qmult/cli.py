"""Command-line interface.

Subcommands: expand, fit, cx, e, e-neg, koszul, limit, theta, serre, verify.
Exit codes: 0 success, 1 computational or validation error, 2 usage error.
Each handler returns its exit code, JSON payload and text and prints nothing;
``main`` renders the one the flags ask for and is the only place that prints
to stdout.
Output is deterministic for fixed inputs and seed.  The environment variable
MULT_FIXTURE_DIR overrides the fixture corpus location for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import MAX_EMAX, Context
from fractions import Fraction
from functools import partial
from typing import NoReturn

from .exact import QmultError, format_rational, series_coefficients
from .fixtures import run_corpus, run_property_suites
from .koszul import reduce_chain
from .lengths import LengthFunction, ModelError, from_series, read_json
from .multiplicity import (
    limit_estimate,
    multiplicity_neg,
    multiplicity_pos,
    serre_intersection,
    theta_invariant,
)
from .series import parse_series


# What a handler returns: (exit code, JSON payload, text).  ``main`` prints the
# text, or the payload as JSON under --json or when there is no text form.
Result = tuple[int, object, str | None]

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
    sub.add_argument("--expr", help="series expression; its tail is certified from the denominator")
    sub.add_argument("--d", type=_int, default=2, help="period (even, >= 2); used with --expr")
    sub.add_argument("--probe", type=_nonnegative_int, default=80, help="smallest core shown")
    sub.add_argument("--input", help="path to a length-function JSON file")


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with ``message`` under the full parser's usage line."""
    build_parser().error(message)


def _read_length_function(path: str) -> LengthFunction:
    try:
        return LengthFunction.from_json_dict(read_json(path))
    except ModelError as err:
        raise ModelError(f"{path}: {err}") from None


def _load_input(args: argparse.Namespace) -> LengthFunction:
    if (args.expr is None) == (args.input is None):
        _usage_error("provide exactly one of --expr or --input")
    if args.expr is not None:
        return from_series(parse_series(args.expr), args.d, args.probe)
    return _read_length_function(args.input)


def _cmd_expand(args) -> Result:
    coeffs = [format_rational(c) for c in series_coefficients(parse_series(args.expr), args.n)]
    return 0, {"expr": args.expr, "coefficients": coeffs}, " ".join(coeffs)


def _cmd_fit(args) -> Result:
    return 0, _load_input(args).to_json_dict(), None


def _cmd_cx(args) -> Result:
    return 0, None, str(_load_input(args).complexity(args.side))


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
    try:
        approx = f"{float(value):.6f}"
    except OverflowError:  # past 2^1024: seven digits of a Decimal, whose exponent is unbounded
        approx = f"{Context(prec=7, Emax=MAX_EMAX).divide(value.numerator, value.denominator):.6e}"
    return f"{format_rational(value)} (~ {approx})"


def _cmd_e(args, side: str) -> Result:
    lf = _load_input(args)
    compute = multiplicity_pos if side == "positive" else multiplicity_neg
    s = args.s if args.s is not None else lf.complexity(side)
    report = compute(lf, s)
    limits = {}
    if args.limit_n is not None:
        # The constants s! d^(2s-1) and s! d^s differ by the factor d^(s-1).
        paper = limit_estimate(lf, s, args.limit_n, "paper")
        limits = {"paper": paper, "corrected": paper / lf.d ** (s - 1)}
    # Only the requested form is built: the text formats every tail polynomial.
    if args.json:
        payload = report.to_json_dict()
        payload.update((f"limit_{c}", format_rational(v)) for c, v in limits.items())
        return 0, payload, None
    return 0, None, "\n".join(_report_lines(report, args.convention, lf.d, args.limit_n, limits))


def _cmd_koszul(args) -> Result:
    lf = _load_input(args)
    s = args.s if args.s is not None else lf.complexity(args.regime)
    return 0, reduce_chain(lf, s, args.regime).to_json_dict(), None


def _cmd_limit(args) -> Result:
    est = limit_estimate(_load_input(args), args.s, args.n, args.constant)
    payload = {"s": args.s, "n": args.n, "constant": args.constant, "estimate": format_rational(est)}
    return 0, payload, _approx(est)


def _cmd_theta(args) -> Result:
    value = theta_invariant(_read_length_function(args.input))
    return 0, {"theta": value}, str(value)


def _cmd_serre(args) -> Result:
    try:
        tor = [_int(part) for part in args.tor.split(",")]
    except argparse.ArgumentTypeError:
        _usage_error("--tor must be a comma-separated list of integers")
    value = serre_intersection(tor)
    return 0, {"serre": value}, str(value)


def _cmd_verify(args) -> Result:
    results = []
    if args.suite in ("paper", "all"):
        results += run_corpus()
    if args.suite in ("properties", "all"):
        results += run_property_suites(args.seed)
    results.sort(key=lambda r: r.key)
    failed = sum(not r.ok for r in results)
    payload = {
        "results": [{"name": r.key, "ok": r.ok, "detail": r.detail} for r in results],
        "passed": len(results) - failed,
        "failed": failed,
    }
    lines = [f"PASS {r.key}" if r.ok else f"FAIL {r.key} -- {r.detail}" for r in results]
    lines.append(f"passed {len(results) - failed} of {len(results)}")
    return 1 if failed else 0, payload, "\n".join(lines)


def _expand_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True, help="last coefficient index")
    p.add_argument("--json", action="store_true")


def _cx_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--side", choices=["positive", "negative"], default="positive")


def _report_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--s", type=_int, default=None, help="index (defaults to the complexity)")
    p.add_argument("--convention", choices=["delta", "coefficient", "both"], default="both")
    p.add_argument("--json", action="store_true")


def _e_flags(p: argparse.ArgumentParser) -> None:
    _report_flags(p)
    p.add_argument("--limit-n", type=_int, default=None, dest="limit_n")


def _e_neg_flags(p: argparse.ArgumentParser) -> None:
    _report_flags(p)
    p.set_defaults(limit_n=None)  # the limit estimate is positive-side only


def _koszul_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--s", type=_int, default=None)
    p.add_argument("--regime", choices=["positive", "negative"], default="positive")


def _limit_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--constant", choices=["paper", "corrected"], default="paper")
    p.add_argument("--json", action="store_true")


def _theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="homologically indexed length-function JSON")
    p.add_argument("--json", action="store_true")


def _serre_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tor", required=True, help="comma-separated lengths, degree 0 first")
    p.add_argument("--json", action="store_true")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=["paper", "properties", "all"], default="all")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--json", action="store_true")


# name -> (help, add_flags, handler), in the order the full parser lists them.
_COMMANDS = {
    "expand": ("expand a series expression", _expand_flags, _cmd_expand),
    "fit": ("fit a length function and print its JSON", _add_input_flags, _cmd_fit),
    "cx": ("complexity of a length function", _cx_flags, _cmd_cx),
    "e": ("positive multiplicity report", _e_flags, partial(_cmd_e, side="positive")),
    "e-neg": ("negative multiplicity report", _e_neg_flags, partial(_cmd_e, side="negative")),
    "koszul": ("iterated reduction chain as JSON", _koszul_flags, _cmd_koszul),
    "limit": ("finite-n limit estimate", _limit_flags, _cmd_limit),
    "theta": ("stabilized even/odd difference of Tor lengths", _theta_flags, _cmd_theta),
    "serre": ("alternating sum of Tor lengths", _serre_flags, _cmd_serre),
    "verify": ("run the fixture corpus and property suites", _verify_flags, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmult",
        description="Exact multiplicities of graded length functions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        add_flags(subs.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of the
    subcommand that ``argv[0]`` names.  That parser has the prog, flags and
    messages the full parser gives the subcommand; the full parser is built
    for everything else (no arguments, ``-h``, an unknown command, a leading
    ``--``) and to report leftover arguments."""
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    parser = argparse.ArgumentParser(prog=f"qmult {name}")
    _COMMANDS[name][1](parser)
    args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, text = _COMMANDS[args.command][2](args)
        as_json = text is None or getattr(args, "json", False)
        output = json.dumps(payload, indent=2) if as_json else text
    except (QmultError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # only the refusal to write too long an integer
        if "integer string conversion" not in str(err):
            raise
        # The output is rendered whole before it is printed: stdout is empty.
        limit = sys.get_int_max_str_digits()
        print(f"error: an output integer has more than {limit} digits", file=sys.stderr)
        return 1
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
