"""Command-line interface.

Subcommands: expand, fit, cx, e, e-neg, koszul, limit, theta, serre, verify.
Exit codes: 0 success, 1 computational or validation error, 2 usage error.
Each subcommand declares its flags once, in a table.  An argv with every
option spelled in full is read straight from that table; anything else (help
requests, errors, abbreviated or ``--flag=value`` forms) goes to the one
argparse parser built from it, which takes about 2 ms to build.
Each handler returns its exit code, JSON payload and text and prints nothing;
``main`` renders the one the flags ask for and is the only place that prints
to stdout.
JSON is written by ``_dumps`` in the format of ``json.dumps(..., indent=2)``,
byte for byte: one pass appends the text's chunks to one list, which is
joined once, and each array of scalars is written by one call of the C
encoder of the ``json`` module.
Output is deterministic for fixed inputs and seed.  The environment variable
MULT_FIXTURE_DIR overrides the fixture corpus location for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii as _encode
from typing import NoReturn

from .exact import QmultError, format_rational, series_coefficients
from .fixtures import run_corpus, run_property_suites
from .koszul import reduce_chain
from .lengths import LengthFunction, ModelError, from_series, read_json
from .multiplicity import (
    approximate,
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
    return f"{format_rational(value)} (~ {approximate(value, '.6f')})"


def _cmd_e(args, side: str) -> Result:
    lf = _load_input(args)
    compute = multiplicity_pos if side == "positive" else multiplicity_neg
    report = compute(lf, args.s)
    s = report.s
    limits = {}
    limit_n = getattr(args, "limit_n", None)  # e-neg has no --limit-n: the estimate is positive-side only
    if limit_n is not None:
        # The constants s! d^(2s-1) and s! d^s differ by the factor d^(s-1).
        paper = limit_estimate(lf, s, limit_n, "paper")
        limits = {"paper": paper, "corrected": paper / lf.d ** (s - 1)}
    # Only the requested form is built: the text formats every tail polynomial.
    if args.json:
        payload = report.to_json_dict()
        payload.update((f"limit_{c}", format_rational(v)) for c, v in limits.items())
        return 0, payload, None
    return 0, None, "\n".join(_report_lines(report, args.convention, lf.d, limit_n, limits))


def _cmd_koszul(args) -> Result:
    return 0, reduce_chain(_load_input(args), args.s, args.regime).to_json_dict(), None


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
    code = 1 if failed else 0
    # Only the requested form is built, as in _cmd_e.
    if args.json:
        payload = {
            "results": [{"name": r.key, "ok": r.ok, "detail": r.detail} for r in results],
            "passed": len(results) - failed,
            "failed": failed,
        }
        return code, payload, None
    lines = [f"PASS {r.key}" if r.ok else f"FAIL {r.key} -- {r.detail}" for r in results]
    lines.append(f"passed {len(results) - failed} of {len(results)}")
    return code, None, "\n".join(lines)


# Each subcommand's flags, in --help order: (option, add_argument keywords).
# The parser is built from these tables and _quick_parse reads a fully spelled
# argv from them.
_INPUT_FLAGS = (
    ("--expr", {"help": "series expression; its tail is certified from the denominator"}),
    ("--d", {"type": _int, "default": 2, "help": "period (even, >= 2); used with --expr"}),
    ("--probe", {"type": _nonnegative_int, "default": 80, "help": "smallest core shown"}),
    ("--input", {"help": "path to a length-function JSON file"}),
)
_JSON_FLAG = ("--json", {"action": "store_true"})
_REPORT_FLAGS = (
    *_INPUT_FLAGS,
    ("--s", {"type": _int, "default": None, "help": "index (defaults to the complexity)"}),
    ("--convention", {"choices": ["delta", "coefficient", "both"], "default": "both"}),
    _JSON_FLAG,
)
_SIDE = {"choices": ["positive", "negative"], "default": "positive"}
_EXPAND_FLAGS = (
    ("--expr", {"required": True}),
    ("--n", {"type": _nonnegative_int, "required": True, "help": "last coefficient index"}),
    _JSON_FLAG,
)
_E_FLAGS = (*_REPORT_FLAGS, ("--limit-n", {"type": _int, "default": None, "dest": "limit_n"}))
_KOSZUL_FLAGS = (*_INPUT_FLAGS, ("--s", {"type": _int, "default": None}), ("--regime", _SIDE))
_LIMIT_FLAGS = (
    *_INPUT_FLAGS,
    ("--s", {"type": _int, "required": True}),
    ("--n", {"type": _int, "required": True}),
    ("--constant", {"choices": ["paper", "corrected"], "default": "paper"}),
    _JSON_FLAG,
)
_THETA_FLAGS = (("--input", {"required": True, "help": "homologically indexed length-function JSON"}), _JSON_FLAG)
_SERRE_FLAGS = (("--tor", {"required": True, "help": "comma-separated lengths, degree 0 first"}), _JSON_FLAG)
_VERIFY_FLAGS = (
    ("--suite", {"choices": ["paper", "properties", "all"], "default": "all"}),
    ("--seed", {"type": _int, "default": 0}),
    _JSON_FLAG,
)

# name -> (help, flags, handler), in the order the full parser lists them.
_COMMANDS = {
    "expand": ("expand a series expression", _EXPAND_FLAGS, _cmd_expand),
    "fit": ("fit a length function and print its JSON", _INPUT_FLAGS, _cmd_fit),
    "cx": ("complexity of a length function", (*_INPUT_FLAGS, ("--side", _SIDE)), _cmd_cx),
    "e": ("positive multiplicity report", _E_FLAGS, partial(_cmd_e, side="positive")),
    "e-neg": ("negative multiplicity report", _REPORT_FLAGS, partial(_cmd_e, side="negative")),
    "koszul": ("iterated reduction chain as JSON", _KOSZUL_FLAGS, _cmd_koszul),
    "limit": ("finite-n limit estimate", _LIMIT_FLAGS, _cmd_limit),
    "theta": ("stabilized even/odd difference of Tor lengths", _THETA_FLAGS, _cmd_theta),
    "serre": ("alternating sum of Tor lengths", _SERRE_FLAGS, _cmd_serre),
    "verify": ("run the fixture corpus and property suites", _VERIFY_FLAGS, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmult",
        description="Exact multiplicities of graded length functions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for option, keywords in flags:
            sub.add_argument(option, **keywords)
    return parser


def _quick_parse(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace ``build_parser().parse_args([name, *tokens])`` returns when
    each token is a flag of ``name`` spelled in full, followed by its value
    unless the flag is a switch.  None for any other form, which is left to
    argparse: an abbreviation, ``--flag=value``, ``--``, ``-h``, a stray word,
    a missing value, a value that starts with '-' or that the flag's type or
    choices refuse, or a required flag left out."""
    args, flags = {"command": name}, {}
    for option, keywords in _COMMANDS[name][1]:
        dest = keywords.get("dest", option[2:])
        flags[option] = dest, keywords
        args[dest] = keywords.get("default", False if "action" in keywords else None)
    required = {dest for dest, keywords in flags.values() if keywords.get("required")}
    rest = iter(tokens)
    for token in rest:
        if token not in flags:
            return None
        dest, keywords = flags[token]
        required.discard(dest)
        if "action" in keywords:  # store_true
            args[dest] = True
            continue
        value = next(rest, "-")  # a missing value is left to argparse, as is a leading '-'
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[dest] = value
    return None if required else argparse.Namespace(**args)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``.  When ``argv[0]`` names a subcommand
    and every flag after it is spelled in full, the Namespace is read from the
    flag table and no parser is built.  Anything else (help, every error,
    abbreviations, ``--flag=value``, an argv without a subcommand first) goes
    to the full parser, built for that call in about 2 ms."""
    if argv and argv[0] in _COMMANDS:
        quick = _quick_parse(argv[0], argv[1:])
        if quick is not None:
            return quick
    return build_parser().parse_args(argv)


# An array whose items all have one of these exact types is written by one
# call of the json module's C encoder, made without an indent and with the
# item separator "," + the items' indent; the brackets it writes are cut off.
# A tuple or a subclass would be written compactly by it, so such an array is
# written item by item.  One encoder per indent: the cache holds one entry per
# nesting depth.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_ARRAY_ENCODERS: dict[str, object] = {}


def _write(value: object, indent: str, out: list[str]) -> None:
    """Append the chunks of ``value``'s JSON text, at the level ``indent``, to
    ``out``.  Lists, dicts with str keys, str, int, bool and None are written
    here; any other value goes to ``json.dumps(value, indent=2)``, indented
    to its level."""
    kind = type(value)
    if kind is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if _SCALARS.issuperset(map(type, value)):  # one C call over all of it
            encoder = _ARRAY_ENCODERS.get(inner)
            if encoder is None:
                encoder = _ARRAY_ENCODERS[inner] = c_make_encoder(
                    None, None, _encode, None, ": ", "," + inner, False, False, True
                )
            out.append("[" + inner + "".join(encoder(value, 0))[1:-1] + indent + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = comma
        out.append(indent + "]")
    elif kind is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for k, item in value.items():
            out.append(sep + _encode(k) + ": ")
            kind = type(item)
            if kind is str:
                out.append(_encode(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write(item, inner, out)
            sep = comma
        out.append(indent + "}")
    elif kind is str:
        out.append(_encode(value))
    elif kind is int:
        out.append(int.__repr__(value))  # the ValueError json.dumps raises past the digit limit
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", indent))


def _dumps(value: object) -> str:
    """``json.dumps(value, indent=2)``, byte for byte.  ``_write`` appends the
    text's chunks to one list, which is joined once; each array of scalars is
    one chunk, written by one C encoder call.  An integer past the digit
    limit raises the ValueError json.dumps raises, on either path."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, text = _COMMANDS[args.command][2](args)
        as_json = text is None or getattr(args, "json", False)
        output = _dumps(payload) if as_json else text
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
