"""Fixture corpus and randomized property suites.

Fixtures ship as JSON files, one per worked example family, each holding a
list of cases.  A case names its input (a series expression to expand and
fit, an explicit length-function payload, or a homologically indexed list of
lengths) and a list of expected checks.  Every check carries a provenance tag:

* ``published`` - the value is stated in the source literature;
* ``derived``   - the value was computed with an independent oracle and frozen;
* ``trivial``   - the value is immediate from the definitions.

The runner executes every check; unknown check kinds, unknown fields,
missing provenance, integer fields that are not JSON integers, rational fields
that are not JSON integers or "p"/"p/q" strings, and values outside a field's
closed set (``side``, ``regime``, ``convention``, ``constant``, ``parity``)
are hard errors, so nothing can be skipped, coerced or read as a different
check silently.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable

from .differences import binomial_polynomial
from .exact import Polynomial, RationalFunction, parse_rational, series_coefficients
from .koszul import reduce_chain
from .lengths import (
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    _json_int,
    _json_list,
    _json_poly,
    _json_rational,
    fit_quasipoly,
    from_series,
)
from .multiplicity import (
    euler_characteristic,
    herbrand,
    limit_estimate,
    multiplicity_neg,
    multiplicity_pos,
    serre_intersection,
    theta_invariant,
    vanishing_window_check,
)
from .series import parse_series

PROVENANCE_TAGS = ("published", "derived", "trivial")

_COMMON_FIELDS = {"check", "provenance"}

CHECK_FIELDS = {
    "cx": {"value"},
    "cx_neg": {"value"},
    "multiplicity": {"side", "s", "convention", "value"},
    "g_table": {"side", "polys"},
    "leading": {"side", "s", "values"},
    "evaluate": {"n", "value"},
    "herbrand": {"n", "value"},
    "euler": {"value"},
    "shift_multiplicity": {"k", "s", "convention", "value"},
    "chain": {"regime", "s", "value"},
    "limit": {"s", "ns", "constant", "target", "max_error"},
    "theta": {"value"},
    "serre": {"tor", "value"},
    "window": {"m0", "parity", "result"},
}

CHECK_KINDS = tuple(sorted(CHECK_FIELDS))

_SOURCE_FIELDS = {"series", "length_function", "d", "probe"}

# Fields that hold a JSON integer, and fields that hold an array of them.
_INT_FIELDS = ("d", "probe", "value", "s", "n", "k", "m0")
_INT_ARRAY_FIELDS = ("ns", "tor")

# Rational fields of a check: scalars, an array, and an array of coefficient
# arrays.
_RATIONAL_FIELDS = ("target", "max_error")
_RATIONAL_ARRAY_FIELDS = ("values",)
_POLY_ARRAY_FIELDS = ("polys",)

# Fields that hold one of a closed set of strings.
_ENUM_FIELDS = {
    "side": ("positive", "negative"),
    "regime": ("positive", "negative"),
    "convention": ("delta", "coefficient", "both"),
    "constant": ("paper", "corrected"),
    "parity": ("even", "odd"),
}


class FixtureError(ValueError):
    """A fixture file is malformed."""


@dataclass(frozen=True)
class CheckResult:
    """One executed expectation."""

    suite: str
    fixture: str
    case: str
    check: str
    ok: bool
    detail: str

    @property
    def key(self) -> str:
        return f"{self.suite}/{self.fixture}/{self.case}/{self.check}"


def fixture_dir() -> Path:
    """Corpus location; the MULT_FIXTURE_DIR environment variable overrides."""
    override = os.environ.get("MULT_FIXTURE_DIR")
    if override:
        return Path(override)
    return Path(str(resources.files("qmult") / "fixtures"))


def load_corpus(directory: Path | None = None) -> list[dict]:
    base = directory if directory is not None else fixture_dir()
    files = sorted(Path(base).glob("*.json"))
    if not files:
        raise FixtureError(f"no fixture files in {base}")
    corpus = []
    for path in files:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError):
                raise
            except ValueError:  # an integer longer than the interpreter converts
                raise FixtureError(
                    f"{path.name}: a JSON integer has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
        _validate_fixture(data, path.name)
        corpus.append(data)
    return corpus


def _validate_fixture(data: object, where: str) -> None:
    _require(isinstance(data, dict), where, "fixture", "a JSON object", data)
    keys = set(data)
    if not {"name", "cases"} <= keys or keys - {"name", "d", "cases"}:
        raise FixtureError(f"{where}: fixture needs exactly name/[d]/cases, got {sorted(keys)}")
    _check_integers(data, where, "")
    _require(isinstance(data["cases"], list), where, "cases", "an array", data["cases"])
    for i, case in enumerate(data["cases"]):
        field = f"cases[{i}]"
        _require(isinstance(case, dict), where, field, "a JSON object", case)
        case_keys = set(case)
        allowed = {"label", "source", "expected"}
        if not {"label", "expected"} <= case_keys or case_keys - allowed:
            raise FixtureError(f"{where}: case needs label/[source]/expected, got {sorted(case_keys)}")
        source = case.get("source")
        if source is not None:
            _require(isinstance(source, dict), where, f"{field}.source", "a JSON object", source)
            series = source.get("series", "")
            _require(isinstance(series, str), where, f"{field}.source.series", "a string", series)
            unknown = set(source) - _SOURCE_FIELDS
            if unknown:
                raise FixtureError(f"{where}: unknown keys {sorted(unknown)} in {field}.source")
            _check_integers(source, where, f"{field}.source.")
        expected = case["expected"]
        _require(isinstance(expected, list), where, f"{field}.expected", "an array", expected)
        for j, check in enumerate(expected):
            _require(
                isinstance(check, dict), where, f"{field}.expected[{j}]", "a JSON object", check
            )
            kind = check.get("check")
            if not isinstance(kind, str) or kind not in CHECK_FIELDS:
                raise FixtureError(f"{where}: unknown check kind {kind!r}")
            if check.get("provenance") not in PROVENANCE_TAGS:
                raise FixtureError(
                    f"{where}: check {kind!r} needs a provenance tag from {PROVENANCE_TAGS}"
                )
            unknown = set(check) - _COMMON_FIELDS - CHECK_FIELDS[kind]
            if unknown:
                raise FixtureError(
                    f"{where}: unknown keys {sorted(unknown)} in check {kind!r}"
                )
            _check_integers(check, where, f"{field}.expected[{j}].")
            _check_rationals(check, where, f"{field}.expected[{j}].")
            for key, allowed in _ENUM_FIELDS.items():
                if key in check:
                    _require(
                        check[key] in allowed,
                        where,
                        f"{field}.expected[{j}].{key}",
                        f"one of {allowed}",
                        check[key],
                    )


def _require(ok: bool, where: str, field: str, what: str, value: object) -> None:
    if not ok:
        raise FixtureError(f"{where}: {field} must be {what}, got {value!r}")


def _check_integers(obj: dict, where: str, prefix: str) -> None:
    """Integer fields must be JSON integers; bools, floats and strings are
    rejected rather than coerced, as in length-function JSON."""
    try:
        for key in _INT_FIELDS:
            if key in obj:
                _json_int(obj[key], prefix + key)
        for key in _INT_ARRAY_FIELDS:
            if key in obj:
                for i, v in enumerate(_json_list(obj[key], prefix + key)):
                    _json_int(v, f"{prefix}{key}[{i}]")
    except ModelError as err:
        raise FixtureError(f"{where}: {err}") from None


def _check_rationals(obj: dict, where: str, prefix: str) -> None:
    """Rational fields follow the length-function JSON grammar."""
    try:
        for key in _RATIONAL_FIELDS:
            if key in obj:
                _json_rational(obj[key], prefix + key)
        for key in _RATIONAL_ARRAY_FIELDS:
            if key in obj:
                for i, v in enumerate(_json_list(obj[key], prefix + key)):
                    _json_rational(v, f"{prefix}{key}[{i}]")
        for key in _POLY_ARRAY_FIELDS:
            if key in obj:
                for i, p in enumerate(_json_list(obj[key], prefix + key)):
                    _json_poly(p, f"{prefix}{key}[{i}]")
    except ModelError as err:
        raise FixtureError(f"{where}: {err}") from None


def _case_input(fixture: dict, case: dict) -> LengthFunction | None:
    source = case.get("source")
    if source is None:
        return None
    kinds = set(source) & {"series", "length_function"}
    if len(kinds) != 1:
        raise FixtureError(f"source must have exactly one of series/length_function: {source}")
    if "series" in source:
        d = source.get("d", fixture.get("d", 2))
        return from_series(parse_series(source["series"]), d, source.get("probe", 80))
    return LengthFunction.from_json_dict(source["length_function"])


def _run_check(lf: LengthFunction | None, check: dict) -> tuple[bool, str]:
    kind = check["check"]
    if kind == "serre":
        got = serre_intersection(check["tor"])
        return got == check["value"], f"serre={got}, want {check['value']}"
    assert lf is not None, f"check {kind} needs a case source"
    if kind == "cx":
        got = lf.complexity("positive")
        return got == check["value"], f"cx={got}, want {check['value']}"
    if kind == "cx_neg":
        got = lf.complexity("negative")
        return got == check["value"], f"cx_neg={got}, want {check['value']}"
    if kind in ("multiplicity", "shift_multiplicity"):
        if kind == "multiplicity":
            side = check.get("side", "positive")
            report = (multiplicity_pos if side == "positive" else multiplicity_neg)(lf, check["s"])
            shown = ""
        else:
            report = multiplicity_pos(lf.shift(check["k"]), check["s"])
            shown = "shifted "
        conv = check.get("convention", "both")
        want = check["value"]
        if conv in ("delta", "coefficient"):
            got = report.e_delta if conv == "delta" else report.e_coeff
            return got == want, f"{shown}e_{conv}={got}, want {want}"
        ok = report.e_delta == want and report.e_coeff == want
        return ok, f"{shown}e_delta={report.e_delta}, e_coeff={report.e_coeff}, want both {want}"
    if kind in ("g_table", "leading"):
        qp = lf.tail(check.get("side", "positive"))
        polys = qp.polys if qp is not None else (Polynomial(),) * lf.d
        if kind == "g_table":
            want = [Polynomial.from_json(p) for p in check["polys"]]
            got = list(polys)
            return got == want, f"g table {[str(p) for p in got]}, want {[str(p) for p in want]}"
        got = [p.coefficient(check["s"] - 1) for p in polys]
        want = [parse_rational(str(v)) for v in check["values"]]
        return got == want, f"leading {got}, want {want}"
    if kind == "evaluate":
        got = lf(check["n"])
        return got == check["value"], f"lambda({check['n']})={got}, want {check['value']}"
    if kind == "herbrand":
        got = herbrand(lf, check["n"])
        return got == check["value"], f"h({check['n']})={got}, want {check['value']}"
    if kind == "euler":
        got = euler_characteristic(lf)
        return got == check["value"], f"euler={got}, want {check['value']}"
    if kind == "chain":
        regime = check.get("regime", "positive")
        chain = reduce_chain(lf, check["s"], regime)
        want = check["value"]
        values_ok = all(v == want for v in chain.invariant_values)
        cxs = [f.complexity(regime) for f in chain.functions]
        drop_ok = all(
            cxs[i + 1] == max(cxs[i] - 1, 0) for i in range(len(cxs) - 1)
        )
        ok = values_ok and drop_ok
        return ok, f"chain values {chain.invariant_values} (want {want}), cx {cxs}"
    if kind == "limit":
        target = parse_rational(str(check["target"]))
        max_error = parse_rational(str(check["max_error"]))
        errors = []
        for n in check["ns"]:
            got = limit_estimate(lf, check["s"], n, check["constant"])
            errors.append(abs(got - target))
        monotone = all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))
        ok = monotone and errors[-1] < max_error
        shown = [f"{float(e):.3g}" for e in errors]
        return ok, f"errors {shown} (monotone={monotone}, final<{max_error})"
    if kind == "theta":
        got = theta_invariant(lf)
        return got == check["value"], f"theta={got}, want {check['value']}"
    if kind == "window":
        result = vanishing_window_check(lf, check["m0"], check["parity"])
        return result.status == check["result"], f"window {result.status}, want {check['result']}"
    raise FixtureError(f"unknown check kind {kind!r}")


def run_corpus(directory: Path | None = None) -> list[CheckResult]:
    """Execute every expectation in the fixture corpus."""
    results: list[CheckResult] = []
    for fixture in load_corpus(directory):
        for case in fixture["cases"]:
            lf = _case_input(fixture, case)
            for check in case["expected"]:
                try:
                    ok, detail = _run_check(lf, check)
                except Exception as err:  # a crash is a failure, not an abort
                    ok, detail = False, f"error: {err}"
                results.append(
                    CheckResult(
                        "paper", fixture["name"], case["label"], _check_label(check), ok, detail
                    )
                )
    results.sort(key=lambda r: r.key)
    return results


def _check_label(check: dict) -> str:
    kind = check["check"]
    extras = []
    for key in ("side", "s", "convention", "n", "k", "regime", "constant", "m0", "parity"):
        if key in check:
            extras.append(f"{key}={check[key]}")
    return kind if not extras else f"{kind}({','.join(extras)})"


# -- randomized property suites ----------------------------------------------


def random_polynomial(rng: random.Random, max_degree: int = 5) -> Polynomial:
    """Random rational-coefficient polynomial, degree <= max_degree (possibly 0)."""
    degree = rng.randint(-1, max_degree)
    if degree < 0:
        return Polynomial()
    coeffs = [
        Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(degree + 1)
    ]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Polynomial(tuple(coeffs))


def random_length_function(
    rng: random.Random,
    d: int | None = None,
    min_cx: int = 0,
    max_degree: int = 3,
) -> LengthFunction:
    """Random valid length function: vanishing below, quasi-polynomial above.

    Tail polynomials are drawn in the binomial basis with nonnegative integer
    coefficients, so values are automatically nonnegative integers on every
    block index >= 0.
    """
    d = d if d is not None else rng.choice([2, 4])
    while True:
        polys = []
        for _ in range(d):
            degree = rng.randint(-1, max_degree)
            acc = Polynomial()
            for k in range(degree + 1):
                acc = acc + binomial_polynomial(k) * rng.randint(0, 4)
            polys.append(acc)
        max_deg = max(p.degree for p in polys)
        if max_deg + 1 >= min_cx:
            break
    if max_deg == -1:
        lo = -rng.randint(0, 3)
        width = rng.randint(1, 6)
        values = [rng.randint(0, 6) for _ in range(width)]
        return LengthFunction(d, lo, tuple(values) + (0,), None, None)
    valid_from = d * rng.randint(0, 2)
    qp = QuasiPolynomial(d, tuple(polys), valid_from)
    lo = -rng.randint(0, 3)
    hi = valid_from + d * (max_deg + 2) + d * rng.randint(0, 2)
    values = [
        rng.randint(0, 6) if n < valid_from else int(qp(n)) for n in range(lo, hi + 1)
    ]
    return LengthFunction(d, lo, tuple(values), qp, None)


def _suite(
    name: str, cases: Iterable[tuple[str, bool, str]]
) -> list[CheckResult]:
    return [
        CheckResult("properties", name, label, "property", ok, detail)
        for label, ok, detail in cases
    ]


def run_property_suites(seed: int, cases: int = 200) -> list[CheckResult]:
    """The seeded randomized invariants; deterministic for a fixed seed."""
    results: list[CheckResult] = []

    rng = random.Random(seed)
    out = []
    for k in range(cases):
        d = rng.choice([2, 4])
        polys = tuple(random_polynomial(rng) for _ in range(d))
        samples = {
            d * m + i: polys[i](m) for m in range(0, 16) for i in range(d)
        }
        fitted = fit_quasipoly(samples, d)
        ok = fitted.polys == polys and fitted.valid_from == 0
        out.append((f"case{k:03d}", ok, f"d={d}"))
    results += _suite("fit_roundtrip", out)

    rng = random.Random(seed + 1)
    out = []
    for k in range(cases):
        p = random_polynomial(rng)
        while True:
            q = random_polynomial(rng)
            if q.coefficient(0) != 0:
                break
        n_max = rng.randint(0, 200)
        f = RationalFunction(p, q)
        coeffs = series_coefficients(f, n_max)
        product = Polynomial(tuple(coeffs)) * f.den
        ok = all(product.coefficient(j) == f.num.coefficient(j) for j in range(n_max + 1))
        out.append((f"case{k:03d}", ok, f"n_max={n_max}"))
    results += _suite("series_remultiply", out)

    rng = random.Random(seed + 2)
    out = []
    for k in range(cases):
        if k % 4 == 0:
            lf = random_length_function(rng, min_cx=0)
            if lf.complexity() == 0:
                want = -euler_characteristic(lf)
                got = euler_characteristic(lf.shift(1))
                ok = got == want
                out.append((f"case{k:03d}", ok, "euler shift"))
                continue
        lf = random_length_function(rng, min_cx=1)
        s = lf.complexity() + rng.randint(0, 1)
        base = multiplicity_pos(lf, s)
        shifted = multiplicity_pos(lf.shift(1), s)
        period = multiplicity_pos(lf.shift(lf.d), s)
        ok = (
            shifted.e_delta == -base.e_delta
            and shifted.e_coeff == -base.e_coeff
            and period.e_delta == base.e_delta
        )
        out.append((f"case{k:03d}", ok, f"s={s}"))
    results += _suite("shift_alternation", out)

    rng = random.Random(seed + 3)
    out = []
    for k in range(cases):
        lf = random_length_function(rng)
        cx = lf.complexity()
        r1 = multiplicity_pos(lf, cx + 1)
        r2 = multiplicity_pos(lf, cx + 2)
        ok = r1.e_delta == r1.e_coeff == r2.e_delta == r2.e_coeff == 0
        out.append((f"case{k:03d}", ok, f"cx={cx}"))
    results += _suite("vanishing_above_complexity", out)

    rng = random.Random(seed + 4)
    out = []
    for k in range(cases):
        lf = random_length_function(rng, min_cx=1)
        s = lf.complexity() + rng.randint(0, 1)
        report = multiplicity_pos(lf, s)
        ok = report.e_coeff == lf.d ** (s - 1) * report.e_delta
        out.append((f"case{k:03d}", ok, f"d={lf.d}, s={s}"))
    results += _suite("convention_bridge", out)

    rng = random.Random(seed + 5)
    out = []
    for k in range(100):
        d = rng.choice([2, 4])
        a = random_length_function(rng, d=d)
        b = random_length_function(rng, d=d)
        s = max(a.complexity(), b.complexity(), 1)
        total = multiplicity_pos(a + b, s)
        ra, rb = multiplicity_pos(a, s), multiplicity_pos(b, s)
        ok = (
            total.e_delta == ra.e_delta + rb.e_delta
            and total.e_coeff == ra.e_coeff + rb.e_coeff
        )
        out.append((f"case{k:03d}", ok, f"d={d}, s={s}"))
    results += _suite("split_additivity", out)

    rng = random.Random(seed + 6)
    out = []
    for k in range(100):
        g = random_length_function(rng, d=rng.choice([2, 4, 6]), min_cx=1)
        s = g.complexity() + rng.randint(0, 1)
        pos = multiplicity_pos(g, s)
        neg = multiplicity_neg(g.reflect(), s)
        ok = neg.e_delta == pos.e_delta and neg.e_coeff == (-1) ** (s - 1) * pos.e_coeff
        out.append((f"case{k:03d}", ok, f"d={g.d}, s={s}"))
    results += _suite("reflection_duality", out)

    results.sort(key=lambda r: r.key)
    return results
