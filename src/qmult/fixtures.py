"""Fixture corpus and randomized property suites.

Fixtures ship as JSON files, one per worked example family, each holding a
list of cases.  A case names its input (a series expression, its tail certified
from the denominator, or a length-function payload) and the expected checks.
Every check carries a provenance tag:

* ``published`` - the value is stated in the source literature;
* ``derived``   - the value was computed with an independent oracle and frozen;
* ``trivial``   - the value is immediate from the definitions.

Each file is parsed once, when the corpus loads, by the JSON readers of
:mod:`qmult.lengths` with the field parsers of ``_PARSERS``; a check's kind in
``CHECKS`` picks its fields.  Unknown kinds, unknown or missing fields,
malformed values, values outside a closed set and a check needing a source in
a case without one are a :class:`FixtureError` naming the file and the field
path, so nothing is skipped, coerced or misread.  A check that raises, or
whose series is refused, fails and never aborts the run.  The randomized
property suites run from one table, ``PROPERTIES``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from .differences import binomial_polynomial
from .exact import Polynomial, QmultError, RationalFunction, series_coefficients
from .koszul import reduce_chain
from .lengths import (
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    _array_of,
    _got,
    _json_int,
    _json_list,
    _json_object,
    _json_poly,
    _json_rational,
    _one_of,
    fit_quasipoly,
    from_series,
    read_json,
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
from .series import SeriesSemanticError, SeriesSyntaxError, parse_series

PROVENANCE_TAGS = ("published", "derived", "trivial")


def _json_str(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise ModelError(f"{field} must be a string, got {_got(value)}")
    return value


def _series(value: object, field: str) -> RationalFunction:
    try:
        return parse_series(_json_str(value, field))
    except (SeriesSyntaxError, SeriesSemanticError) as err:
        raise ModelError(f"{field}: {err}") from None


def _length_function(value: object, field: str) -> LengthFunction:
    try:
        return LengthFunction.from_json_dict(value)
    except ModelError as err:
        raise ModelError(f"{field}: {err}") from None


# field -> parser(JSON value, field name) -> typed value; errors name the field.
_PARSERS = {
    "series": _series,
    "length_function": _length_function,
    **dict.fromkeys(("d", "probe", "value", "s", "n", "k", "m0"), _json_int),
    "ns": _array_of(_json_int, nonempty=True),
    "tor": _array_of(_json_int),
    "target": _json_rational,
    "max_error": _json_rational,
    "values": _array_of(_json_rational),
    "polys": _array_of(_json_poly),
    "side": _one_of("positive", "negative"),
    "regime": _one_of("positive", "negative"),
    "convention": _one_of("delta", "coefficient", "both"),
    "constant": _one_of("paper", "corrected"),
    "parity": _one_of("even", "odd"),
    "result": _one_of("confirmed", "window_not_found", "violated"),
}

_SOURCE = {key: _PARSERS[key] for key in ("series", "length_function", "d", "probe")}


def _equals(name: str, got: object, c: dict) -> tuple[bool, str]:
    return got == c["value"], f"{name}={got}, want {c['value']}"


def _multiplicity(report, c: dict, shown: str = "") -> tuple[bool, str]:
    conv, want = c["convention"], c["value"]
    if conv in ("delta", "coefficient"):
        got = report.e_delta if conv == "delta" else report.e_coeff
        return got == want, f"{shown}e_{conv}={got}, want {want}"
    ok = report.e_delta == want and report.e_coeff == want
    return ok, f"{shown}e_delta={report.e_delta}, e_coeff={report.e_coeff}, want both {want}"


def _tail_polys(lf: LengthFunction, side: str) -> list[Polynomial]:
    qp = lf.tail(side)
    return list(qp.polys) if qp is not None else [Polynomial()] * lf.d


def _g_table(lf: LengthFunction, c: dict) -> tuple[bool, str]:
    got, want = _tail_polys(lf, c["side"]), c["polys"]
    return got == want, f"g table {[str(p) for p in got]}, want {[str(p) for p in want]}"


def _leading(lf: LengthFunction, c: dict) -> tuple[bool, str]:
    got = [p.coefficient(c["s"] - 1) for p in _tail_polys(lf, c["side"])]
    return got == c["values"], f"leading {got}, want {c['values']}"


def _chain(lf: LengthFunction, c: dict) -> tuple[bool, str]:
    chain = reduce_chain(lf, c["s"], c["regime"])
    values_ok = all(v == c["value"] for v in chain.invariant_values)
    cxs = [f.complexity(c["regime"]) for f in chain.functions]
    drop_ok = all(cxs[i + 1] == max(cxs[i] - 1, 0) for i in range(len(cxs) - 1))
    ok = values_ok and drop_ok
    return ok, f"chain values {chain.invariant_values} (want {c['value']}), cx {cxs}"


def _limit(lf: LengthFunction, c: dict) -> tuple[bool, str]:
    errors = [abs(limit_estimate(lf, c["s"], n, c["constant"]) - c["target"]) for n in c["ns"]]
    monotone = all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))
    ok = monotone and errors[-1] < c["max_error"]
    shown = [f"{float(e):.3g}" for e in errors]
    return ok, f"errors {shown} (monotone={monotone}, final<{c['max_error']})"


def _window(lf: LengthFunction, c: dict) -> tuple[bool, str]:
    status = vanishing_window_check(lf, c["m0"], c["parity"]).status
    return status == c["result"], f"window {status}, want {c['result']}"


class _Kind(NamedTuple):
    """Required fields, the defaults of the optional ones, and the runner:
    (length function, or None without a source; fields) -> (ok, detail)."""

    required: tuple[str, ...]
    defaults: dict[str, str]
    run: Callable[[LengthFunction | None, dict], tuple[bool, str]]
    needs_source: bool = True


CHECKS = {
    "cx": _Kind(("value",), {}, lambda lf, c: _equals("cx", lf.complexity("positive"), c)),
    "cx_neg": _Kind(("value",), {}, lambda lf, c: _equals("cx_neg", lf.complexity("negative"), c)),
    "multiplicity": _Kind(
        ("s", "value"),
        {"side": "positive", "convention": "both"},
        lambda lf, c: _multiplicity(
            (multiplicity_pos if c["side"] == "positive" else multiplicity_neg)(lf, c["s"]), c
        ),
    ),
    "g_table": _Kind(("polys",), {"side": "positive"}, _g_table),
    "leading": _Kind(("s", "values"), {"side": "positive"}, _leading),
    "evaluate": _Kind(
        ("n", "value"), {}, lambda lf, c: _equals(f"lambda({c['n']})", lf(c["n"]), c)
    ),
    "herbrand": _Kind(
        ("n", "value"), {}, lambda lf, c: _equals(f"h({c['n']})", herbrand(lf, c["n"]), c)
    ),
    "euler": _Kind(("value",), {}, lambda lf, c: _equals("euler", euler_characteristic(lf), c)),
    "shift_multiplicity": _Kind(
        ("k", "s", "value"),
        {"convention": "both"},
        lambda lf, c: _multiplicity(multiplicity_pos(lf.shift(c["k"]), c["s"]), c, "shifted "),
    ),
    "chain": _Kind(("s", "value"), {"regime": "positive"}, _chain),
    "limit": _Kind(("s", "ns", "constant", "target", "max_error"), {}, _limit),
    "theta": _Kind(("value",), {}, lambda lf, c: _equals("theta", theta_invariant(lf), c)),
    "serre": _Kind(
        ("tor", "value"),
        {},
        lambda lf, c: _equals("serre", serre_intersection(c["tor"]), c),
        needs_source=False,
    ),
    "window": _Kind(("m0", "parity", "result"), {}, _window),
}

# A check's kind and provenance tag are fields too.
_PARSERS.update(check=_one_of(*CHECKS), provenance=_one_of(*PROVENANCE_TAGS))


class FixtureError(QmultError):
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
    """The parsed fixtures.  A case's source is None, a LengthFunction or a
    series ``(RationalFunction, d, probe)``; a check holds the typed values of
    the fields in the file."""
    base = directory if directory is not None else fixture_dir()
    files = sorted(Path(base).glob("*.json"))
    if not files:
        raise FixtureError(f"no fixture files in {base}")
    corpus = []
    for path in files:
        try:
            corpus.append(_parse_fixture(read_json(path)))
        except ModelError as err:
            raise FixtureError(f"{path.name}: {err}") from None
    return corpus


def _parse_fixture(data: object) -> dict:
    parsers = {"name": _json_str, "d": _json_int, "cases": _json_list}
    fixture = _json_object(data, "", parsers, ("name", "cases"), what="fixture")
    # A case's source reads the fixture's d, which may come after the cases.
    parse_case = partial(_parse_case, d=fixture.get("d", 2))
    return {"name": fixture["name"], "cases": _array_of(parse_case)(fixture["cases"], "cases")}


def _parse_case(case: object, field: str, d: int) -> dict:
    parsers = {"label": _json_str, "source": partial(_parse_source, d=d)}
    parsers["expected"] = _array_of(_parse_check)
    parsed = _json_object(case, field, parsers, ("label", "expected"))
    source = parsed.get("source")
    for j, check in enumerate(parsed["expected"]):
        if source is None and CHECKS[check["check"]].needs_source:
            raise ModelError(f"{field}.expected[{j}]: check {check['check']!r} needs a case source")
    return {"label": parsed["label"], "source": source, "expected": parsed["expected"]}


def _parse_source(source: object, field: str, d: int) -> LengthFunction | tuple | None:
    if source is None:  # a null source is the same as none
        return None
    parsed = _json_object(source, field, _SOURCE, ())
    if ("series" in parsed) == ("length_function" in parsed):
        raise ModelError(
            f"{field} must have exactly one of series/length_function, got {sorted(source)}"
        )
    if "series" in parsed:
        return parsed["series"], parsed.get("d", d), parsed.get("probe", 80)
    stray = parsed.keys() - {"length_function"}  # d and probe only shape a series
    if stray:
        raise ModelError(f"unknown fields in {field}: {sorted(stray)}")
    return parsed["length_function"]


def _parse_check(check: object, field: str) -> dict:
    """A check's fields, typed; its kind picks the parsers.  With no known
    kind every field parser applies, so the "check" field reports the kind."""
    kind = check.get("check") if isinstance(check, dict) else None
    spec = CHECKS.get(kind) if isinstance(kind, str) else None
    required = ("check", "provenance", *(() if spec is None else spec.required))
    keys = _PARSERS if spec is None else (*required, *spec.defaults)
    return _json_object(check, field, {key: _PARSERS[key] for key in keys}, required)


def run_corpus(directory: Path | None = None) -> list[CheckResult]:
    """Execute every expectation in the fixture corpus."""
    results: list[CheckResult] = []
    for fixture in load_corpus(directory):
        for case in fixture["cases"]:
            lf = case["source"]
            for check in case["expected"]:
                spec = CHECKS[check["check"]]
                try:
                    # A series is expanded and certified at the first check of
                    # its case; if it is refused, each check retries and fails.
                    if isinstance(lf, tuple):
                        lf = from_series(*lf)
                    ok, detail = spec.run(lf, {**spec.defaults, **check})
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


def random_polynomial(rng: random.Random) -> Polynomial:
    """Random rational-coefficient polynomial of degree at most 5, possibly zero."""
    degree = rng.randint(-1, 5)
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
) -> LengthFunction:
    """Random valid length function: vanishing below, quasi-polynomial above.

    Tail polynomials of degree at most 3 are drawn in the binomial basis with
    nonnegative integer coefficients, so values are automatically nonnegative
    integers on every block index >= 0.
    """
    d = d if d is not None else rng.choice([2, 4])
    while True:
        polys = []
        for _ in range(d):
            degree = rng.randint(-1, 3)
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


def _fit_roundtrip(rng: random.Random, k: int) -> tuple[bool, str]:
    d = rng.choice([2, 4])
    polys = tuple(random_polynomial(rng) for _ in range(d))
    samples = {d * m + i: polys[i](m) for m in range(0, 16) for i in range(d)}
    fitted = fit_quasipoly(samples, d)
    return fitted.polys == polys and fitted.valid_from == 0, f"d={d}"


def _series_remultiply(rng: random.Random, k: int) -> tuple[bool, str]:
    p = random_polynomial(rng)
    while True:
        q = random_polynomial(rng)
        if q.coefficient(0) != 0:
            break
    n_max = rng.randint(0, 200)
    f = RationalFunction(p, q)
    product = Polynomial(tuple(series_coefficients(f, n_max))) * f.den
    ok = all(product.coefficient(j) == f.num.coefficient(j) for j in range(n_max + 1))
    return ok, f"n_max={n_max}"


def _shift_alternation(rng: random.Random, k: int) -> tuple[bool, str]:
    if k % 4 == 0:
        lf = random_length_function(rng, min_cx=0)
        if lf.complexity() == 0:
            return -euler_characteristic(lf) == euler_characteristic(lf.shift(1)), "euler shift"
    lf = random_length_function(rng, min_cx=1)
    s = lf.complexity() + rng.randint(0, 1)
    base = multiplicity_pos(lf, s)
    shifted = multiplicity_pos(lf.shift(1), s)
    period = multiplicity_pos(lf.shift(lf.d), s)
    ok = shifted.e_delta == -base.e_delta and shifted.e_coeff == -base.e_coeff
    return ok and period.e_delta == base.e_delta, f"s={s}"


def _vanishing_above_complexity(rng: random.Random, k: int) -> tuple[bool, str]:
    lf = random_length_function(rng)
    cx = lf.complexity()
    r1, r2 = multiplicity_pos(lf, cx + 1), multiplicity_pos(lf, cx + 2)
    return r1.e_delta == r1.e_coeff == r2.e_delta == r2.e_coeff == 0, f"cx={cx}"


def _convention_bridge(rng: random.Random, k: int) -> tuple[bool, str]:
    lf = random_length_function(rng, min_cx=1)
    s = lf.complexity() + rng.randint(0, 1)
    report = multiplicity_pos(lf, s)
    return report.e_coeff == lf.d ** (s - 1) * report.e_delta, f"d={lf.d}, s={s}"


def _split_additivity(rng: random.Random, k: int) -> tuple[bool, str]:
    d = rng.choice([2, 4])
    a = random_length_function(rng, d=d)
    b = random_length_function(rng, d=d)
    s = max(a.complexity(), b.complexity(), 1)
    total = multiplicity_pos(a + b, s)
    ra, rb = multiplicity_pos(a, s), multiplicity_pos(b, s)
    ok = total.e_delta == ra.e_delta + rb.e_delta and total.e_coeff == ra.e_coeff + rb.e_coeff
    return ok, f"d={d}, s={s}"


def _reflection_duality(rng: random.Random, k: int) -> tuple[bool, str]:
    g = random_length_function(rng, d=rng.choice([2, 4, 6]), min_cx=1)
    s = g.complexity() + rng.randint(0, 1)
    pos = multiplicity_pos(g, s)
    neg = multiplicity_neg(g.reflect(), s)
    ok = neg.e_delta == pos.e_delta and neg.e_coeff == (-1) ** (s - 1) * pos.e_coeff
    return ok, f"d={g.d}, s={s}"


# name -> (property(generator, case index) -> (ok, detail), number of cases or
# None for as many as the caller asks).  Suite i draws from
# random.Random(seed + i), so the order is part of the output.
PROPERTIES: dict[str, tuple[Callable[[random.Random, int], tuple[bool, str]], int | None]] = {
    "fit_roundtrip": (_fit_roundtrip, None),
    "series_remultiply": (_series_remultiply, None),
    "shift_alternation": (_shift_alternation, None),
    "vanishing_above_complexity": (_vanishing_above_complexity, None),
    "convention_bridge": (_convention_bridge, None),
    "split_additivity": (_split_additivity, 100),
    "reflection_duality": (_reflection_duality, 100),
}


def run_property_suites(seed: int, cases: int = 200) -> list[CheckResult]:
    """The seeded randomized invariants of ``PROPERTIES``; deterministic for a
    fixed seed."""
    results = []
    for i, (name, (prop, count)) in enumerate(PROPERTIES.items()):
        rng = random.Random(seed + i)
        for k in range(cases if count is None else count):
            ok, detail = prop(rng, k)
            results.append(CheckResult("properties", name, f"case{k:03d}", "property", ok, detail))
    results.sort(key=lambda r: r.key)
    return results
