"""Independent oracle for qmult CLI outputs.

Nothing here imports qmult.  Length functions are evaluated from first
principles (binomial sums, integer recurrences, or the generated tails), and
polynomials are plain lists of Fractions, constant term first.  The expected
values of every job are computed from these, outside the timed region, and the
CLI's stdout, stderr and exit code are checked against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import Callable

Poly = list  # list[Fraction], constant term first, no trailing zeros
LengthFn = Callable[[int], int]


# -- polynomials -------------------------------------------------------------


def trim(p: list) -> Poly:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_scale(p: Poly, c) -> Poly:
    return trim([a * c for a in p])


def poly_eval(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_affine(p: Poly, a: int, b: int) -> Poly:
    """p(a*x + b)."""
    acc: Poly = []
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, [Fraction(b), Fraction(a)]), [c])
    return acc


@cache
def binomial_poly(x_shift: int, k: int) -> tuple[Fraction, ...]:
    """C(x + x_shift, k) as a polynomial in x."""
    p: Poly = [Fraction(1)]
    for j in range(k):
        p = poly_mul(p, [Fraction(x_shift - j, j + 1), Fraction(1, j + 1)])
    return tuple(p)


def integer_form(p) -> tuple[list[int], int]:
    """Integer coefficients and a common denominator D with p = (those) / D."""
    den = lcm(*(c.denominator for c in p)) if p else 1
    return [c.numerator * (den // c.denominator) for c in p], den


def integer_eval(form: tuple[list[int], int], x: int) -> int:
    """An integer-valued polynomial in integer form, at an integer."""
    coeffs, den = form
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    value, rest = divmod(acc, den)
    if rest:
        raise ValueError(f"polynomial is not integral at {x}")
    return value


def poly_json(p: Poly) -> list[str]:
    return [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in p]


# -- length functions ----------------------------------------------------------


def binomial_series(a: int, b: int, c: int) -> tuple[LengthFn, Poly]:
    """Coefficients of t^a (1+t)^b / (1-t)^c and their eventual polynomial."""

    def lam(n: int) -> int:
        return sum(comb(b, k) * comb(n - a - k + c - 1, c - 1) for k in range(b + 1) if n - a - k >= 0)

    P: Poly = []
    for k in range(b + 1):
        P = poly_add(P, poly_scale(binomial_poly(c - 1 - a - k, c - 1), comb(b, k)))
    return lam, P


def two_factor_series(a: int, k1: int, k2: int, upto: int) -> list[int]:
    """Coefficients 0..upto of t^a / ((1-t^k1)(1-t^k2)), by integer recurrences."""
    seq = [0] * (upto + 1)
    if a <= upto:
        seq[a] = 1
    for k in (k1, k2):
        for n in range(k, upto + 1):
            seq[n] += seq[n - k]
    return seq


def herbrand_diff(lam: LengthFn, s: int, d: int, n: int) -> int:
    """D^{s-1} h(n), where h(n) = sum_{i<d} (-1)^(n+i) lam(n+i) and D is the index-d difference."""

    def h(m: int) -> int:
        return sum((-1) ** ((m + i) % 2) * lam(m + i) for i in range(d))

    k = s - 1
    return sum((-1) ** i * comb(k, i) * h(n + (k - i) * d) for i in range(k + 1))


def reduced(lam: LengthFn, d: int, k: int) -> LengthFn:
    """The k-th positive Koszul reduction: n -> sum_i (-1)^(k-i) C(k,i) lam(n + i*d)."""
    return lambda n: sum((-1) ** (k - i) * comb(k, i) * lam(n + i * d) for i in range(k + 1))


def koszul_rejects(lam: LengthFn, d: int, s: int, lo: int, hi: int) -> bool:
    """Whether some reduction step of a chain of length s goes negative on [lo, hi]."""
    return any(reduced(lam, d, k)(n) < 0 for k in range(1, s + 1) for n in range(lo, hi + 1))


def honest_anchor(lam: LengthFn, polys: list[Poly], d: int, lo: int, hi: int) -> int:
    """Smallest v in [lo, hi] with lam(n) == g_{n mod d}(n // d) for all n in [v, hi]."""
    n = hi
    while n >= lo and poly_eval(polys[n % d], n // d) == lam(n):
        n -= 1
    return n + 1


def reflected_polys(d: int, polys: list[Poly]) -> list[Poly]:
    """Negative-tail polynomials of n -> lam(-n) from lam's positive tail:
    -(d*m + i) = d*(-m - 1) + (d - i) for 0 < i < d, and -d*m for i = 0."""
    return [poly_affine(polys[(-i) % d], -1, -1 if i else 0) for i in range(d)]


def reflected_json(d: int, start: int, values: list[int], polys: list[Poly], valid_from: int) -> dict:
    """JSON of n -> lam(-n), for lam with core ``values`` from ``start``, the
    positive tail ``polys`` from ``valid_from`` on, and nothing below ``start``."""
    return {
        "d": d,
        "core": {"start": -(start + len(values) - 1), "values": list(reversed(values))},
        "pos_tail": {"kind": "vanishing"},
        "neg_tail": {
            "kind": "quasipoly",
            "valid_to": -valid_from,
            "polys": [poly_json(p) for p in reflected_polys(d, polys)],
        },
    }


# -- expectations and checks ---------------------------------------------------


def length_fn(spec: tuple) -> LengthFn:
    """Evaluator for a hashable length-function description.

    ``("binomial", a, b, c)``: coefficients of t^a (1+t)^b / (1-t)^c.
    ``("two_factor", a, k1, k2)``: coefficients of t^a / ((1-t^k1)(1-t^k2)).
    ``("model", d, start, values, polys, valid_from)``: explicit core values
    from ``start``, tail polynomials g_i(m) at n = d*m + i from ``valid_from``
    on, and zero below ``start``.
    """
    kind = spec[0]
    if kind == "binomial":
        return binomial_series(*spec[1:])[0]
    if kind == "two_factor":
        a, k1, k2 = spec[1:]
        seq: list[int] = []

        def lam(n: int) -> int:
            if n < 0:
                return 0
            if n >= len(seq):
                seq[:] = two_factor_series(a, k1, k2, 2 * n + 64)
            return seq[n]

        return lam
    if kind == "model":
        d, start, values, polys, valid_from = spec[1:]
        tail = [integer_form(p) for p in polys]

        def lam(n: int) -> int:
            if n >= valid_from:
                return integer_eval(tail[n % d], n // d)
            if n >= start:
                return values[n - start]
            return 0

        return lam
    raise ValueError(f"unknown length-function spec {kind!r}")


@dataclass(frozen=True)
class Expect:
    """What a correct run of one job prints.

    ``kind`` is the subcommand; ``s`` the index the CLI defaults to (the
    complexity of the side asked for); ``e`` the delta-convention
    multiplicity of the positive function ``lam``; ``leading`` the degree s-1
    tail coefficients the report must list; ``limit_tol`` the proven bounds on
    |estimate - target| for the paper and corrected limits (empty when no limit
    is asked for); ``reject`` whether koszul must refuse the input; ``count``
    the number of checks a verify run must pass.
    """

    kind: str
    d: int = 2
    s: int = 0
    e: int = 0
    lam: tuple = ()
    leading: tuple = ()
    limit_tol: tuple = ()
    reject: bool = False
    count: int = 0


@dataclass(frozen=True)
class Outcome:
    code: int | None
    stdout: str
    stderr: str


def check(expect: Expect, out: Outcome) -> str | None:
    """None when ``out`` is what ``expect`` predicts, else the reason it is not."""
    try:
        return _check(expect, out)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable output: {err!r}"


def _check(x: Expect, out: Outcome) -> str | None:
    if x.kind == "koszul" and x.reject:
        if out.code != 1 or out.stdout or "not eventually injective" not in out.stderr:
            return f"expected a Koszul rejection, got exit {out.code}: {out.stderr.strip()[:200]}"
        return None
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()[-300:]}"
    if x.kind == "cx":
        return None if out.stdout == f"{x.s}\n" else f"cx printed {out.stdout!r}, want {x.s}"
    if x.kind == "verify":
        last = out.stdout.rstrip("\n").rsplit("\n", 1)[-1]
        want = f"passed {x.count} of {x.count}"
        return None if last == want else f"verify ended {last!r}, want {want!r}"
    doc = json.loads(out.stdout)
    if x.kind == "koszul":
        if doc["s"] != x.s or doc["invariant_values"] != [x.e] * (x.s + 1):
            return f"chain s={doc['s']} values {doc['invariant_values']}, want {x.e} x {x.s + 1}"
        lam = length_fn(x.lam)
        for k, fn in enumerate(doc["functions"]):
            step = reduced(lam, x.d, k)
            start, values = fn["core"]["start"], fn["core"]["values"]
            if values != [step(n) for n in range(start, start + len(values))]:
                return f"chain function {k} differs from the {k}-th reduction of lambda"
        return None
    side = "positive" if x.kind == "e" else "negative"
    sign = 1 if side == "positive" else (-1) ** (x.s - 1)
    cx_key = "cx" if side == "positive" else "cx_neg"
    got = (doc["side"], doc["s"], doc[cx_key], doc["e_delta"], doc["e_coeff"])
    want = (side, x.s, x.s, x.e, sign * x.d ** (x.s - 1) * x.e)
    if got != want:
        return f"report (side, s, cx, e_delta, e_coeff) = {got}, want {want}"
    if [Fraction(v) for v in doc["leading"]] != list(x.leading):
        return f"leading {doc['leading']}, want {[str(v) for v in x.leading]}"
    if x.limit_tol:
        paper_tol, corrected_tol = x.limit_tol
        e_coeff = x.d ** (x.s - 1) * x.e
        if abs(Fraction(doc["limit_paper"]) - e_coeff) > paper_tol:
            return f"limit_paper {doc['limit_paper']} is farther than its bound from {e_coeff}"
        if abs(Fraction(doc["limit_corrected"]) - x.e) > corrected_tol:
            return f"limit_corrected {doc['limit_corrected']} is farther than its bound from {x.e}"
    return None
