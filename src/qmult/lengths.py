"""Graded length functions: total functions Z -> N with declared tail behavior.

A :class:`LengthFunction` is the numerical shadow of a graded Hom module: an
explicit core window of values plus a declared tail on each side.  A tail is
either ``None`` (vanishing: identically zero beyond the core; JSON kind
``vanishing``) or a :class:`QuasiPolynomial` (JSON kind ``quasipoly``).  A
quasi-polynomial of period d is a tuple of polynomials g_0..g_{d-1} with value
g_{n mod d}(n // d); residues use floor division, so the indexing is
unambiguous for negative degrees.

Tails must overlap the core on at least max_degree + 2 points per residue
class and agree there exactly.  That overlap also certifies integrality of the
tail everywhere (a polynomial that is integral on deg + 1 consecutive integers
is integral on all of Z); nonnegativity along the rest of the ray is certified
by exact sign analysis.  Quasi-polynomial tails whose polynomials are all zero
are normalized to ``None``.

A tail value is a length, so it is computed as an integer: the numerator of
g_{n mod d} at n // d (``Polynomial.numerator_at``) and one exact division by
its denominator, with a Fraction built only for the error that a value which
is not a nonnegative integer raises.  ``LengthFunction.values(lo, hi)`` gives
the values on a whole range at once, a slice of the core and the tails
evaluated this way; the Koszul step, the stabilization scan and the limit
estimate read their ranges through it.

A Hilbert series' tail is certified from its denominator (:func:`from_series`)
by agreeing with one integer expansion on deg D + dk degrees; ``valid_from``,
max(0, deg N - deg D + 1), is the honest boundary that the division of N by D
proves.  :func:`fit_quasipoly` fits sampled data by Newton forward differences
per residue class from the high end of the window, and its ``valid_from`` is
the honest boundary found by one scan back down (``_anchored``).  Neither is an
assumed one.

JSON is read by one object reader (``_json_object``) and one array reader
(``_array_of``) for length-function and fixture files alike; every error
names the field path, such as ``pos_tail.polys[0][1]``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import isqrt, prod
from typing import Callable, Iterable, Iterator, Mapping

from .differences import newton_polynomial
from .exact import (
    Polynomial,
    QmultError,
    RationalFunction,
    difference_table,
    nonnegative_on_ray,
    parse_rational,
    series_coefficients,
    series_integers,
)


class ModelError(QmultError):
    """A length-function model is internally inconsistent or misused."""


class FitError(QmultError):
    """No quasi-polynomial stabilization within the sampled window."""


def _shown(x: Fraction | int) -> str:
    """``str(x)`` for an error message.  Past the interpreter's limit on
    writing an integer as decimal text (``sys.get_int_max_str_digits()``),
    where ``str`` raises, its sign and digit count instead."""
    try:
        return str(x)
    except ValueError:
        x = Fraction(x)
        sign = "negative" if x < 0 else "positive"
        if x.denominator == 1:
            return f"a {sign} integer of {_digits(x.numerator)} digits"
        num, den = _digits(x.numerator), _digits(x.denominator)
        return f"a {sign} fraction with a {num}-digit numerator and a {den}-digit denominator"


def _digits(n: int) -> int:
    """The number of decimal digits of n != 0, found without writing n out."""
    n = abs(n)
    k = int(n.bit_length() * 0.30102999566398120)  # log10(2): off by at most one
    while 10**k <= n:
        k += 1
    while 10 ** (k - 1) > n:
        k -= 1
    return k


def _integers(values: Iterable[object], field: str, error: type[Exception]) -> tuple[int, ...]:
    """``values`` as ints, coercing nothing: each must be an int that is not a
    bool, or a Fraction with denominator 1; anything else raises ``error``
    naming its position and value."""
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    for k, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)) or v.denominator != 1:
            raise error(f"{field}[{k}] is {_shown(v)} ({type(v).__name__}), not an integer")
    return tuple(int(v) for v in values)


def _check_period(d: int) -> None:
    if d < 2 or d % 2 != 0:
        raise ModelError(f"period must be an even integer >= 2, got {d}")


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period-d quasi-polynomial with an anchor for its validity range.

    ``valid_from`` is in the degree variable n.  Used as a positive tail the
    claim is value(n) for all n >= valid_from; used as a negative tail the
    claim is for all n <= valid_from (the JSON schema writes the latter anchor
    as ``valid_to`` to keep fixture files readable).
    """

    d: int
    polys: tuple[Polynomial, ...]
    valid_from: int

    def __post_init__(self) -> None:
        _check_period(self.d)
        if len(self.polys) != self.d:
            raise ModelError(f"expected {self.d} polynomials, got {len(self.polys)}")

    def __call__(self, n: int) -> Fraction:
        return self.polys[n % self.d](n // self.d)

    @property
    def max_degree(self) -> int:
        return max(p.degree for p in self.polys)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.polys)

    def shift(self, k: int) -> QuasiPolynomial:
        """The translate n -> self(n + k), anchored at valid_from - k."""
        polys = []
        for i in range(self.d):
            q, r = divmod(i + k, self.d)  # floor division
            polys.append(self.polys[r].shift(q))
        return QuasiPolynomial(self.d, tuple(polys), self.valid_from - k)

    def reflect(self) -> QuasiPolynomial:
        """The reversal n -> self(-n), anchored at -valid_from."""
        polys = [self.polys[0].compose_linear(-1, 0)]
        for i in range(1, self.d):
            polys.append(self.polys[self.d - i].compose_linear(-1, -1))
        return QuasiPolynomial(self.d, tuple(polys), -self.valid_from)

    def negative_degrees(self, anchor: int, direction: int) -> Iterator[int]:
        """The sign certificate: for each residue i, in order, that goes negative
        at a degree n >= anchor (``direction=+1``) or n <= anchor (-1), one such
        n = d * block + i.  Residue i's ray up starts at the ceiling of
        (anchor - i) / d; a ray down is the ray up of g_i(-t) from minus the
        floor, and its result is reflected back."""
        for i, p in enumerate(self.polys):
            start = -((direction * (i - anchor)) // self.d)
            bad = nonnegative_on_ray(p if direction == 1 else p.compose_linear(-1, 0), start)
            if bad is not None:
                yield self.d * direction * bad + i


def _differs(qp: QuasiPolynomial, n: int, value: int | Fraction) -> bool:
    """qp(n) != value, decided on integers: the numerator of qp's polynomial
    at n against value times its denominator."""
    p = qp.polys[n % qp.d]
    return p.numerator_at(n // qp.d) != value * p.denominator


def _check_tail(lf: "LengthFunction", qp: QuasiPolynomial | None, side: str) -> None:
    """Validate the ``"pos"`` or ``"neg"`` tail of lf: its overlap with the core
    and its sign out along the ray.  The side only picks the anchor's JSON
    name, the allowed anchors, the overlap window and the ray's direction."""
    if qp is None:
        return
    if qp.d != lf.d:
        raise ModelError(f"{side} tail period {qp.d} != function period {lf.d}")
    need = lf.d * (qp.max_degree + 2)
    if side == "pos":
        key, direction = "valid_from", 1
        allowed = (lf.core_start, lf.core_end - need)
        overlap = range(qp.valid_from, lf.core_end + 1)
    else:
        key, direction = "valid_to", -1
        allowed = (lf.core_start + need, lf.core_end)
        overlap = range(lf.core_start, qp.valid_from + 1)
    if not (allowed[0] <= qp.valid_from <= allowed[1]):
        raise ModelError(
            f"{side} tail must overlap the core on {qp.max_degree + 2} blocks per "
            f"residue: need {key} in [{allowed[0]}, {allowed[1]}], got {qp.valid_from}"
        )
    for n in overlap:
        expected = lf.core_values[n - lf.core_start]
        if _differs(qp, n, expected):
            raise ModelError(
                f"{side} tail disagrees with the core at n={n}: "
                f"tail gives {_shown(qp(n))}, core holds {_shown(expected)}"
            )
    # Nonnegativity out along the ray, certified by exact sign analysis.
    for n in qp.negative_degrees(qp.valid_from, direction):
        raise ModelError(
            f"{side} tail polynomial for residue {n % lf.d} goes negative at block "
            f"{n // lf.d} (degree n={n})"
        )


def _tail_value(qp: QuasiPolynomial, n: int) -> int:
    """qp(n), which must be a length: a value that is not a nonnegative
    integer raises a :class:`ModelError`."""
    p = qp.polys[n % qp.d]
    value, rest = divmod(p.numerator_at(n // qp.d), p.denominator)
    if rest or value < 0:
        raise ModelError(f"tail evaluates to {_shown(qp(n))} at n={n}; not a length")
    return value


def _tail_values(qp: QuasiPolynomial | None, lo: int, hi: int) -> list[int]:
    """The values of a tail (0 where it vanishes) at lo..hi."""
    if qp is None:
        return [0] * max(hi - lo + 1, 0)
    return [_tail_value(qp, n) for n in range(lo, hi + 1)]


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """A total function Z -> N: explicit core window plus declared tails.

    Each tail is a :class:`QuasiPolynomial`, or ``None`` where it vanishes.
    Values are immutable after construction and all operations are pure, so
    instances can be shared freely.  Equality is semantic (equal values on all
    of Z), not structural.
    """

    d: int
    core_start: int
    core_values: tuple[int, ...]
    pos_tail: QuasiPolynomial | None
    neg_tail: QuasiPolynomial | None

    def __post_init__(self) -> None:
        _check_period(self.d)
        if not self.core_values:
            raise ModelError("core window must be nonempty")
        values = _integers(self.core_values, "core_values", ModelError)
        if any(v < 0 for v in values):
            raise ModelError("length values must be nonnegative")
        object.__setattr__(self, "core_values", values)
        # All-zero quasi-polynomial tails mean the same thing as vanishing.
        for name in ("pos_tail", "neg_tail"):
            qp = getattr(self, name)
            if qp is not None and qp.is_zero():
                object.__setattr__(self, name, None)
        _check_tail(self, self.pos_tail, "pos")
        _check_tail(self, self.neg_tail, "neg")

    @classmethod
    def _unchecked(
        cls,
        d: int,
        core_start: int,
        core_values: tuple[int, ...],
        pos_tail: QuasiPolynomial | None,
        neg_tail: QuasiPolynomial | None,
    ) -> LengthFunction:
        """Build without validation, for a function that is valid by
        construction: the fields must already be what ``__post_init__`` would
        leave (int values, no all-zero tail) and pass its checks."""
        lf = object.__new__(cls)
        object.__setattr__(lf, "d", d)
        object.__setattr__(lf, "core_start", core_start)
        object.__setattr__(lf, "core_values", core_values)
        object.__setattr__(lf, "pos_tail", pos_tail)
        object.__setattr__(lf, "neg_tail", neg_tail)
        return lf

    @property
    def core_end(self) -> int:
        return self.core_start + len(self.core_values) - 1

    def __call__(self, n: int) -> int:
        """Evaluate at any integer degree."""
        if self.core_start <= n <= self.core_end:
            return self.core_values[n - self.core_start]
        qp = self.pos_tail if n > self.core_end else self.neg_tail
        if qp is None:
            return 0
        return _tail_value(qp, n)

    def values(self, lo: int, hi: int) -> list[int]:
        """``[self(n) for n in range(lo, hi + 1)]`` (empty when hi < lo): the
        core as one slice, its bounds clamped at 0 so that a range outside the
        core takes none of it, and each tail point on integers."""
        start, end = self.core_start, self.core_end
        core = self.core_values[max(lo - start, 0) : max(hi + 1 - start, 0)]
        below = _tail_values(self.neg_tail, lo, min(hi, start - 1))
        return below + list(core) + _tail_values(self.pos_tail, max(lo, end + 1), hi)

    def complexity(self, side: str = "positive") -> int:
        """1 + max degree of the tail polynomials on the given side (0 if vanishing)."""
        qp = self.tail(side)
        return 0 if qp is None else 1 + qp.max_degree

    def tail(self, side: str) -> QuasiPolynomial | None:
        """The tail toward +infinity (``"positive"``) or -infinity (``"negative"``);
        ``None`` where it vanishes."""
        if side == "positive":
            return self.pos_tail
        if side == "negative":
            return self.neg_tail
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")

    def is_finite_support(self) -> bool:
        return self.pos_tail is None and self.neg_tail is None

    def support(self) -> list[int]:
        """Degrees with nonzero value; only meaningful for finite support."""
        if not self.is_finite_support():
            raise ModelError("support is infinite")
        return [
            self.core_start + k for k, v in enumerate(self.core_values) if v != 0
        ]

    # Translation and reflection are bijections of Z that keep every value,
    # so the overlap and sign certificates of self carry over to the result.

    def shift(self, k: int) -> LengthFunction:
        """The translate n -> self(n + k)."""
        return LengthFunction._unchecked(
            self.d,
            self.core_start - k,
            self.core_values,
            None if self.pos_tail is None else self.pos_tail.shift(k),
            None if self.neg_tail is None else self.neg_tail.shift(k),
        )

    def reflect(self) -> LengthFunction:
        """The reversal n -> self(-n); swaps the two tails."""
        return LengthFunction._unchecked(
            self.d,
            -self.core_end,
            tuple(reversed(self.core_values)),
            None if self.neg_tail is None else self.neg_tail.reflect(),
            None if self.pos_tail is None else self.pos_tail.reflect(),
        )

    def __add__(self, other: LengthFunction) -> LengthFunction:
        """Pointwise sum; models a direct sum of pairs."""
        if not isinstance(other, LengthFunction):
            return NotImplemented
        if self.d != other.d:
            raise ModelError(f"cannot add length functions with periods {self.d} and {other.d}")

        def combine(side: str) -> QuasiPolynomial | None:
            tails = [f.tail(side) for f in (self, other)]
            if all(qp is None for qp in tails):
                return None
            # A vanishing tail is zero beyond its core, so it contributes the
            # degree one past its core edge as the anchor.
            up = side == "positive"
            anchors = [
                (f.core_end + 1 if up else f.core_start - 1) if qp is None else qp.valid_from
                for f, qp in zip((self, other), tails)
            ]
            sums = zip(*(qp.polys for qp in tails if qp is not None))
            polys = tuple(sum(ps, Polynomial()) for ps in sums)
            return QuasiPolynomial(self.d, polys, max(anchors) if up else min(anchors))

        return LengthFunction.from_values(
            self.d,
            lambda n: self(n) + other(n),
            min(self.core_start, other.core_start),
            max(self.core_end, other.core_end),
            combine("positive"),
            combine("negative"),
        )

    @staticmethod
    def from_values(
        d: int,
        fn: Callable[[int], int],
        lo: int,
        hi: int,
        pos_tail: QuasiPolynomial | None,
        neg_tail: QuasiPolynomial | None,
    ) -> LengthFunction:
        """Assemble a length function, widening the core to meet tail overlap."""
        lo, hi = core_window(d, lo, hi, pos_tail, neg_tail)
        values = tuple(fn(n) for n in range(lo, hi + 1))
        return LengthFunction(d, lo, values, pos_tail, neg_tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LengthFunction):
            return NotImplemented
        if self.d != other.d:
            return False

        for side in ("positive", "negative"):
            polys = [None if f.tail(side) is None else f.tail(side).polys for f in (self, other)]
            if polys[0] != polys[1]:
                return False
        lo = min(self.core_start, other.core_start)
        hi = max(self.core_end, other.core_end)
        return all(self(n) == other(n) for n in range(lo, hi + 1))

    __hash__ = None  # type: ignore[assignment]  # semantic equality, not hashable

    def __repr__(self) -> str:
        def kind(qp: QuasiPolynomial | None) -> str:
            return "vanishing" if qp is None else "quasipoly"

        return (
            f"LengthFunction(d={self.d}, core=[{self.core_start}..{self.core_end}], "
            f"pos={kind(self.pos_tail)}, neg={kind(self.neg_tail)})"
        )

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        def tail_dict(qp: QuasiPolynomial | None, side: str) -> dict:
            if qp is None:
                return {"kind": "vanishing"}
            key = "valid_from" if side == "pos" else "valid_to"
            return {
                "kind": "quasipoly",
                key: qp.valid_from,
                "polys": [p.to_json() for p in qp.polys],
            }

        return {
            "d": self.d,
            "core": {"start": self.core_start, "values": list(self.core_values)},
            "pos_tail": tail_dict(self.pos_tail, "pos"),
            "neg_tail": tail_dict(self.neg_tail, "neg"),
        }

    @staticmethod
    def from_json_dict(data: object) -> LengthFunction:
        """Build a length function from its JSON form, coercing nothing.

        Integers must be JSON integers (not bools or floats) and rationals
        must be integers or "p"/"p/q" strings; anything else raises a
        :class:`ModelError` naming the offending field by its path.
        """
        lf = _json_object(data, "", _LENGTH_FUNCTION, _LENGTH_FUNCTION, what="length function")
        # A tail is read as (polys, anchor); it needs d, which may come after it.
        d = lf["d"]
        _check_period(d)
        for side in ("pos_tail", "neg_tail"):
            count = None if lf[side] is None else len(lf[side][0])
            if count not in (None, d):
                raise ModelError(f"{side}.polys must hold d = {d} polynomials, got {count}")
        pos, neg = (
            None if tail is None else QuasiPolynomial(d, *tail)
            for tail in (lf["pos_tail"], lf["neg_tail"])
        )
        return LengthFunction(d, lf["core"]["start"], tuple(lf["core"]["values"]), pos, neg)


def core_window(
    d: int, lo: int, hi: int, pos_tail: QuasiPolynomial | None, neg_tail: QuasiPolynomial | None
) -> tuple[int, int]:
    """The window [lo, hi], widened so that each tail that is not ``None``
    overlaps it on max_degree + 2 blocks per residue class, as validation
    requires."""
    if pos_tail is not None:
        hi = max(hi, pos_tail.valid_from + d * (pos_tail.max_degree + 2))
        lo = min(lo, pos_tail.valid_from)
    if neg_tail is not None:
        lo = min(lo, neg_tail.valid_from - d * (neg_tail.max_degree + 2))
        hi = max(hi, neg_tail.valid_from)
    return lo, hi


def read_json(path) -> object:
    """The JSON value in the file at ``path``.  Text that does not decode, an
    integer too long to convert and nesting too deep to decode are each a
    :class:`ModelError`; a file that cannot be opened raises OSError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ModelError(f"not valid JSON: {err}") from None
        except ValueError:  # an integer longer than the interpreter converts
            digits = sys.get_int_max_str_digits()
            raise ModelError(f"a JSON integer has more than {digits} digits") from None
        except RecursionError:
            raise ModelError("JSON arrays or objects are nested too deeply") from None


# A JSON reader: (value, its field path) -> the typed value, or a ModelError
# naming the path.  Length-function and fixture files are read with these.
Parser = Callable[[object, str], object]


def _got(value: object) -> str:
    """``repr(value)`` for an error message, cut short past 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:76] + " ..."


def _json_object(
    value: object, field: str, parsers: Mapping[str, Parser], required: Iterable, what: str = ""
) -> dict:
    """The object ``value`` at path ``field`` ("" at the top level of a file,
    where ``what`` names it), as {key: parsers[key](value[key], path of key)}.

    Checked in this order: ``value`` is an object; it has no key without a
    parser; each key parses, in file order; no key of ``required`` is missing.
    """
    where, prefix = (field, f"{field}.") if field else (what, "")
    if not isinstance(value, dict):
        raise ModelError(f"{where} must be a JSON object, got {_got(value)}")
    unknown = value.keys() - parsers.keys()
    if unknown:
        raise ModelError(f"unknown fields in {where}: {sorted(unknown)}")
    parsed = {key: parsers[key](v, prefix + key) for key, v in value.items()}
    missing = set(required) - parsed.keys()
    if missing:
        raise ModelError(f"missing fields in {where}: {sorted(missing)}")
    return parsed


def _array_of(parse: Parser, nonempty: bool = False) -> Callable[[object, str], list]:
    """The reader of a JSON array whose entries ``parse`` reads, each at its
    path ``field[i]``."""

    def parse_array(value: object, field: str) -> list:
        if nonempty and value == []:
            raise ModelError(f"{field} must be a nonempty array")
        return [parse(v, f"{field}[{i}]") for i, v in enumerate(_json_list(value, field))]

    return parse_array


def _one_of(*allowed: str) -> Callable[[object, str], str]:
    def parse_choice(value: object, field: str) -> str:
        if value not in allowed:
            raise ModelError(f"{field} must be one of {allowed}, got {_got(value)}")
        return value

    return parse_choice


def _json_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{field} must be an integer, got {_got(value)}")
    return value


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{field} must be an array, got {_got(value)}")
    return value


def _json_rational(value: object, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(f'{field} must be an integer or a "p/q" string, got {_got(value)}')
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"{field} is not a rational: {_got(value)}") from None


def _json_poly(value: object, field: str) -> Polynomial:
    return Polynomial(_array_of(_json_rational)(value, field))


def _json_tail(value: object, field: str, anchor: str) -> tuple[tuple[Polynomial, ...], int] | None:
    """A tail as None (kind ``vanishing``) or (polys, anchor) (kind
    ``quasipoly``); its key ``anchor`` is ``valid_from`` or ``valid_to``."""
    kind = value.get("kind") if isinstance(value, dict) else None
    parsers: dict[str, Parser] = {"kind": _one_of("vanishing", "quasipoly")}
    if kind != "vanishing":  # quasipoly, or a kind that the "kind" parser refuses
        parsers.update({"polys": _array_of(_json_poly), anchor: _json_int})
    tail = _json_object(value, field, parsers, parsers if kind == "quasipoly" else ("kind",))
    return None if tail["kind"] == "vanishing" else (tuple(tail["polys"]), tail[anchor])


_CORE = {"start": _json_int, "values": _array_of(_json_int)}

_LENGTH_FUNCTION: dict[str, Parser] = {
    "d": _json_int,
    "core": lambda value, field: _json_object(value, field, _CORE, _CORE),
    "pos_tail": lambda value, field: _json_tail(value, field, "valid_from"),
    "neg_tail": lambda value, field: _json_tail(value, field, "valid_to"),
}


# perfbench/tracer.py resolves fit_quasipoly by name, as lengths.fit_quasipoly.
def fit_quasipoly(samples: Mapping[int, int | Fraction], d: int) -> QuasiPolynomial:
    """Fit a period-d quasi-polynomial to samples on a contiguous window.

    Per residue class, finds the lowest degree r such that the top r + 1
    blocks of the block-indexed sequence determine a polynomial that the r + 2
    blocks below agree with; the returned ``valid_from`` is found by scanning
    the whole window downward from the top, so it is honest rather than
    minimal.

    Those 2r + 3 blocks lie on one polynomial of degree <= r exactly when
    their difference table at the lowest block vanishes from order r + 1 on
    (Newton's forward formula), and then its first r + 1 entries are the
    Newton coefficients of the fitted polynomial.

    Raises :class:`FitError`, naming the residue class and the best candidate
    degree, when no stabilization is visible in the window.
    """
    _check_period(d)
    if not samples:
        raise FitError("no samples")
    keys = sorted(samples)
    lo, hi = keys[0], keys[-1]
    if keys != list(range(lo, hi + 1)):
        raise FitError("samples must cover a contiguous window")

    polys: list[Polynomial] = []
    for i in range(d):
        first = -(-(lo - i) // d)
        blocks = [samples[d * m + i] for m in range(first, (hi - i) // d + 1)]
        if len(blocks) < 3:
            raise FitError(f"residue class {i} has only {len(blocks)} samples")
        fitted: Polynomial | None = None
        best = -1
        r = 0
        while 2 * r + 3 <= len(blocks):
            best = r
            base = len(blocks) - (2 * r + 3)
            table = difference_table(blocks[base:])
            if not any(table[r + 1 :]):
                fitted = newton_polynomial(table[: r + 1], first + base)
                break
            r += 1
        if fitted is None:
            raise FitError(
                f"no polynomial stabilization in residue class {i} "
                f"(tried degrees up to {best})"
            )
        polys.append(fitted)

    return _anchored(d, tuple(polys), samples.__getitem__, lo, hi)


def _anchored(d: int, polys: tuple, value: Callable, lo: int, hi: int) -> QuasiPolynomial:
    """The quasi-polynomial of ``polys``, valid from the lowest n >= lo at which
    it agrees with ``value`` on all of [n, hi]: the honest boundary, found by
    scanning down from hi."""
    qp = QuasiPolynomial(d, polys, lo)
    valid_from = next((n + 1 for n in range(hi, lo - 1, -1) if _differs(qp, n, value(n))), lo)
    return QuasiPolynomial(d, polys, valid_from)


def from_series(f: RationalFunction, d: int, probe: int) -> LengthFunction:
    """Expand a Hilbert series f = N/D and certify its positive tail from D.

    With k the order of D's zero at t = 1, the coefficients are eventually a
    period-d quasi-polynomial exactly when P = N(1 - t^d)^k / D is a polynomial,
    and then for all n > deg N - deg D (Stanley, EC I, 4.4); each residue's
    polynomial is read off k blocks there.  The core reaches at least ``probe``.

    One expansion decides everything, on integers: a coefficient is a length
    when its scale divides it and the quotient is >= 0.  The k-block tail is
    R/(1 - t^d)^k with deg R < dk, so past start = max(0, deg N - deg D + 1)
    the series less the tail, (N(1 - t^d)^k - R D) / (D (1 - t^d)^k), has
    coefficients with a recurrence of order deg D + dk: P is a polynomial
    exactly when they vanish on start..start + deg D + dk - 1.  They vanish
    on the k blocks the tail was read off by construction, so only the other
    degrees of that window are compared.  Then
    f = Q + R/(1 - t^d)^k with deg Q = deg N - deg D, and ``valid_from`` =
    start is the honest boundary: at start - 1 >= 0 the series differs from
    the tail by Q's leading coefficient, which is not 0.

    When P is not a polynomial, either some pole of f is not a d-th root of
    unity, or one at a d-th root of unity other than 1 outranks the pole at 1,
    so that the coefficients go negative.  In the second case, and only then,
    D with its factors Phi_m (m | d) divided out divides N; the refusal says
    which case holds.  Only this classifier divides: each Phi_m, each factor
    divided out and the last test against N are one exact division
    (``_quotient``).
    """
    _check_period(d)
    if probe < 0:
        raise ModelError(f"probe must be >= 0, got {probe}")
    k, q = 0, f.den.numerators  # no pole of a nonnegative series outranks the one at 1
    while sum(q) == 0:  # divide D by t - 1; this ends, since D(0) == 1
        q, k = tuple(accumulate(reversed(q)))[-2::-1], k + 1
    start = max(0, f.num.degree - f.den.degree + 1)
    end = start + f.den.degree + d * k  # the tail must agree on start..end - 1
    values = []
    for n, (u, scale) in enumerate(series_integers(f, max(probe, start + d * (k + 1), end - 1))):
        c, rest = divmod(u, scale)
        if rest or c < 0:
            shown = _shown(Fraction(u, scale))
            raise ModelError(f"series coefficient at n={n} is {shown}; not a length")
        values.append(c)
    m = -(-start // d)  # the first block of degrees all >= start
    polys = tuple(
        newton_polynomial(difference_table([values[d * (m + j) + i] for j in range(k)]), m)
        for i in range(d)
    )
    qp = QuasiPolynomial(d, polys, start)
    # The blocks dm .. d(m+k) - 1 agree by construction; only the others can differ.
    window = chain(range(start, d * m), range(d * (m + k), end))
    if any(_differs(qp, n, values[n]) for n in window):
        if _quotient(f.num, _strip_cyclotomic(Polynomial(q), d)) is not None:
            raise ModelError(
                "series coefficients eventually go negative: "
                "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
            )
        raise ModelError(
            f"not eventually a period-{d} quasi-polynomial: "
            "its poles are not all d-th roots of unity"
        )
    return LengthFunction.from_values(d, values.__getitem__, 0, probe, qp, None)


def _quotient(num: Polynomial, den: Polynomial) -> Polynomial | None:
    """num / den when it is a polynomial, else None, for den(0) != 0: the
    series of num / den up to degree deg num - deg den, times den, gives num
    back exactly when den divides num."""
    f = RationalFunction(num, den)
    quotient = Polynomial(series_coefficients(f, max(num.degree - den.degree, 0)))
    return quotient if quotient * f.den == f.num else None


def _strip_cyclotomic(q: Polynomial, d: int) -> Polynomial:
    """q with every factor Phi_m (m | d) divided out: what is left has no root
    that is a d-th root of unity.  Only a Phi_m of degree phi(m) <= deg q can
    divide q, and only those are built, for the divisors m of d in increasing
    order, as Phi_m = (1 - t^m) / prod Phi_e over the divisors e < m of m.
    Every such e has phi(e) <= phi(m), so m less the degrees of the Phi_e built
    so far is phi(m) when all were built, and exceeds deg q exactly when phi(m)
    does.
    Since phi(m) >= sqrt(m / 2), the walk ends past m = 2 (deg q)^2, so trial
    division runs only up to the smaller of that bound and sqrt(d): when the
    bound is the smaller, every cofactor d // m lies above it."""
    bound = 2 * q.degree**2
    small = [m for m in range(1, min(bound, isqrt(d)) + 1) if d % m == 0]
    cyclotomic: dict[int, Polynomial] = {}
    for m in sorted({*small, *(d // m for m in small)}):
        if m > bound:
            break
        below = [c for e, c in cyclotomic.items() if m % e == 0]
        if m - sum(c.degree for c in below) > q.degree:
            continue
        cyclotomic[m] = _quotient(1 - Polynomial.t() ** m, prod(below, start=Polynomial.const(1)))
        while (quotient := _quotient(q, cyclotomic[m])) is not None:
            q = quotient
    return q
