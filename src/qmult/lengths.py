"""Graded length functions: total functions Z -> N with declared tail behavior.

A :class:`LengthFunction` is the numerical shadow of a graded Hom module: an
explicit core window of values plus a declared tail on each side.  A tail is
either ``None`` (vanishing: identically zero beyond the core; JSON kind
``vanishing``) or a :class:`QuasiPolynomial` (JSON kind ``quasipoly``).  A
quasi-polynomial of period d has polynomials g_0..g_{d-1} with value
g_{n mod d}(n // d); residues use floor division, so the indexing is
unambiguous for negative degrees.  It stores them as k integer columns over
one common denominator, column j the t^j numerators of all d residues, and
the column kernels of ``exact`` work on whole columns: the Koszul step is one
difference of the columns, reindexing n -> sign * n + b (``shift``,
``reflect``, ``_reindexed``) a permutation of the residues plus Taylor
shifts, the leading values one column.  ``polys`` builds the per-residue
:class:`Polynomial` views, which only printing and the public API need.

Tails must overlap the core on at least max_degree + 2 blocks per residue
and agree there exactly; that also certifies integrality everywhere (a
polynomial integral on deg + 1 consecutive integers is integral on all of
Z).  With k = max_degree + 1 the agreement is checked block-wise: the core's
k-fold step-d differences vanish on the overlap, and the tail equals the
core on the k blocks nearest its anchor; only a refusal scans point by
point, to name the first n that differs.  Nonnegativity along the rest of
the ray is certified by exact sign analysis on each residue's Newton table,
an entry of the block table of the core at those k blocks, read going up
from ``valid_from`` or going down from ``valid_to``.  All-zero tails are
normalized to ``None``.  Outside input (``LengthFunction(...)``,
``from_values``, ``from_json_dict``) runs these checks; derived functions
(:func:`from_series`, ``+``, ``shift``, ``reflect``, ``koszul.reduce``) are
built with ``_unchecked``, their checks proved by construction.

A tail value is a length, so it is computed as an integer, a numerator and
one exact division, with a Fraction built only for the error that a value
which is not a nonnegative integer raises.  ``LengthFunction.values(lo, hi)``
gives a whole range at once; the Koszul step, the Herbrand list, the limit
estimate and the sum ``+`` read their ranges through it.

A Hilbert series' tail is certified from its denominator (:func:`from_series`)
by agreeing with one expansion on the lengths themselves on deg D + dk
degrees, taken through D's (1 - t^j) factors (j | d) as one running sum per
factor, after a recurrence on what is left of D; its columns come from the
block table of k blocks and one Newton conversion, and ``valid_from``,
max(0, deg N - deg D + 1), is the honest boundary that the division of N by
D proves.  :func:`fit_quasipoly` fits sampled data by Newton forward
differences per residue class from the high end of the window, and its
``valid_from`` is the honest boundary found by one scan back down
(``_anchored``).

JSON files are decoded as UTF-8 whatever the locale and read by one object
reader (``_json_object``) and one array reader (``_array_of``); every error
names the field path, such as ``pos_tail.polys[0][1]``.  Each array's types
are checked in one pass, and an entry's path is formatted only in the
refusal branch, which reads the array again to name the entry it refuses.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from math import isqrt, lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .differences import newton_polynomial
from .exact import (
    Polynomial,
    QmultError,
    RationalFunction,
    _RATIONAL,
    _agrees,
    _block_table,
    _coefficient_texts,
    _columns,
    _first_negatives,
    _newton_columns,
    _product,
    _reduced_columns,
    _reindexed_columns,
    _sum_columns,
    _values_at,
    parse_rational,
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
        raise ModelError(f"period must be an even integer >= 2, got {_shown(d)}")


@dataclass(frozen=True, init=False)
class QuasiPolynomial:
    """Period-d quasi-polynomial with an anchor for its validity range.

    ``valid_from`` is in the degree variable n.  Used as a positive tail the
    claim is value(n) for all n >= valid_from; used as a negative tail the
    claim is for all n <= valid_from (the JSON schema writes the latter anchor
    as ``valid_to`` to keep fixture files readable).

    ``QuasiPolynomial(d, polys, valid_from)`` takes the residue polynomials
    g_0..g_{d-1}.  The only stored form is k integer ``columns`` over one
    common ``denominator``: column j holds the t^j numerators of all d
    residues, k is 1 + max_degree (no trailing all-zero column), and the
    denominator is reduced against every numerator, so equality compares the
    polynomials.  ``polys`` builds the :class:`Polynomial` views.
    """

    d: int
    columns: tuple[tuple[int, ...], ...]
    denominator: int
    valid_from: int

    def __new__(cls, d: int, polys: Sequence[Polynomial], valid_from: int) -> QuasiPolynomial:
        _check_period(d)
        if len(polys) != d:
            raise ModelError(f"expected {d} polynomials, got {len(polys)}")
        return cls._from_columns(d, *_columns([(p.numerators, p.denominator) for p in polys]), valid_from)

    @classmethod
    def _from_columns(cls, d: int, columns: list, den: int, valid_from: int) -> QuasiPolynomial:
        """The quasi-polynomial whose residue i has coefficients
        columns[j][i] / den, for d-tuples ``columns`` already in the stored
        form of :func:`_reduced_columns`."""
        qp = object.__new__(cls)
        qp.__dict__.update(d=d, columns=tuple(columns), denominator=den, valid_from=valid_from)
        return qp

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        """The residue polynomials g_0..g_{d-1}."""
        return tuple(Polynomial._from_integers(list(row), self.denominator) for row in self._rows())

    def to_json(self) -> list[list[str]]:
        """Each residue's JSON coefficient array, written from the columns."""
        return [_coefficient_texts(row, self.denominator) for row in self._rows()]

    def _rows(self) -> Sequence[tuple[int, ...]]:
        """Each residue's numerators, constant term first, k of them."""
        return tuple(zip(*self.columns)) if self.columns else ((),) * self.d

    def __call__(self, n: int) -> Fraction:
        return Fraction(_values_at(self.columns, self.d, n, n)[0], self.denominator)

    @property
    def max_degree(self) -> int:
        return len(self.columns) - 1

    def is_zero(self) -> bool:
        return not self.columns

    def shift(self, k: int) -> QuasiPolynomial:
        """The translate n -> self(n + k), anchored at valid_from - k."""
        return self._reindexed(1, k)

    def reflect(self) -> QuasiPolynomial:
        """The reversal n -> self(-n), anchored at -valid_from."""
        return self._reindexed(-1, 0)

    def _reindexed(self, sign: int, b: int) -> QuasiPolynomial:
        """n -> self(sign * n + b) for sign = 1 or -1, anchored at
        sign * (valid_from - b): a permutation of the residues and Taylor
        shifts of the columns (:func:`_reindexed_columns`), which keep the
        top column and each residue's content, so the form stays reduced."""
        columns = _reindexed_columns(self.columns, self.d, sign, b)
        return QuasiPolynomial._from_columns(self.d, columns, self.denominator, sign * (self.valid_from - b))

    def negative_degrees(self, anchor: int) -> Iterator[int]:
        """The sign certificate: for each residue i, in order, that goes negative
        at a degree n >= anchor, the first such n = d * block + i, from block
        ceil((anchor - i) / d) on.  A ray down is the ray up of ``reflect()``,
        negated, which meets the residues in the order 0, d - 1, ..., 1.  Each
        residue's Newton table there is an entry of the block table of the
        numerators at the k blocks from the anchor (:func:`_first_negatives`)."""
        d, k = self.d, len(self.columns)
        values = _values_at(self.columns, d, anchor, anchor + d * k - 1)
        return _first_negatives(_block_table(values, d), d, anchor, 1)


def _differs(qp: QuasiPolynomial, n: int, value: int | Fraction) -> bool:
    """qp(n) != value, decided on integers: the numerator of qp at n against
    value times its denominator."""
    return _values_at(qp.columns, qp.d, n, n)[0] != value * qp.denominator


def _check_tail(lf: "LengthFunction", qp: QuasiPolynomial | None, side: str) -> None:
    """Validate the ``"pos"`` or ``"neg"`` tail of lf: its overlap with the core
    and its sign out along the ray.  The side only picks the anchor's JSON
    name, the allowed anchors, the overlap window and the ray's direction.

    The overlap holds max_degree + 2 blocks of each residue.  With k =
    max_degree + 1, the tail equals the core there exactly when the core's
    k-fold step-d differences vanish on it and the tail equals the core on the
    k blocks nearest its anchor (:func:`_agrees`); only a refusal is looked
    for point by point, to name the first n that differs.  Then each residue's
    sign certificate reads its Newton table off those k blocks of the core
    (:func:`_first_negatives`): going up from ``valid_from``, or going down
    from ``valid_to``."""
    if qp is None:
        return
    d, start, values = lf.d, lf.core_start, lf.core_values
    if qp.d != d:
        raise ModelError(f"{side} tail period {qp.d} != function period {d}")
    k, v = len(qp.columns), qp.valid_from
    need = d * (k + 1)
    if side == "pos":  # the overlap, and its k blocks nearest the anchor
        key, allowed, step = "valid_from", (start, lf.core_end - need), 1
        overlap, near = (v, lf.core_end), (v, v + k * d - 1)
    else:
        key, allowed, step = "valid_to", (start + need, lf.core_end), -1
        overlap, near = (start, v), (v - k * d + 1, v)
    if not (allowed[0] <= v <= allowed[1]):
        raise ModelError(
            f"{side} tail must overlap the core on {k + 1} blocks per "
            f"residue: need {key} in [{_shown(allowed[0])}, {_shown(allowed[1])}], "
            f"got {_shown(v)}"
        )
    core = values[near[0] - start : near[1] + 1 - start]
    if not (
        _agrees(values[overlap[0] - start : overlap[1] + 1 - start], d, k)
        and _values_at(qp.columns, d, *near) == [c * qp.denominator for c in core]
    ):
        n = next(n for n in range(overlap[0], overlap[1] + 1) if _differs(qp, n, values[n - start]))
        raise ModelError(
            f"{side} tail disagrees with the core at n={n}: "
            f"tail gives {_shown(qp(n))}, core holds {_shown(values[n - start])}"
        )
    _check_sign(qp, side, _first_negatives(_block_table(list(core[::step]), d), d, v, step))


def _check_sign(qp: QuasiPolynomial, side: str, witnesses: Iterable[int]) -> None:
    """Refuse the ``"pos"`` or ``"neg"`` tail when it goes negative out along
    its ray: ``witnesses`` are the first negative degrees of its residues, at
    most one each and in residue order, certified by the caller."""
    bad = next(iter(witnesses), None)
    if bad is not None:
        raise ModelError(
            f"{side} tail polynomial for residue {bad % qp.d} goes negative at block "
            f"{bad // qp.d} (degree n={bad})"
        )


def _tail_values(qp: QuasiPolynomial | None, lo: int, hi: int) -> list[int]:
    """The values of a tail (0 where it vanishes) at lo..hi, each a length or
    a :class:`ModelError`: its numerators (:func:`_values_at`), each divided
    exactly by the common denominator."""
    if qp is None:
        return [0] * max(hi - lo + 1, 0)
    out = []
    for n, numerator in enumerate(_values_at(qp.columns, qp.d, lo, hi), lo):
        value, rest = divmod(numerator, qp.denominator)
        if rest or value < 0:
            raise ModelError(f"tail evaluates to {_shown(qp(n))} at n={n}; not a length")
        out.append(value)
    return out


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
        if min(values) < 0:
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
        return 0 if qp is None else _tail_values(qp, n, n)[0]

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
        return self._reindexed(1, k)

    def reflect(self) -> LengthFunction:
        """The reversal n -> self(-n); swaps the two tails."""
        return self._reindexed(-1, 0)

    def _reindexed(self, sign: int, b: int) -> LengthFunction:
        """n -> self(sign * n + b) for sign = 1 or -1: the core read in the
        order of sign, from sign * (its first end in that order - b), and
        each tail reindexed, the two swapped when sign = -1."""
        first = (self.core_start, self.core_end)[::sign][0]
        tails = (self.pos_tail, self.neg_tail)[::sign]
        pos, neg = (None if qp is None else qp._reindexed(sign, b) for qp in tails)
        values = self.core_values[::sign]
        return LengthFunction._unchecked(self.d, sign * (first - b), values, pos, neg)

    def __add__(self, other: LengthFunction) -> LengthFunction:
        """Pointwise sum; models a direct sum of pairs."""
        if not isinstance(other, LengthFunction):
            return NotImplemented
        if self.d != other.d:
            raise ModelError(f"cannot add length functions with periods {self.d} and {other.d}")

        def pos_sum(*fs: LengthFunction) -> QuasiPolynomial | None:
            # A vanishing tail is zero beyond its core: its anchor is one past the core.
            tails = [f.pos_tail for f in fs if f.pos_tail is not None]
            if not tails:
                return None
            anchor = max(f.core_end + 1 if f.pos_tail is None else f.pos_tail.valid_from for f in fs)
            columns, den = _sum_columns([(qp.columns, qp.denominator) for qp in tails], self.d)
            return QuasiPolynomial._from_columns(self.d, *_reduced_columns(columns, den), anchor)

        # Valid by construction: a summed tail is the sum from its anchor on,
        # and tails nonnegative along a ray cancel only where both are zero.
        pos, neg = pos_sum(self, other), None
        if self.neg_tail is not None or other.neg_tail is not None:
            neg = pos_sum(self.reflect(), other.reflect()).reflect()
        ends = (min(self.core_start, other.core_start), max(self.core_end, other.core_end))
        lo, hi = core_window(self.d, *ends, pos, neg)
        values = tuple(a + b for a, b in zip(self.values(lo, hi), other.values(lo, hi)))
        return LengthFunction._unchecked(self.d, lo, values, pos, neg)

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
            tails = [f.tail(side) for f in (self, other)]
            forms = [None if qp is None else (qp.columns, qp.denominator) for qp in tails]
            if forms[0] != forms[1]:
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
            return {"kind": "quasipoly", key: qp.valid_from, "polys": qp.to_json()}

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
                raise ModelError(f"{side}.polys must hold d = {_shown(d)} polynomials, got {count}")
        pos, neg = (
            None if tail is None else QuasiPolynomial._from_columns(d, *_columns(tail[0]), tail[1])
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
    """The JSON value in the UTF-8 file at ``path``.  Text that does not decode,
    an integer too long to convert and nesting too deep to decode are each a
    :class:`ModelError`; a file that cannot be opened raises OSError."""
    with open(path, "rb") as fh:
        try:  # UTF-8 whatever the locale; a BOM or UTF-16 text is refused, not guessed
            return json.loads(fh.read().decode("utf-8"))
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
    """The reader of a JSON array whose entries ``parse`` reads.  An entry's
    path ``field[i]`` is formatted only in the refusal branch: the entries are
    read with the array's path, and when one is refused they are read again,
    each with its own path, up to the first one refused, which that names."""

    def parse_array(value: object, field: str) -> list:
        if nonempty and value == []:
            raise ModelError(f"{field} must be a nonempty array")
        items = _json_list(value, field)
        try:
            return [parse(v, field) for v in items]
        except ModelError:
            for i, v in enumerate(items):
                parse(v, f"{field}[{i}]")
            raise

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


def _json_ints(value: object, field: str) -> list:
    """A JSON array of integers, its types checked in one pass; the refusal
    branch is :func:`_array_of`'s, which names the first entry refused."""
    items = _json_list(value, field)
    if all(type(v) is int for v in items):
        return items
    return _array_of(_json_int)(items, field)


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{field} must be an array, got {_got(value)}")
    return value


def _json_rational(value: object, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(f'{field} must be an integer or a "p/q" string, got {_got(value)}')
    if isinstance(value, int):
        return Fraction(value)
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"{field} is not a rational: {_got(value)}") from None


def _integer_ratios(items: list) -> tuple[list[int], int] | None:
    """The entries of a JSON array as integer numerators over one common
    denominator, in one pass: each an int (not a bool) or an ASCII "p" or
    "p/q" string with q != 0.  None when some entry is neither."""
    nums, dens = [], []
    try:
        for v in items:
            if type(v) is int:
                nums.append(v)
                dens.append(1)
                continue
            match = _RATIONAL.fullmatch(v) if type(v) is str else None
            if match is None:
                return None
            p, q = match.groups()
            nums.append(int(p))
            dens.append(1 if q is None else int(q))
    except ValueError:  # more digits than the interpreter converts
        return None
    if 0 in dens:
        return None
    den = lcm(*dens)
    if den == 1:
        return nums, 1
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _json_row(value: object, field: str) -> tuple[list[int], int]:
    """A JSON coefficient array as (integer numerators, common denominator),
    with no Fraction per coefficient; an array that :func:`_integer_ratios`
    does not read goes to :func:`_json_rational`, entry by entry, which names
    the first that it refuses."""
    read = _integer_ratios(_json_list(value, field))
    if read is None:
        p = Polynomial(_array_of(_json_rational)(value, field))
        return list(p.numerators), p.denominator
    return read


def _json_poly(value: object, field: str) -> Polynomial:
    """A polynomial from its JSON coefficient array (:func:`_json_row`)."""
    return Polynomial._from_integers(*_json_row(value, field))


# A tail's parsers, by its kind and by the JSON name of its anchor: with a kind
# that is neither, every field parser applies and the "kind" parser refuses it.
_TAIL_KIND = _one_of("vanishing", "quasipoly")
_TAIL_PARSERS = {
    anchor: {"kind": _TAIL_KIND, "polys": _array_of(_json_row), anchor: _json_int}
    for anchor in ("valid_from", "valid_to")
}


def _json_tail(value: object, field: str, anchor: str) -> tuple[list, int] | None:
    """A tail as None (kind ``vanishing``) or (rows, anchor) (kind
    ``quasipoly``), each row a polynomial's (numerators, denominator); its key
    ``anchor`` is ``valid_from`` or ``valid_to``."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind == "vanishing":
        parsers: Mapping[str, Parser] = {"kind": _TAIL_KIND}
    else:
        parsers = _TAIL_PARSERS[anchor]
    tail = _json_object(value, field, parsers, parsers if kind == "quasipoly" else ("kind",))
    return None if tail["kind"] == "vanishing" else (tuple(tail["polys"]), tail[anchor])


_CORE = {"start": _json_int, "values": _json_ints}

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
            table = _block_table(blocks[base:], 1)
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

    One expansion on the lengths themselves decides everything.  D is split as
    r * prod(1 - t^j) over divisors j of d (``_split``), so k is the number of
    factors, and the lengths are N/r by the recurrence on r alone, then one
    running sum per factor (``_lengths``), refused at the first n where they
    are not a length; each residue's Newton table at block m becomes its
    polynomial by one nested Horner pass on integers (``newton_form``).  The
    k-block tail is R/(1 - t^d)^k with deg R < dk, so past start =
    max(0, deg N - deg D + 1) the series less the tail has
    coefficients with a recurrence of order deg D + dk: P is a polynomial
    exactly when they vanish on start..start + deg D + dk - 1, and they vanish
    on the k blocks the tail was read off by construction.  Then f = Q +
    R/(1 - t^d)^k with deg Q = deg N - deg D, and ``valid_from`` = start is the
    honest boundary: at start - 1 >= 0 the series differs from the tail by Q's
    leading coefficient, which is not 0.

    When P is not a polynomial, either some pole of f is not a d-th root of
    unity, or one at a d-th root of unity other than 1 outranks the pole at 1,
    so that the coefficients go negative.  In the second case, and only then,
    r with its factors Phi_m (m | d) divided out divides N; the refusal says
    which case holds.  Only this classifier divides, on integer lists: each
    Phi_m, each factor divided out and the last test against N's numerators
    are one exact division (``_quotient``), the expansion's own recurrence.

    Each ``__post_init__`` check is proved on the way: the period up front,
    a nonempty core of ints and their signs by the length scan, the overlap
    by ``core_window`` (widened before an all-zero tail becomes None), the
    agreement by the agreement window and the tail's sign by the sign
    certificate on the residues' Newton tables at block m, with the refusal of
    ``_check_sign``.
    """
    _check_period(d)
    if probe < 0:
        raise ModelError(f"probe must be >= 0, got {probe}")
    js, r = _split(f.den.numerators, d)
    k = len(js)  # no pole of a nonnegative series outranks the one at 1
    start = max(0, f.num.degree - f.den.degree + 1)
    end = start + f.den.degree + d * k  # the tail must agree on start..end - 1
    values = _lengths(f, r, js, max(probe, start + d * (k + 1), end - 1) + 1)
    m = -(-start // d)  # the first block of degrees all >= start
    table = _block_table(values[d * m : d * (m + k)], d)
    qp = QuasiPolynomial._from_columns(d, *_reduced_columns(*_newton_columns(table, d, m)), start)
    # The blocks dm .. d(m+k) - 1 agree by construction; only the others can differ.
    # Point by point: k passes of _agrees over the window cost more at d = 2.
    window = ((start, d * m - 1), (d * (m + k), end - 1))
    den = qp.denominator
    if any(_values_at(qp.columns, d, a, b) != [c * den for c in values[a : b + 1]] for a, b in window):
        if _quotient(f.num.numerators, _strip_cyclotomic(r, d)) is not None:
            raise ModelError(
                "series coefficients eventually go negative: "
                "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
            )
        raise ModelError(
            f"not eventually a period-{d} quasi-polynomial: "
            "its poles are not all d-th roots of unity"
        )
    # A residue's ray starts at block m or m - 1, and at m - 1 the length scan and
    # the agreement window have shown a length: its first negative block is >= m.
    _check_sign(qp, "pos", _first_negatives(table, d, d * m, 1))
    core = values[: core_window(d, 0, probe, qp, None)[1] + 1]  # from 0 <= valid_from
    return LengthFunction._unchecked(d, 0, tuple(core), None if qp.is_zero() else qp, None)


def _split(den: tuple[int, ...], d: int) -> tuple[list[int], list[int]]:
    """(js, r) with den = r * prod(1 - t^j) over js: each divisor j of d,
    largest first, divided out while the division is exact.  j = 1 comes last,
    so r(1) != 0 and len(js) is the order of den's zero at t = 1; r(0) = den(0).
    The series r / (1 - t^j) is a polynomial exactly when its last j terms
    before degree len(r) vanish, and then it is the quotient."""
    js, r = [], list(den)
    for j in range(min(d, len(r) - 1), 0, -1):
        while d % j == 0 and len(r) > j and sum(r) == 0:  # 1 - t^j vanishes at t = 1
            q = _divided(r, j)
            if any(q[-j:]):
                break
            del q[-j:]
            r = q
            js.append(j)
    return js, r


def _divided(c: Iterable, j: int) -> list:
    """The series c / (1 - t^j) on c's terms: c_n + c_{n-j} + c_{n-2j} + ...,
    by one running sum per residue class mod j or one vector sum per block of
    j terms, whichever takes fewer steps."""
    if j == 1:
        return list(accumulate(c))
    c = list(c)
    if j * j <= len(c):
        for i in range(j):
            c[i::j] = accumulate(c[i::j])
    else:
        for lo in range(j, len(c), j):
            c[lo : lo + j] = map(add, c[lo : lo + j], c[lo - j : lo])
    return c


def _running_sums(u: list, js: list[int]) -> list:
    """u / prod(1 - t^j) over js, on u's terms, one factor at a time; the
    factors 1 - t, last in js, chain their running sums with no list between."""
    c: Iterable = u
    for j in js:
        c = accumulate(c) if j == 1 else _divided(c, j)
    return list(c)


def _recurrence(head: Iterable[int], terms: list[tuple[int, int]], lm: int, depth: int) -> Iterator:
    """The series of head / b on head's terms, for b = lm + sum b t^j over the
    (-j, b) in ``terms`` (N/r for ``_lengths``, num / den for ``_quotient``):
    each u_n = (head[n] - sum b u_{n-j}) / lm as an int, up to the first that
    is not an integer, which is the last, as a Fraction.  With no terms and
    lm = 1 it is head unchanged."""
    u = [0] * depth  # u_n = 0 for n < 0, so that u[-j] is u_{n-j}
    for acc in head:
        for back, b in terms:
            acc -= b * u[back]
        if lm != 1:
            if acc % lm:
                yield Fraction(acc, lm)
                return
            acc //= lm
        u.append(acc)
        yield acc


def _lengths(f: RationalFunction, r: list[int], js: list[int], size: int) -> list[int]:
    """c_0..c_{size - 1} of f = N/D, for D = r * prod(1 - t^j) over js; refused
    at the first n where c_n is not a length.

    With N = A/M and D = B/L over their common denominators, r(0) = L, so
    u = N/r = c * prod(1 - t^j) has u_n = (L A_n - M sum_{j>=1} r_j u_{n-j}) /
    (L M), which is N itself when r = L = M = 1; c is u's running sums.  The
    product has integer coefficients and constant term 1, so u_n is an integer
    exactly when c_n is, and the first that is not shows at the same n.  A c_n
    can be negative only at or after a negative u_n, so from the first one on
    the running sums are taken on doubling prefixes of u: a refusal expands at
    most about twice the terms up to it."""
    L, M = f.den.denominator, f.num.denominator
    lm, terms = L * M, [(-j, M * b) for j, b in enumerate(r) if j and b]
    head = [L * a for a in f.num.numerators[:size]]
    head += [0] * (size - len(head))
    if not terms and lm == 1 and min(head) >= 0:  # u = N is nonnegative, and so is every c_n
        return _running_sums(head, js)
    quotients = _recurrence(head, terms, lm, len(r) - 1)
    u: list = []
    signed = False  # some u_n < 0
    while len(u) < size:
        grown = len(u)
        u += islice(quotients, min(size, max(2 * grown, 16)) - grown)
        signed = signed or min(u[grown:]) < 0
        if signed or type(u[-1]) is Fraction:
            values = _running_sums(u, js)
            bad = next((n for n, c in enumerate(values) if c < 0 or type(c) is Fraction), None)
            if bad is not None:
                shown = _shown(values[bad])
                raise ModelError(f"series coefficient at n={bad} is {shown}; not a length")
    return values if signed else _running_sums(u, js)


def _quotient(num: Sequence[int], den: list[int]) -> list[int] | None:
    """num / den when it is a polynomial, else None, on integer lists
    (constant term first, trimmed), for a primitive den with den[0] != 0.  The
    series of num / den on num's terms (``_recurrence``) is the quotient
    exactly when no term past deg num - deg den is nonzero, and by Gauss's
    lemma that quotient has integer coefficients, so a Fraction term means den
    does not divide num.  Every call meets the precondition: D's numerators
    are primitive (normalizing D(0) = 1 makes numerators[0] the denominator,
    and ``Polynomial._from_integers`` divides out their gcd), ``_split``'s r
    and the stripped r are exact factors of them, and each Phi_m is monic."""
    size = max(len(num) - len(den) + 1, 0)
    q = list(_recurrence(num, [(-j, b) for j, b in enumerate(den) if j and b], den[0], len(den) - 1))
    if any(q[size:]) or q and type(q[-1]) is Fraction:
        return None
    return q[:size]


def _strip_cyclotomic(q: list[int], d: int) -> list[int]:
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
    bound = 2 * (len(q) - 1) ** 2
    small = [m for m in range(1, min(bound, isqrt(d)) + 1) if d % m == 0]
    cyclotomic: dict[int, list[int]] = {}
    for m in sorted({*small, *(d // m for m in small)}):
        if m > bound:
            break
        below = [c for e, c in cyclotomic.items() if m % e == 0]
        if m - sum(len(c) - 1 for c in below) > len(q) - 1:
            continue
        cyclotomic[m] = _quotient([1, *[0] * (m - 1), -1], reduce(_product, below, [1]))
        while (quotient := _quotient(q, cyclotomic[m])) is not None:
            q = quotient
    return q
