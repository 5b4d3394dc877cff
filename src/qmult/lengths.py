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

Fitting (:func:`fit_quasipoly`) recovers the tail of a sampled function by
Newton forward differences per residue class, working from the high end of the
window; the reported ``valid_from`` is the honest boundary found by scanning
back down, never an assumed one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .differences import newton_polynomial
from .exact import (
    Polynomial,
    RationalFunction,
    difference_table,
    nonnegative_on_ray,
    parse_rational,
    series_coefficients,
)


class ModelError(ValueError):
    """A length-function model is internally inconsistent or misused."""


class FitError(ValueError):
    """No quasi-polynomial stabilization within the sampled window."""

    def __init__(self, message: str, residue: int | None = None, best_degree: int | None = None):
        self.residue = residue
        self.best_degree = best_degree
        super().__init__(message)


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

    def negative_blocks(self, anchor: int, direction: int) -> Iterator[tuple[int, int]]:
        """The sign certificate: ``(i, block)`` for each residue i that goes negative
        at a degree d * block + i >= anchor (``direction=+1``) or <= anchor (-1).
        Residue i's ray starts at the ceiling of (anchor - i) / d going up, the
        floor going down."""
        for i, p in enumerate(self.polys):
            start = -direction * ((direction * (i - anchor)) // self.d)
            bad = nonnegative_on_ray(p, start, direction)
            if bad is not None:
                yield i, bad


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
        if qp(n) != expected:
            raise ModelError(
                f"{side} tail disagrees with the core at n={n}: "
                f"tail gives {qp(n)}, core holds {expected}"
            )
    # Nonnegativity out along the ray, certified by exact sign analysis.
    for i, block in qp.negative_blocks(qp.valid_from, direction):
        raise ModelError(
            f"{side} tail polynomial for residue {i} goes negative at block {block} "
            f"(degree n={lf.d * block + i})"
        )


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
        values = tuple(int(v) for v in self.core_values)
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
        value = qp(n)
        if value.denominator != 1 or value < 0:
            raise ModelError(f"tail evaluates to {value} at n={n}; not a length")
        return int(value)

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
    def from_json_dict(data: dict) -> LengthFunction:
        """Build a length function from its JSON form, coercing nothing.

        Integers must be JSON integers (not bools or floats) and rationals
        must be integers or "p"/"p/q" strings; anything else raises a
        :class:`ModelError` naming the offending field.
        """
        _require_keys(data, {"d", "core", "pos_tail", "neg_tail"}, "length function")
        core = data["core"]
        _require_keys(core, {"start", "values"}, "core")

        def tail_from(obj: dict, side: str, d: int) -> QuasiPolynomial | None:
            anchor_key = "valid_from" if side == "pos" else "valid_to"
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ModelError(f"{side}_tail must be an object with a 'kind'")
            if obj["kind"] == "vanishing":
                _require_keys(obj, {"kind"}, f"{side}_tail")
                return None
            if obj["kind"] == "quasipoly":
                _require_keys(obj, {"kind", anchor_key, "polys"}, f"{side}_tail")
                field = f"{side}_tail.polys"
                polys = tuple(
                    _json_poly(p, f"{field}[{i}]")
                    for i, p in enumerate(_json_list(obj["polys"], field))
                )
                anchor = _json_int(obj[anchor_key], f"{side}_tail.{anchor_key}")
                return QuasiPolynomial(d, polys, anchor)
            raise ModelError(f"unknown tail kind {obj['kind']!r}")

        d = _json_int(data["d"], "d")
        return LengthFunction(
            d,
            _json_int(core["start"], "core.start"),
            tuple(
                _json_int(v, f"core.values[{i}]")
                for i, v in enumerate(_json_list(core["values"], "core.values"))
            ),
            tail_from(data["pos_tail"], "pos", d),
            tail_from(data["neg_tail"], "neg", d),
        )


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
    """The JSON value in the file at ``path``; an integer too long to convert or
    nesting too deep to decode is a :class:`ModelError`, other errors pass."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:  # an integer longer than the interpreter converts
            digits = sys.get_int_max_str_digits()
            raise ModelError(f"a JSON integer has more than {digits} digits") from None
        except RecursionError:
            raise ModelError("JSON arrays or objects are nested too deeply") from None


def _json_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{field} must be an integer, got {value!r}")
    return value


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{field} must be an array, got {value!r}")
    return value


def _json_poly(value: object, field: str) -> Polynomial:
    return Polynomial(
        tuple(_json_rational(c, f"{field}[{k}]") for k, c in enumerate(_json_list(value, field)))
    )


def _json_rational(value: object, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(f'{field} must be an integer or a "p/q" string, got {value!r}')
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"{field} is not a rational: {value!r}") from None


def _require_keys(obj: dict, allowed: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ModelError(f"missing fields in {what}: {sorted(missing)}")


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

    Raises :class:`FitError` (carrying the residue class and the best
    candidate degree) when no stabilization is visible in the window.
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
            raise FitError(
                f"residue class {i} has only {len(blocks)} samples", residue=i, best_degree=None
            )
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
                f"(tried degrees up to {best})",
                residue=i,
                best_degree=best,
            )
        polys.append(fitted)

    qp = QuasiPolynomial(d, tuple(polys), lo)
    valid_from = lo
    for n in range(hi, lo - 1, -1):
        if qp(n) != samples[n]:
            valid_from = n + 1
            break
    return QuasiPolynomial(d, tuple(polys), valid_from)


def from_series(f: RationalFunction, d: int, probe: int) -> LengthFunction:
    """Expand a Hilbert series and fit its positive tail.

    The series is supported in degrees n >= 0, so the negative tail vanishes.
    ``probe`` must be large enough for the fit to stabilize and to leave the
    required core/tail overlap; otherwise a :class:`FitError` asking for a
    larger probe is raised.
    """
    _check_period(d)
    if probe < 3 * d:
        raise FitError(f"probe window [0, {probe}] is too small; increase probe")
    coeffs = series_coefficients(f, probe)
    values = []
    for n, c in enumerate(coeffs):
        if c.denominator != 1 or c < 0:
            raise ModelError(f"series coefficient at n={n} is {c}; not a length")
        values.append(int(c))
    try:
        qp = fit_quasipoly(dict(enumerate(values)), d)
    except FitError as err:
        raise FitError(
            f"increase probe: {err}", residue=err.residue, best_degree=err.best_degree
        ) from None
    if not qp.is_zero():
        need = qp.valid_from + d * (qp.max_degree + 2)
        if need > probe:
            raise FitError(
                f"increase probe: stabilization at n={qp.valid_from} leaves too "
                f"little overlap (need probe >= {need})",
                best_degree=qp.max_degree,
            )
    # An all-zero fit normalizes to a vanishing tail.
    return LengthFunction(d, 0, tuple(values), qp, None)
