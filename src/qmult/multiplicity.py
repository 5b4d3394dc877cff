"""Multiplicities of graded length functions.

The Herbrand difference of a period-d length function is

    h(n) = sum_{i=0}^{d-1} (-1)^{n+i} lambda(n+i)

For a function whose positive tail is quasi-polynomial with polynomials
g_0..g_{d-1} and complexity cx = 1 + max deg g_i, the (s-1)-fold index-d
difference of h stabilizes for every s >= cx >= 1.  There are two conventions
for the resulting multiplicity, and every report carries both, as ``e_delta``
and ``e_coeff``:

* ``delta``:        the stabilized value of D^{s-1} h itself; equals
                    (s-1)! * sum_i (-1)^i a_i.
* ``coefficient``:  (s-1)! * d^(s-1) * sum_i (-1)^i a_i, where a_i is the
                    degree s-1 coefficient of g_i.

The two differ by the factor d^(s-1); both stabilization chains are internally
consistent, so neither is "the" value, and the library never picks one.

Per residue class j, h(dm+j) is eventually sum_k (-1)^k g_k(m) plus unit
differences of degree <= s-2, and stepping by d in n is stepping by 1 in m, so
D^{s-1} h is eventually (s-1)! times the common t^(s-1) coefficient: the delta
value is computed from that formula, on the tail numerators over one common
denominator with one exact division.  It is certified on h, built once as a
list (one window sum, then h(n+1) = h(n) + (-1)^n (lambda(n+d) - lambda(n)))
and differenced as a whole list, s-1 passes of h(n+d) - h(n): D^{s-1} h must
equal the value on 3d consecutive tail degrees, and a scan below them reports
where the stabilization begins.  No Fraction is built on the way.  Along a
Koszul chain, step k's Herbrand difference is D^k h of the first function's
(d is even), so one list of D^{s-1} h confirms the value of every step.

The negative side (tails toward -infinity, operator D-) is computed as the
positive side of the reflection n -> lambda(-n), mapped back.  The delta
convention is the literal stabilized value in both directions; on the negative
side it differs from the coefficient formula by the sign (-1)^(s-1).

When the relevant complexity is 0 and the opposite tail vanishes, the
multiplicity of index 0 is the finite Euler characteristic
sum_n (-1)^n lambda(n), and both conventions agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, Context
from fractions import Fraction
from itertools import accumulate, count
from math import factorial
from typing import Sequence

# delta_op is unused since the certificate differences h as one list; the
# name stays because perfbench/tracer.py and perfbench/test_perfbench.py look
# it up on this module.
from .differences import delta as delta_op  # noqa: F401
from .differences import _binomial_sum
from .exact import Polynomial, QmultError, _block_table, format_rational
from .lengths import LengthFunction, ModelError, QuasiPolynomial, _integers


class MultiplicityError(QmultError):
    """A multiplicity was requested outside its domain of definition."""


def _sign(n: int) -> int:
    """(-1)^n for any integer n (integer powers of -1 go float when n < 0)."""
    return -1 if n % 2 else 1


def herbrand(lf: LengthFunction, n: int) -> int:
    """Alternating sum of lambda over the window [n, n+d)."""
    return sum(_sign(n + i) * lf(n + i) for i in range(lf.d))


@dataclass(frozen=True)
class MultiplicityReport:
    """Everything a multiplicity computation established, both conventions.

    ``tails`` holds the positive and the negative tail (``None`` where one
    vanishes); ``polys`` and ``polys_neg`` are their residue polynomials, ()
    for a vanishing tail, built when read."""

    side: str  # "positive" | "negative"
    s: int
    cx: int
    cx_neg: int
    e_delta: int
    e_coeff: int
    leading: tuple[Fraction, ...]
    tails: tuple[QuasiPolynomial | None, QuasiPolynomial | None]
    stabilization_index: int | None

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        return () if self.tails[0] is None else self.tails[0].polys

    @property
    def polys_neg(self) -> tuple[Polynomial, ...]:
        return () if self.tails[1] is None else self.tails[1].polys

    def to_json_dict(self) -> dict:
        pos, neg = ([] if qp is None else qp.to_json() for qp in self.tails)
        return {
            "side": self.side,
            "s": self.s,
            "cx": self.cx,
            "cx_neg": self.cx_neg,
            "e_delta": self.e_delta,
            "e_coeff": self.e_coeff,
            "leading": [format_rational(a) for a in self.leading],
            "polys": pos,
            "polys_neg": neg,
            "stabilization_index": self.stabilization_index,
        }


def _report(
    lf: LengthFunction,
    side: str,
    s: int,
    cx: int,
    e_delta: int,
    e_coeff: int,
    stabilization: int | None,
) -> MultiplicityReport:
    """The report of the index-s multiplicity on ``side``, whose complexity is
    ``cx``; everything not passed in is read off the tails of ``lf``."""
    other = "negative" if side == "positive" else "positive"
    cxs = {side: cx, other: lf.complexity(other)}
    qp = lf.tail(side)
    if qp is None:
        leading: tuple[Fraction, ...] = ()
    else:  # column s - 1, 0 past the top column
        column = qp.columns[s - 1] if s - 1 < len(qp.columns) else (0,) * qp.d
        leading = tuple(Fraction(c, qp.denominator) for c in column)
    return MultiplicityReport(
        side=side,
        s=s,
        cx=cxs["positive"],
        cx_neg=cxs["negative"],
        e_delta=e_delta,
        e_coeff=e_coeff,
        leading=leading,
        tails=(lf.pos_tail, lf.neg_tail),
        stabilization_index=stabilization,
    )


def euler_characteristic(lf: LengthFunction) -> int:
    """Alternating sum of lambda over its (finite) support."""
    if not lf.is_finite_support():
        raise MultiplicityError("Euler characteristic needs finite support")
    return _sign(lf.core_start) * (sum(lf.core_values[::2]) - sum(lf.core_values[1::2]))


def _multiplicity(lf: LengthFunction, s: int | None, side: str) -> MultiplicityReport:
    """The index-s multiplicity on ``side``, s the complexity when None: one
    domain check and one Euler case for both sides; the negative stabilized
    value is the positive one of the reflection, mapped back.  The complexity
    is computed once, here, for the check and the report."""
    name = "complexity" if side == "positive" else "negative complexity"
    cx = lf.complexity(side)
    if s is None:
        s = cx
    if s < cx:
        raise MultiplicityError(f"s={s} is below the {name} {cx}")

    if cx == 0:
        opposite = "negative" if side == "positive" else "positive"
        if s == 0 and lf.tail(opposite) is not None:
            raise MultiplicityError(
                f"{name} 0 with a non-vanishing {opposite} tail: "
                "the Euler characteristic is undefined"
            )
        e = euler_characteristic(lf) if s == 0 else 0
        return _report(lf, side, s, cx, e, e, None)

    if side == "positive":
        return _report(lf, side, s, cx, *_stabilized_report(lf, s, lf.core_start - 2 * lf.d))
    # D-^{s-1} h(n) is D^{s-1} of the reflection's Herbrand difference at
    # m = -n - reach, so the 3d confirmation windows coincide, and the scan
    # that stops above core_end + 2d here stops below its mirror image there.
    reach = s * (lf.d + 1) - 2
    e_delta, e_coeff, stabilization = _stabilized_report(
        lf.reflect(), s, -(lf.core_end + 2 * lf.d) - reach
    )
    return _report(lf, side, s, cx, e_delta, _sign(s - 1) * e_coeff, -stabilization - reach)


def multiplicity_pos(lf: LengthFunction, s: int | None = None) -> MultiplicityReport:
    """The index-s multiplicity at +infinity; s defaults to the complexity.

    Requires s >= cx.  For cx >= 1 the delta value is the formula
    (s-1)! * sum_i (-1)^i a_i on the leading coefficients of the tail
    polynomials, certified on the Herbrand difference h: D^{s-1} h equals it
    on 3d consecutive degrees, and ``stabilization_index`` is the lowest
    degree from which it holds (scanned down to the core).  For cx = 0 every
    s >= 1 value is 0, and the s = 0 value is the Euler characteristic, which
    needs the negative tail to vanish.
    """
    return _multiplicity(lf, s, "positive")


def multiplicity_neg(lf: LengthFunction, s: int | None = None) -> MultiplicityReport:
    """The index-s multiplicity at -infinity: the positive one of the
    reflection; s defaults to the negative complexity.

    The delta value is the literal stabilized value of D-^{s-1} h for n << 0,
    which relates to the coefficient formula by the extra sign (-1)^(s-1); at
    s = 1 the two sides agree, and on finite support e_0 equals the positive
    Euler characteristic.
    """
    return _multiplicity(lf, s, "negative")


def _stabilized_report(lf: LengthFunction, s: int, floor: int) -> tuple[int, int, int]:
    """The positive-side e_delta, e_coeff and stabilization index for s >= cx >= 1;
    the stabilization scan runs down from the certified region to ``floor`` at
    the lowest."""
    d, v = lf.d, lf.pos_tail.valid_from
    e_delta = _leading_value(lf.pos_tail, s)
    lo = min(floor, v)
    h = _herbrand_differences(lf, s, lo, v + 3 * d - 1)
    return e_delta, d ** (s - 1) * e_delta, _stable_from(h, lo, e_delta, v, d, floor)


def _leading_value(qp: QuasiPolynomial, s: int) -> int:
    """The delta value (s-1)! * sum_i (-1)^i a_i of a tail of complexity <= s,
    on integers: the alternating sum of column s - 1 of the numerators, over
    the common denominator, and one exact division."""
    column = qp.columns[s - 1] if s - 1 < len(qp.columns) else ()
    scaled = factorial(s - 1) * (sum(column[::2]) - sum(column[1::2]))
    e_delta, rest = divmod(scaled, qp.denominator)
    if rest:
        raise ModelError(f"stabilized difference is {Fraction(scaled, qp.denominator)}, not an integer")
    return e_delta


def _herbrand_differences(lf: LengthFunction, s: int, lo: int, hi: int) -> list[int]:
    """D^{s-1} h(n) for n = lo..hi as one list, for s >= 1.

    h is built as one list, h[k] = h(lo + k), up to top = hi + (s-1)d, the
    highest degree that D^{s-1} h(n) = sum of h(n), h(n+d), ..., h(n+(s-1)d)
    reads: one window sum at lo, then the running sum of the steps
    (-1)^m (lambda(m+d) - lambda(m)) (d is even).  Each of the s-1 passes of
    ``h = [b - a for a, b in zip(h, h[d:])]`` shortens it by d."""
    d = lf.d
    top = hi + (s - 1) * d
    lam = lf.values(lo, top + d)
    steps = [b - a for a, b in zip(lam, lam[d:-1])]
    odd = slice(1 - lo % 2, None, 2)  # the steps at odd m
    steps[odd] = [-x for x in steps[odd]]
    h = list(accumulate(steps, initial=_sign(lo) * (sum(lam[:d:2]) - sum(lam[1:d:2]))))
    for _ in range(s - 1):
        h = [b - a for a, b in zip(h, h[d:])]
    return h


def _stable_from(h: list[int], lo: int, e_delta: int, v: int, d: int, floor: int) -> int:
    """The stabilization index of D^{s-1} h, given as h[n - lo], at e_delta: one
    scan down from the top of the 3d consecutive certified degrees from v.  It
    must pass below v (the numeric confirmation), and where it stops, at
    ``floor`` at the lowest, is the honest boundary of the verified stable range."""
    n = v + 3 * d - 1
    while n >= floor and h[n - lo] == e_delta:
        n -= 1
    if n >= v:
        raise ModelError(f"numeric stabilization check failed at n={n}: {h[n - lo]} != {e_delta}")
    return n + 1


def _chain_values(chain: Sequence[LengthFunction], s: int) -> list[int]:
    """The delta values of index s - k of the functions chain[k] = lambda_k of a
    positive Koszul chain, lambda_k(n) = lambda_{k-1}(n + d) - lambda_{k-1}(n)
    everywhere, with no tail toward -infinity: each what
    ``multiplicity_pos(chain[k], s - k).e_delta`` gives, or raises, in order.

    As d is even, lambda_k's Herbrand difference is D^k h of chain[0]'s, so
    D^{s-k-1} of it is D^{s-1} h of chain[0]: one list serves every step.
    Each value is read from that step's own tail and confirmed on that
    step's own 3d window of the list."""
    d = chain[0].d
    anchors = [f.pos_tail.valid_from for f in chain if f.pos_tail is not None]
    if anchors:
        lo = min(anchors)
        h = _herbrand_differences(chain[0], s, lo, max(anchors) + 3 * d - 1)
    values = []
    for k, f in enumerate(chain):
        if f.pos_tail is None:  # complexity 0, no negative tail: e^0 is the Euler characteristic
            values.append(euler_characteristic(f) if k == s else 0)
            continue
        e_delta = _leading_value(f.pos_tail, s - k)
        v = f.pos_tail.valid_from
        _stable_from(h, lo, e_delta, v, d, v)
        values.append(e_delta)
    return values


def limit_estimate(
    lf: LengthFunction, s: int, n: int, constant: str = "paper"
) -> Fraction:
    """Finite-n multiplicity estimate: C * (sum_{j=0}^n (-1)^j lambda(j)) / n^s.

    ``constant="paper"`` uses C = s! d^(2s-1), which converges to the
    coefficient-convention value; ``constant="corrected"`` uses C = s! d^s,
    which converges to the delta-convention value.  When n is past the core,
    the alternating partial sum from the tail's anchor on is a closed-form
    Faulhaber sum per residue, so the cost is independent of n apart from the
    core window.  Every core holds
    max_degree + 2 blocks of each residue from the tail's anchor block, where
    the tail equals the core, so each residue's integer Newton table at that
    block is a slice of the core values, differenced; the sum of its
    polynomial over blocks is then :func:`_binomial_sum`.  It is all on
    integers, with no evaluation of a tail polynomial: the result is the one
    Fraction built.
    """
    if s < 1:
        raise MultiplicityError("limit estimates need s >= 1")
    if n < 1:
        raise MultiplicityError("limit estimates need n >= 1")
    if constant == "paper":
        factor = factorial(s) * lf.d ** (2 * s - 1)
    elif constant == "corrected":
        factor = factorial(s) * lf.d**s
    else:
        raise ValueError(f"unknown constant {constant!r}")

    d, qp = lf.d, lf.pos_tail
    tail = qp is not None and n > lf.core_end
    # The values are summed directly from 0 up to the tail, when there is one to sum.
    start = max(qp.valid_from, 0) if tail else min(n, lf.core_end) + 1
    direct = lf.values(0, start - 1)
    total = sum(direct[::2]) - sum(direct[1::2])
    if tail:
        v = qp.valid_from
        at = v - lf.core_start
        table = _block_table(list(lf.core_values[at : at + d * len(qp.columns)]), d)
        for i in range(d):
            anchor = -((i - v) // d)  # the residue's first block in the tail
            m_lo, m_hi = -((i - start) // d), (n - i) // d  # m_hi >= m_lo - 1, as n >= start
            entries = table[(i - v) % d :: d]
            if not any(entries):  # a zero residue polynomial
                continue
            blocks = _binomial_sum(entries, m_hi - anchor + 1) - _binomial_sum(entries, m_lo - anchor)
            total += _sign(i) * blocks
    return Fraction(factor * total, n**s)


def approximate(value: Fraction, spec: str) -> str:
    """``value`` as a float in the format ``spec``; past the float range
    (2^1024), where ``float`` raises, seven digits of a Decimal, whose
    exponent is unbounded."""
    try:
        return format(float(value), spec)
    except OverflowError:
        return f"{Context(prec=7, Emax=MAX_EMAX).divide(value.numerator, value.denominator):.6e}"


def theta_invariant(tor_lengths: LengthFunction) -> int:
    """Stabilized even/odd difference of homologically indexed lengths.

    The input holds lambda(n) = (length in homological degree n), supported in
    n >= 0 with eventually constant even and odd values.  The result
    a_even - a_odd is the index-1 positive multiplicity e_1 (by reflection the
    index-1 negative multiplicity of the cohomological reindexing n -> -n),
    read off the leading coefficients of the tail and certified, as every
    multiplicity is, by the numeric confirmation of the Herbrand difference.
    """
    if tor_lengths.d != 2:
        raise MultiplicityError("theta needs period d = 2")
    if tor_lengths.neg_tail is not None:
        raise MultiplicityError("homological input must vanish in negative degrees")
    # The core alone decides this, in time set by its length: a nonzero pos
    # tail agrees with the core on d * (max_degree + 2) points, so if it
    # reaches below 0 its nonzero values show in the core's negative part.
    lo = tor_lengths.core_start
    for k, v in enumerate(tor_lengths.core_values[: max(0, -lo)]):
        if v:
            raise MultiplicityError(
                f"homological input must vanish in negative degrees, but degree {lo + k} has length {v}"
            )
    qp = tor_lengths.pos_tail
    if qp is not None and qp.max_degree > 0:
        raise MultiplicityError(
            "lengths do not stabilize: even/odd values must be eventually constant"
        )
    return multiplicity_pos(tor_lengths, 1).e_delta


def serre_intersection(tor_lengths: Sequence[int]) -> int:
    """Alternating sum of a finite sequence of homological lengths.

    It is the Euler characteristic of the cohomological reindexing n -> -n
    term for term, so it is summed directly.
    """
    values = _integers(tor_lengths, "tor_lengths", MultiplicityError)
    if any(v < 0 for v in values):
        raise MultiplicityError("lengths must be nonnegative")
    return sum((-1) ** k * v for k, v in enumerate(values))


@dataclass(frozen=True)
class WindowResult:
    """Outcome of a vanishing-window scan."""

    status: str  # "confirmed" | "window_not_found" | "violated"
    window_start: int | None = None
    violation: int | None = None


def _first_run(tail: QuasiPolynomial, start: int, want: int, last: int | None = None) -> int | None:
    """The first n >= start (and <= last) of parity ``want`` at which the run
    sum of tail, sum_{j<d/2} tail(n + 2j), less one goes negative.  As d is
    even, n has the parity of its residue, so only those residues are summed."""
    d, g = tail.d, tail.polys + tail.shift(tail.d).polys  # tail(dm + k) is g[k](m), k < 2d
    sums = (sum(g[i : i + d : 2]) - 1 if i % 2 == want else Polynomial() for i in range(d))
    runs = QuasiPolynomial(d, tuple(sums), start).negative_degrees(start)
    return min((n for n in runs if last is None or n <= last), default=None)


def vanishing_window_check(lf: LengthFunction, m0: int, parity: str) -> WindowResult:
    """Test the vanishing pattern: when the top multiplicity is 0, does a run
    of d/2 zero values at one parity at or after m0 force lambda = 0 from m0 on?

    A run is searched on the negative tail while n + d - 2 <= valid_to, then
    at each degree up to the positive tail, then on it.  On a tail the run sum
    R(n) = sum_{j<d/2} lambda(n+2j) is a nonnegative integer quasi-polynomial,
    so a run is a point where R - 1 goes negative, and the tail-sign
    certificate finds the first one in each residue class.  The conclusion is
    then checked, and the first violation reported when the implication fails
    on this data.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    s = lf.complexity("positive")
    top = multiplicity_pos(lf, s).e_delta
    if top != 0:
        raise MultiplicityError(f"vanishing check needs e^s = 0, got {top}")

    d, qp = lf.d, lf.pos_tail
    want = 0 if parity == "even" else 1
    start = m0 if m0 % 2 == want else m0 + 1
    run_at, look = None, start
    if lf.neg_tail is not None:
        last = lf.neg_tail.valid_from - d + 2  # the last run that reads this tail alone
        run_at = _first_run(lf.neg_tail, start, want, last)
        look = max(start, last + 1 + (last + 1 - start) % 2)  # of start's parity
    # A vanishing tail is zero past core_end, so a run starts by core_end + 2.
    end = max(start, lf.core_end + 2) + 1 if qp is None else qp.valid_from
    if run_at is None:
        looked = (n for n in range(look, end, 2) if all(lf(n + 2 * j) == 0 for j in range(d // 2)))
        run_at = next(looked, None)
    if run_at is None and qp is not None:
        run_at = _first_run(qp, max(start, end), want)
    if run_at is None:
        return WindowResult("window_not_found")

    # A nonzero tail polynomial of degree e has at most e integer zeros, so
    # the search on a tail ends.  Below a vanishing negative tail all is zero.
    first = m0 if lf.neg_tail is not None else max(m0, lf.core_start)
    ks = range(first, lf.core_end + 1) if qp is None else count(first)
    violation = next((k for k in ks if lf(k) != 0), None)
    if violation is not None:
        return WindowResult("violated", window_start=run_at, violation=violation)
    return WindowResult("confirmed", window_start=run_at)
