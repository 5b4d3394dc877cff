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
where the stabilization begins.  No Fraction is built on the way.

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
from fractions import Fraction
from itertools import accumulate, count
from math import factorial, lcm
from typing import Sequence

# delta_op is unused since the certificate differences h as one list; the
# name stays because perfbench/tracer.py and perfbench/test_perfbench.py look
# it up on this module.
from .differences import delta as delta_op  # noqa: F401
from .differences import faulhaber_sum
from .exact import Polynomial, QmultError, format_rational
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
    """Everything a multiplicity computation established, both conventions."""

    side: str  # "positive" | "negative"
    s: int
    cx: int
    cx_neg: int
    e_delta: int
    e_coeff: int
    leading: tuple[Fraction, ...]
    polys: tuple[Polynomial, ...]
    polys_neg: tuple[Polynomial, ...]
    stabilization_index: int | None

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "s": self.s,
            "cx": self.cx,
            "cx_neg": self.cx_neg,
            "e_delta": self.e_delta,
            "e_coeff": self.e_coeff,
            "leading": [format_rational(a) for a in self.leading],
            "polys": [p.to_json() for p in self.polys],
            "polys_neg": [p.to_json() for p in self.polys_neg],
            "stabilization_index": self.stabilization_index,
        }


def _report(
    lf: LengthFunction, side: str, s: int, e_delta: int, e_coeff: int, stabilization: int | None
) -> MultiplicityReport:
    """The report of the index-s multiplicity on ``side``; everything not
    passed in is read off the tails of ``lf``."""
    polys = {
        key: () if lf.tail(key) is None else lf.tail(key).polys
        for key in ("positive", "negative")
    }
    return MultiplicityReport(
        side=side,
        s=s,
        cx=lf.complexity("positive"),
        cx_neg=lf.complexity("negative"),
        e_delta=e_delta,
        e_coeff=e_coeff,
        leading=tuple(p.coefficient(s - 1) for p in polys[side]),
        polys=polys["positive"],
        polys_neg=polys["negative"],
        stabilization_index=stabilization,
    )


def euler_characteristic(lf: LengthFunction) -> int:
    """Alternating sum of lambda over its (finite) support."""
    if not lf.is_finite_support():
        raise MultiplicityError("Euler characteristic needs finite support")
    return sum(
        _sign(lf.core_start + k) * v for k, v in enumerate(lf.core_values)
    )


def _multiplicity(lf: LengthFunction, s: int, side: str) -> MultiplicityReport:
    """The index-s multiplicity on ``side``: one domain check and one Euler
    case for both sides; the negative stabilized value is the positive one of
    the reflection, mapped back."""
    name = "complexity" if side == "positive" else "negative complexity"
    cx = lf.complexity(side)
    if s < cx:
        raise MultiplicityError(f"s={s} is below the {name} {cx}")

    if cx == 0:
        opposite = "negative" if side == "positive" else "positive"
        if lf.tail(opposite) is not None:
            raise MultiplicityError(
                f"{name} 0 with a non-vanishing {opposite} tail: "
                "the Euler characteristic is undefined"
            )
        e = euler_characteristic(lf) if s == 0 else 0
        return _report(lf, side, s, e, e, None)

    if side == "positive":
        return _report(lf, side, s, *_stabilized_report(lf, s, lf.core_start - 2 * lf.d))
    # D-^{s-1} h(n) is D^{s-1} of the reflection's Herbrand difference at
    # m = -n - reach, so the 3d confirmation windows coincide, and the scan
    # that stops above core_end + 2d here stops below its mirror image there.
    reach = s * (lf.d + 1) - 2
    e_delta, e_coeff, stabilization = _stabilized_report(
        lf.reflect(), s, -(lf.core_end + 2 * lf.d) - reach
    )
    return _report(lf, side, s, e_delta, _sign(s - 1) * e_coeff, -stabilization - reach)


def multiplicity_pos(lf: LengthFunction, s: int) -> MultiplicityReport:
    """The index-s multiplicity at +infinity.

    Requires s >= cx.  For cx >= 1 the delta value is the formula
    (s-1)! * sum_i (-1)^i a_i on the leading coefficients of the tail
    polynomials, certified on the Herbrand difference h: D^{s-1} h equals it
    on 3d consecutive degrees, and ``stabilization_index`` is the lowest
    degree from which it holds (scanned down to the core).  For cx = 0 (where
    the negative tail must vanish) the s = 0 value is the Euler characteristic
    and every s >= 1 value is 0.
    """
    return _multiplicity(lf, s, "positive")


def multiplicity_neg(lf: LengthFunction, s: int) -> MultiplicityReport:
    """The index-s multiplicity at -infinity: the positive one of the reflection.

    The delta value is the literal stabilized value of D-^{s-1} h for n << 0,
    which relates to the coefficient formula by the extra sign (-1)^(s-1); at
    s = 1 the two sides agree, and on finite support e_0 equals the positive
    Euler characteristic.
    """
    return _multiplicity(lf, s, "negative")


def _stabilized_report(lf: LengthFunction, s: int, floor: int) -> tuple[int, int, int]:
    """The positive-side e_delta, e_coeff and stabilization index for s >= cx >= 1;
    the stabilization scan runs down from the certified region to ``floor`` at
    the lowest.

    Everything is on integers.  The alternating sum of the degree s-1
    numerators, each scaled to the lcm of the tail denominators, gives e_delta
    by one exact division.  The certificate differences h as one ascending
    list: s-1 passes of ``h = [b - a for a, b in zip(h, h[d:])]`` leave
    D^{s-1} h at every degree the scan reads."""
    qp = lf.pos_tail
    assert qp is not None
    d, v = lf.d, qp.valid_from
    den = lcm(*(p.denominator for p in qp.polys))
    alternating = sum(
        _sign(i) * p.numerators[s - 1] * (den // p.denominator)
        for i, p in enumerate(qp.polys)
        if p.degree >= s - 1
    )
    scaled = factorial(s - 1) * alternating
    e_delta, rest = divmod(scaled, den)
    if rest:
        raise ModelError(f"stabilized difference is {Fraction(scaled, den)}, not an integer")

    # h as one list, h[k] = h(lo + k), from the lowest degree the scan reads
    # up to top, the highest that D^{s-1} h(n) = sum of h(n), h(n+d), ...,
    # h(n+(s-1)d) reads in the confirmation: one window sum at lo, then the
    # running sum of the steps (-1)^m (lambda(m+d) - lambda(m)) (d is even).
    # Each pass of D shortens the list by d, so after s-1 passes h[k] is
    # D^{s-1} h(lo + k) for every lo + k <= v + 3d - 1.
    top = v + (s + 2) * d - 1
    lo = min(floor, v)
    lam = lf.values(lo, top + d)
    steps = [b - a for a, b in zip(lam, lam[d:-1])]
    odd = slice(1 - lo % 2, None, 2)  # the steps at odd m
    steps[odd] = [-x for x in steps[odd]]
    h = list(accumulate(steps, initial=herbrand(lf, lo)))
    for _ in range(s - 1):
        h = [b - a for a, b in zip(h, h[d:])]

    # One scan down from the top of the 3d consecutive certified degrees: it
    # must pass below v (the numeric confirmation), and where it stops is the
    # honest boundary of the verified stable range.
    n = v + 3 * d - 1
    while n >= floor and h[n - lo] == e_delta:
        n -= 1
    if n >= v:
        raise ModelError(f"numeric stabilization check failed at n={n}: {h[n - lo]} != {e_delta}")
    return e_delta, d ** (s - 1) * e_delta, n + 1


def limit_estimate(
    lf: LengthFunction, s: int, n: int, constant: str = "paper"
) -> Fraction:
    """Finite-n multiplicity estimate: C * (sum_{j=0}^n (-1)^j lambda(j)) / n^s.

    ``constant="paper"`` uses C = s! d^(2s-1), which converges to the
    coefficient-convention value; ``constant="corrected"`` uses C = s! d^s,
    which converges to the delta-convention value.  The alternating partial
    sum is evaluated with closed-form Faulhaber sums on the quasi-polynomial
    tail, so the cost is independent of n apart from the core window.
    """
    if s < 1:
        raise MultiplicityError("limit estimates need s >= 1")
    if n < 1:
        raise MultiplicityError("limit estimates need n >= 1")
    if constant == "paper":
        factor = Fraction(factorial(s) * lf.d ** (2 * s - 1))
    elif constant == "corrected":
        factor = Fraction(factorial(s) * lf.d**s)
    else:
        raise ValueError(f"unknown constant {constant!r}")

    direct = lf.values(0, min(n, lf.core_end))
    total = Fraction(sum(direct[::2]) - sum(direct[1::2]))
    qp = lf.pos_tail
    if n > lf.core_end and qp is not None:
        # The tail sums the degrees past the core that the direct sum left out,
        # which start at 0 even when the core ends below it.
        start = max(lf.core_end + 1, 0)
        for i, g in enumerate(qp.polys):
            if g.is_zero():
                continue
            m_lo = -((start - i) // -lf.d)  # ceil
            m_hi = (n - i) // lf.d
            if m_hi >= m_lo:
                total += _sign(i) * faulhaber_sum(g, m_lo, m_hi)
    return factor * total / Fraction(n) ** s


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


def vanishing_window_check(lf: LengthFunction, m0: int, parity: str) -> WindowResult:
    """Test the vanishing pattern: when the top multiplicity is 0, does a run
    of d/2 zero values at one parity at or after m0 force lambda = 0 from m0 on?

    Runs that start below the positive tail are found by looking.  On the tail
    the run sum R(n) = sum_{j<d/2} lambda(n+2j) is a nonnegative integer
    quasi-polynomial, so a run is a point where R - 1 goes negative, and the
    tail-sign certificate finds the first one in each residue class.  The
    conclusion is then checked, and the first violation reported when the
    implication fails on this data.
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
    # A vanishing tail is zero past core_end, so a run starts by core_end + 2.
    end = max(start, lf.core_end + 2) + 1 if qp is None else qp.valid_from
    below = range(start, end, 2)
    run_at = next((n for n in below if all(lf(n + 2 * j) == 0 for j in range(d // 2))), None)
    if run_at is None and qp is not None:
        shifted = zip(*(qp.shift(2 * j).polys for j in range(d // 2)))
        less_one = QuasiPolynomial(d, tuple(sum(ps, Polynomial()) - 1 for ps in shifted), end)
        runs = less_one.negative_degrees(max(start, end), 1)
        run_at = min((n for n in runs if n % 2 == want), default=None)
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
