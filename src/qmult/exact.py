"""Exact rational arithmetic: dense univariate polynomials and rational functions.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator).  A polynomial is dense, constant term first,
with no trailing zeros, and stores its coefficients in one form only: integer
``numerators`` over one common ``denominator`` (the lcm of the coefficient
denominators, 1 for the zero polynomial, which has no numerators and degree
-1).  The Fraction tuple ``coeffs`` is computed when it is read.  Sums,
differences, negation, products and powers, evaluation and the Taylor shift
behind ``compose_linear`` all run on those integers and divide once at the
end, so the hot loops do no Fraction arithmetic.  The series recurrence is an
integer core, ``series_integers``, which gives each coefficient as a pair
(U_n, scale_n) with c_n = U_n / scale_n; a reader that needs lengths divides
once per coefficient and builds no Fraction, and ``series_coefficients`` is
the Fraction view of the same loop.  At an integer m, ``numerator_at`` gives
the integer denominator * p(m) with no division at all; the difference tables
of the sign certificate (``nonnegative_on_ray``) and of the Faulhaber sum are
built from it.  A rational function stores a numerator and a denominator
polynomial; the denominator must have a nonzero constant term, so every
rational function here expands as a power series at t = 0.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]


class QmultError(ValueError):
    """The base of every error qmult raises on bad input or an undefined
    request; the command line reports each as one ``error:`` line, exit 1."""


class NotExpandableError(QmultError):
    """Denominator has a zero constant term: no power series at t = 0."""


def format_rational(q: Scalar) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction.

    The accepted grammar is ASCII ``-?[0-9]+(/[0-9]+)?`` and nothing else: no
    whitespace, '+' sign, underscores or non-ASCII digits.  Anything else
    raises ValueError, and a zero denominator raises ZeroDivisionError.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


@dataclass(frozen=True, init=False)
class Polynomial:
    """Dense univariate polynomial over the rationals.

    ``Polynomial(coeffs)`` takes the coefficients constant term first, as any
    values ``Fraction`` accepts; trailing zeros are dropped, so the zero
    polynomial is ``Polynomial()`` with degree -1.  The only stored fields are
    the integer ``numerators`` and the positive ``denominator``, reduced so
    that ``coeffs[k] == numerators[k] / denominator`` and ``denominator`` is
    the lcm of the coefficient denominators; equality and hashing compare them.

    >>> (Polynomial.t() + 1) * (Polynomial.t() - 1)
    Polynomial('t^2 - 1')
    """

    numerators: tuple[int, ...]
    denominator: int

    def __new__(cls, coeffs: Iterable[Scalar] = ()) -> Polynomial:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return cls._from_integers([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _from_integers(cls, nums: list[int], den: int) -> Polynomial:
        """The polynomial with coefficients nums[k] / den, for a positive den.

        Trims trailing zeros and divides out gcd(den, *nums), which leaves den
        the lcm of the coefficient denominators.
        """
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            den = 1
        else:
            g = gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "numerators", tuple(nums))
        object.__setattr__(poly, "denominator", den)
        return poly

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @staticmethod
    def const(c: Scalar) -> Polynomial:
        c = Fraction(c)
        return Polynomial._from_integers([c.numerator], c.denominator)

    @staticmethod
    def t() -> Polynomial:
        return Polynomial._from_integers([0, 1], 1)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def leading_term(self) -> tuple[int, Fraction]:
        """Return (degree, leading coefficient); (-1, 0) for the zero polynomial."""
        return (self.degree, self.coefficient(self.degree))

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (0 beyond the stored degree)."""
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at a rational point x = p/q by Horner's rule on the numerators.

        The k-th step adds numerators[deg - k] * q^k, so the loop ends with
        acc = q^deg * denominator * g(x) and power = q^(deg + 1); the one
        division comes at the end.
        """
        p, q = x.numerator, x.denominator
        acc, power = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * power
            power *= q
        return Fraction(acc * q, self.denominator * power)

    def numerator_at(self, m: int) -> int:
        """denominator * g(m) at an integer m, by Horner's rule on the numerators.

        >>> Polynomial((Fraction(1, 2), 0, Fraction(1, 3))).numerator_at(-2)
        11
        """
        acc = 0
        for c in reversed(self.numerators):
            acc = acc * m + c
        return acc

    def _combine(self, other: Polynomial, sign: int) -> Polynomial:
        """self + sign * other, over the lcm of the two denominators."""
        den = lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator * sign
        out = [c * a for c in self.numerators]
        if len(out) < len(other.numerators):
            out += [0] * (len(other.numerators) - len(out))
        for k, c in enumerate(other.numerators):
            out[k] += c * b
        return Polynomial._from_integers(out, den)

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        return self._combine(_as_poly(other), 1)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self._combine(_as_poly(other), -1)

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        return _as_poly(other)._combine(self, -1)

    def __neg__(self) -> Polynomial:
        return Polynomial._from_integers([-c for c in self.numerators], self.denominator)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        """Integer convolution of the numerators over the product of the
        denominators; zero numerators of either factor are skipped, and a
        factor 1 gives the other factor back."""
        other = _as_poly(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return Polynomial()
        if a == (1,) and self.denominator == 1:
            return other
        if b == (1,) and other.denominator == 1:
            return self
        terms = [(j, c) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, e in terms:
                    out[i + j] += c * e
        return Polynomial._from_integers(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the last square would go unused, and it is the largest product
                base = base * base
        return result

    def shift(self, c: Scalar) -> Polynomial:
        """Return g(t + c), expanded exactly.

        >>> Polynomial((0, 0, 1)).shift(1)
        Polynomial('t^2 + 2*t + 1')
        """
        return self.compose_linear(1, c)

    def compose_linear(self, a: Scalar, b: Scalar) -> Polynomial:
        """Return g(a*t + b), expanded exactly in integers.

        With b = p/q, G(u) = q^deg * denominator * g(u/q) has the integer
        coefficients numerators[k] * q^(deg-k), and g(a*t + b) = G(q*a*t + p) /
        (q^deg * denominator).  G(u + p) is a Taylor shift done in place by
        repeated synthetic division; substituting u = q*a*t then scales its k-th
        coefficient by (q*a)^k, with a's denominator cleared as well.
        """
        if self.is_zero():
            return self
        deg = self.degree
        p, q = b.numerator, b.denominator
        qa, a_den = q * a.numerator, a.denominator
        nums = [c * q ** (deg - k) for k, c in enumerate(self.numerators)]
        for i in range(deg):
            for k in range(deg - 1, i - 1, -1):
                nums[k] += p * nums[k + 1]
        for k in range(deg + 1):
            nums[k] *= qa**k * a_den ** (deg - k)
        return Polynomial._from_integers(nums, self.denominator * (q * a_den) ** deg)

    def forward_difference(self) -> Polynomial:
        """Return g(t + 1) - g(t); degree drops by exactly one when g is nonconstant."""
        return self.shift(1) - self

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            if parts:
                sign = " - " if c < 0 else " + "
            else:
                sign = "-" if c < 0 else ""
            mag = abs(c)
            unit = mag == 1
            if k == 0:
                body = format_rational(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if unit else f"{format_rational(mag)}*{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial('{self}')"

    def to_json(self) -> list[str]:
        """Coefficient array, constant term first: each numerator over the
        denominator, reduced by their gcd."""
        out = []
        for c in self.numerators:
            g = gcd(c, self.denominator)
            out.append(str(c // g) if g == self.denominator else f"{c // g}/{self.denominator // g}")
        return out


def _as_poly(x: Polynomial | Scalar) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    return Polynomial.const(x)


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials, normalized so the denominator has constant term 1.

    Construction fails with :class:`NotExpandableError` when the denominator's
    constant term is zero (including the zero denominator), since such a
    quotient has no power-series expansion at t = 0.  Equality is exact
    equality of values, decided by cross-multiplication; no polynomial gcd is
    ever computed.
    """

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        nums = self.den.numerators
        if not nums or nums[0] == 0:
            raise NotExpandableError("denominator has zero constant term")
        if nums[0] != self.den.denominator:  # den(0) != 1
            inverse = Fraction(self.den.denominator, nums[0])
            object.__setattr__(self, "num", self.num * inverse)
            object.__setattr__(self, "den", self.den * inverse)

    @staticmethod
    def from_polynomial(p: Polynomial) -> RationalFunction:
        return RationalFunction(p, Polynomial.const(1))

    @staticmethod
    def const(c: Scalar) -> RationalFunction:
        return RationalFunction.from_polynomial(Polynomial.const(c))

    def __add__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        # Raises NotExpandableError when other.num has zero constant term.
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            raise ValueError("rational function powers must be nonnegative")
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]  # semantic equality, not hashable

    def __str__(self) -> str:
        num = f"({self.num})"
        if self.den == Polynomial.const(1):
            return num
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"


def series_integers(f: RationalFunction, n_max: int) -> Iterator[tuple[int, int]]:
    """The coefficients c_0..c_n_max of f's power series at t = 0, as integer
    pairs (U_n, scale_n) with c_n = U_n / scale_n and scale_n > 0, in order.

    Uses the linear recurrence induced by the denominator: with den(0)
    normalized to 1, c_n = p_n - sum_{k>=1} q_k c_{n-k}, summed over the
    nonzero q_k only.  It runs on integers: with den = Q/L (so Q_0 = L) and
    num = P/M over their stored common denominators,

        U_n = L^n P_n - sum_{k>=1} Q_k L^(k-1) U_{n-k}

    is an integer and c_n = U_n / (M L^n).  When L > 1, L^n can outgrow the
    reduced denominators (by a factor of 3^n for (3 - 2t)^2); past the
    numerator the recurrence is homogeneous, so after each step a common
    factor of the next scale and of the values still read is divided out of
    all of them.  When L == 1 the scale is M throughout.  Cost is
    O(n_max * (number of nonzero Q_k)) integer operations, which keeps sparse
    denominators such as (1 - t^2)(1 - t^120) cheap.  The pairs come one at a
    time, so a reader that stops early expands no further.

    >>> f = RationalFunction(Polynomial.const(1), Polynomial((2, 1)))
    >>> list(series_integers(f, 2))
    [(1, 2), (-1, 4), (1, 8)]
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    L = f.den.denominator  # == Q_0, since den(0) == 1 after normalization
    recurrence = [(k, q * L ** (k - 1)) for k, q in enumerate(f.den.numerators) if k and q]
    depth = recurrence[-1][0] if recurrence else 0
    P = f.num.numerators
    us: list[int] = []
    power, scale = 1, f.num.denominator  # L^n, and M * L^n less what was divided out
    for n in range(n_max + 1):
        acc = P[n] * power if n < len(P) else 0
        for k, q in recurrence:
            if k > n:
                break
            acc -= q * us[n - k]
        us.append(acc)
        yield acc, scale
        power *= L
        scale *= L
        if L > 1 and n + 1 >= len(P):  # homogeneous from the next step on
            g = gcd(L, scale, *us[-depth:])
            if g > 1:
                scale //= g
                us[-depth:] = [u // g for u in us[-depth:]]


def series_coefficients(f: RationalFunction, n_max: int) -> list[Fraction]:
    """Coefficients c_0..c_n_max of the power-series expansion of f at t = 0:
    the Fraction view of :func:`series_integers`, one Fraction per coefficient.

    >>> one_minus_t = Polynomial((1, -1))
    >>> f = RationalFunction(Polynomial.const(1), one_minus_t ** 3)
    >>> [int(c) for c in series_coefficients(f, 4)]
    [1, 3, 6, 10, 15]
    """
    return [Fraction(u, scale) for u, scale in series_integers(f, n_max)]


def cauchy_horizon(p: Polynomial) -> int:
    """An integer beyond every real root of a nonconstant p, in absolute value.

    Cauchy's bound puts all real roots in |m| <= 1 + max |c_k / lead|; the
    horizon is its integer part plus one.  The ratios are those of the integer
    numerators, so the horizon is max |n_k| // |n_lead| + 2.
    """
    if p.degree < 1:
        raise ValueError("the Cauchy bound needs a nonconstant polynomial")
    *rest, lead = p.numerators
    return max(abs(c) for c in rest) // abs(lead) + 2


def difference_table(values: list) -> list:
    """Newton's forward differences at the first point, computed in place.

    On entry ``values[i]`` is f(x + i) for i = 0..k; on return it is
    Delta^i f(x).  For a polynomial f of degree <= k, Newton's forward formula
    f(x + j) = sum_i Delta^i f(x) * C(j, i) then holds at every integer j.

    >>> difference_table([0, 1, 4, 9])
    [0, 1, 2, 0]
    """
    k = len(values) - 1
    for step in range(1, k + 1):
        for i in range(k, step - 1, -1):
            values[i] -= values[i - 1]
    return values


def nonnegative_on_ray(p: Polynomial, start: int) -> int | None:
    """Check p(m) >= 0 for every integer m >= start, exactly.

    Returns None when the polynomial is nonnegative on the whole ray, else a
    violating integer m: the first one from start up, or a point past the
    Cauchy horizon when the leading coefficient is negative.  The ray goes one
    way; a ray m <= start is the ray m >= -start of p(-m).

    The certificate is the forward-difference table of p at start, built from
    deg + 1 integer evaluations of denominator * p, which has p's signs.  By
    Newton's forward formula p(m + j) = sum_k Delta^k p(m) * C(j, k), and
    C(j, k) >= 0 at every integer j >= 0, so once
    every entry of the table is >= 0 the ray is certified from there on.
    Until then the table walks one step up at a time (deg additions a step),
    and the first step whose entry Delta^0 p is negative is the violation.
    Past the horizon p has no roots and keeps the sign of its leading term, so
    the walk never goes beyond it.
    """
    if p.is_zero():
        return None
    deg, lead = p.leading_term()
    if deg == 0:
        return None if lead > 0 else start
    horizon = cauchy_horizon(p)
    if lead < 0:
        return max(start, horizon + 1)
    if start > horizon:
        return None
    table = difference_table([p.numerator_at(start + i) for i in range(deg + 1)])
    m = start
    while m <= horizon:
        if table[0] < 0:
            return m
        if all(entry >= 0 for entry in table):
            return None
        for k in range(deg):
            table[k] += table[k + 1]
        m += 1
    return None
