"""Exact rational arithmetic: dense univariate polynomials and rational functions.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator).  A polynomial is a dense tuple of Fraction
coefficients with the constant term first and no trailing zeros; the zero
polynomial is the empty tuple and has degree -1.  Each polynomial also stores
its coefficients once more as integer ``numerators`` over one common
``denominator`` (the lcm of the coefficient denominators, 1 for the zero
polynomial).  Evaluation and the Taylor shift behind ``compose_linear`` run on
those integers and divide once at the end, so the hot loops do no Fraction
arithmetic.  A rational function stores a
numerator and a denominator polynomial; the denominator must have a nonzero
constant term, so every rational function here expands as a power series at
t = 0.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]


class NotExpandableError(ValueError):
    """Denominator has a zero constant term: no power series at t = 0."""


def format_rational(q: Scalar) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _trim(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of t^k; there are no trailing zeros, so
    the zero polynomial is ``Polynomial()`` with degree -1.  The derived
    fields hold the same coefficients as ``numerators[k] / denominator``.

    >>> (Polynomial.t() + 1) * (Polynomial.t() - 1)
    Polynomial('t^2 - 1')
    """

    coeffs: tuple[Fraction, ...] = ()
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = _trim(self.coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(
            self, "numerators", tuple(c.numerator * (den // c.denominator) for c in coeffs)
        )
        object.__setattr__(self, "denominator", den)

    @staticmethod
    def const(c: Scalar) -> Polynomial:
        return Polynomial((Fraction(c),))

    @staticmethod
    def t() -> Polynomial:
        return Polynomial((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_term(self) -> tuple[int, Fraction]:
        """Return (degree, leading coefficient); (-1, 0) for the zero polynomial."""
        if not self.coeffs:
            return (-1, Fraction(0))
        return (len(self.coeffs) - 1, self.coeffs[-1])

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (0 beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
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

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        return _as_poly(other) + (-self)

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        den = self.denominator * (q * a_den) ** deg
        return Polynomial(tuple(Fraction(c, den) for c in nums))

    def forward_difference(self) -> Polynomial:
        """Return g(t + 1) - g(t); degree drops by exactly one when g is nonconstant."""
        return self.shift(1) - self

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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
        """Coefficient array, constant term first."""
        return [format_rational(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str | int]) -> Polynomial:
        return Polynomial(tuple(parse_rational(str(c)) for c in data))


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
        c0 = self.den.coefficient(0)
        if c0 == 0:
            raise NotExpandableError("denominator has zero constant term")
        if c0 != 1:
            object.__setattr__(self, "num", self.num * (1 / c0))
            object.__setattr__(self, "den", self.den * (1 / c0))

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


def series_coefficients(f: RationalFunction, n_max: int) -> list[Fraction]:
    """Coefficients c_0..c_n_max of the power-series expansion of f at t = 0.

    Uses the linear recurrence induced by the denominator: with den(0)
    normalized to 1, c_n = p_n - sum_{k>=1} q_k c_{n-k}, summed over the
    nonzero q_k only.  Cost is O(n_max * (number of nonzero q_k)) exact
    rational operations, which keeps sparse denominators such as
    (1 - t^2)(1 - t^120) cheap.

    >>> one_minus_t = Polynomial((1, -1))
    >>> f = RationalFunction(Polynomial.const(1), one_minus_t ** 3)
    >>> [int(c) for c in series_coefficients(f, 4)]
    [1, 3, 6, 10, 15]
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # q_0 == 1 after normalization
    recurrence = [(k, q) for k, q in enumerate(f.den.coeffs) if k and q]
    out: list[Fraction] = []
    for n in range(n_max + 1):
        acc = f.num.coefficient(n)
        for k, q in recurrence:
            if k > n:
                break
            acc -= q * out[n - k]
        out.append(acc)
    return out


def cauchy_horizon(p: Polynomial) -> int:
    """An integer beyond every real root of a nonconstant p, in absolute value.

    Cauchy's bound puts all real roots in |m| <= 1 + max |c_k / lead|; the
    horizon is its integer part plus one.
    """
    if p.degree < 1:
        raise ValueError("the Cauchy bound needs a nonconstant polynomial")
    lead = p.coeffs[-1]
    bound = 1 + max(abs(c / lead) for c in p.coeffs[:-1])
    return int(bound) + 1


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


def nonnegative_on_ray(p: Polynomial, start: int, direction: int) -> int | None:
    """Check p(m) >= 0 for every integer m on a ray, exactly.

    ``direction=+1`` checks m >= start, ``direction=-1`` checks m <= start.
    Returns None when the polynomial is nonnegative on the whole ray, else a
    violating integer m: the first one along the ray, or a point past the
    Cauchy horizon when the leading term is negative there.

    The certificate is the forward-difference table of q(x) = p(start +
    direction*x), built from deg + 1 evaluations.  By Newton's forward formula
    q(x + j) = sum_k Delta^k q(x) * C(j, k), and C(j, k) >= 0 at every integer
    j >= 0, so once every entry of the table is >= 0 the ray is certified from
    there on.  Until then the table walks one step along the ray at a time (deg
    additions a step), and the first step whose entry Delta^0 q is negative is
    the violation.  Past the horizon p has no roots and keeps the sign of its
    leading term, so the walk never goes beyond it.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if p.is_zero():
        return None
    deg, lead = p.leading_term()
    if deg == 0:
        return None if lead > 0 else start
    horizon = cauchy_horizon(p)
    eventual_sign = lead if direction == 1 else lead * (-1) ** deg
    if eventual_sign < 0:
        return direction * max(direction * start, horizon + 1)
    if direction * start > horizon:
        return None
    table = difference_table([p(start + direction * i) for i in range(deg + 1)])
    m = start
    while direction * m <= horizon:
        if table[0] < 0:
            return m
        if all(entry >= 0 for entry in table):
            return None
        for k in range(deg):
            table[k] += table[k + 1]
        m += direction
    return None
