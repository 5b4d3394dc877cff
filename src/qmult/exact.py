"""Exact rational arithmetic: dense univariate polynomials and rational functions.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator).  A polynomial is dense, constant term first,
with no trailing zeros, and stores its coefficients in one form only: integer
``numerators`` over one common ``denominator`` (the lcm of the coefficient
denominators, 1 for the zero polynomial, which has no numerators and degree
-1).  The Fraction tuple ``coeffs`` is computed when it is read.  Sums,
differences, negation, products and powers, evaluation and the Taylor shift
behind ``compose_linear`` and ``forward_difference`` all run on those integers
and divide once at the end, so the hot loops do no Fraction arithmetic.  The
arithmetic on integer coefficient lists lives here once, in four kernels: the
product ``_product``, the power ``_power`` (one pass of J.C.P. Miller's
recurrence, with no product), the trimmed sum ``_combine`` and the in-place
Taylor shift ``_taylor_shift``.  ``Polynomial`` wraps them and
handles the denominators; the series parser (``series``) folds on them
directly.  A quasi-polynomial's d residue polynomials are held as k integer
columns over one denominator, column j their t^j numerators, and the column
kernels below work on whole columns: the Koszul step ``_difference_columns``
(Horner's rule on the columns laid end to end, additions only), the block
difference table ``_block_table`` (one subtraction pass over whole blocks),
the reindexing ``_reindexed_columns``, the sum, the k-fold difference test
``_agrees`` and the sign certificate of every residue off one block table.
The Taylor shift by p (``_shift_columns``), the Newton conversion
(``_newton_columns``) and point evaluation (``_values_at``) run residue by
residue inside their kernels, since a pass over whole columns cost more than
that at d = 2.  The series recurrence is an integer core, ``series_integers``,
which gives each coefficient as a pair (U_n, scale_n) with c_n = U_n /
scale_n, and ``series_coefficients`` is its Fraction view; a reader of lengths
(``lengths.from_series``) expands on the lengths themselves instead, with no
pair, through the denominator's (1 - t^j) factors by running sums.  At an
integer m, ``numerator_at`` gives the integer denominator * p(m)
with no division at all; the difference tables of the sign certificate
(``nonnegative_on_ray``) and of the Faulhaber sum are built from it.  The
certificate reads only the table (``_first_negative``), so a caller that has a
table already, or a suffix of one, passes it in; it finds the first negative
point of a ray by galloping and bisection, in steps logarithmic in its
distance from the start.  A rational function stores a numerator and a
denominator polynomial; the denominator must have a nonzero constant term, so
every rational function here expands as a power series at t = 0.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import add, itemgetter, neg, sub
from typing import Iterable, Iterator, Sequence, Union

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


# The integer coefficient-list kernels: lists of ints, constant term first.


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product a * b: the convolution, over b's nonzero coefficients."""
    if not a or not b:
        return []
    terms = [(j, e) for j, e in enumerate(b) if e]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in terms:
                out[i + j] += c * e
    return out


def _power(a: list[int], n: int) -> list[int]:
    """a^n for n >= 0 by J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2,
    4.7).  With a = t^v q and q_0 != 0, the coefficients c of q^n start at
    c_0 = q_0^n and satisfy

        k q_0 c_k = sum_{1 <= j <= min(k, deg q)} ((n + 1) j - k) q_j c_{k-j},

    over q's nonzero q_j only; each division is exact, as q^n has integer
    coefficients.  One pass of deg(q) * n steps, with no product formed."""
    if not n:
        return [1]
    v = next((i for i, c in enumerate(a) if c), None)
    if v is None:
        return []
    q0, terms = a[v], [(j - v, (n + 1) * (j - v), c) for j, c in enumerate(a) if c and j > v]
    out = [q0**n]
    for k in range(1, (len(a) - 1 - v) * n + 1):
        acc = 0
        for j, nj, c in terms:
            if j > k:
                break
            acc += (nj - k) * c * out[k - j]
        out.append(acc // (k * q0))
    return [0] * (v * n) + out


def _combine(a: list[int], b: Sequence[int], m: int) -> list[int]:
    """a + m * b, for an integer m, trimmed of trailing zeros."""
    out = a + [0] * (len(b) - len(a))
    for k, e in enumerate(b):
        out[k] += m * e
    while out and out[-1] == 0:
        out.pop()
    return out


# The column kernels: a quasi-polynomial's d residue polynomials held as columns,
# column j the tuple of their t^j numerators.  Most work on whole columns or
# blocks at once, one C-level pass per column, block or Horner step; the ones
# that loop over the residues inside say why.


def _columns(rows: Sequence[tuple[Sequence[int], int]]) -> tuple[list[tuple[int, ...]], int]:
    """(columns, den) in the form of :func:`_reduced_columns` for polynomials
    given as (numerators, denominator) rows: their numerators over the lcm
    of the denominators, column j the t^j ones, shorter rows padded with 0."""
    den = lcm(*[q for _, q in rows])
    scaled = [nums if q == den else [c * (den // q) for c in nums] for nums, q in rows]
    return _reduced_columns(list(zip_longest(*scaled, fillvalue=0)), den)


def _reduced_columns(columns: list, den: int) -> tuple[list, int]:
    """(columns, den) with trailing all-zero columns dropped and gcd(den, every
    numerator) divided out, so that one quotient has one form."""
    while columns and not any(columns[-1]):
        columns.pop()
    if not columns:
        return columns, 1
    g = gcd(den, *chain.from_iterable(columns)) if den != 1 else 1
    if g != 1:
        columns, den = [tuple(c // g for c in column) for column in columns], den // g
    return columns, den


def _sum_columns(forms: list[tuple[Sequence[tuple[int, ...]], int]], d: int) -> tuple[list, int]:
    """The sum of quotients (columns, den) of d-tuples, over the lcm of the
    denominators: each column scaled by one multiplication pass, then added."""
    den = lcm(*(f[1] for f in forms))
    total = [(0,) * d] * max(len(f[0]) for f in forms)
    for columns, f_den in forms:
        scale = den // f_den
        for j, column in enumerate(columns):
            total[j] = tuple(map(add, total[j], map(scale.__mul__, column)))
    return total, den


def _reindexed_columns(columns: Sequence[tuple[int, ...]], d: int, sign: int, b: int) -> list:
    """The columns of n -> q(sign * n + b), sign = 1 or -1, for the
    quasi-polynomial q of period d with these columns.  At n = d*m + i it is
    g_r(sign * m + q) for (q, r) = divmod(sign * i + b, d): the columns are
    permuted by r, the odd ones negated when sign = -1 (g(-t)), and residue i
    is Taylor-shifted by sign * q (:func:`_shift_columns`), which takes two
    values, none where it is 0."""
    moves = [divmod(sign * i + b, d) for i in range(d)]
    order = itemgetter(*(r for _, r in moves))
    columns = [
        order(column) if sign == 1 or j % 2 == 0 else tuple(map(neg, order(column)))
        for j, column in enumerate(columns)
    ]
    return _shift_columns(columns, [sign * q for q, _ in moves])


def _values_at(columns: Sequence[tuple[int, ...]], d: int, lo: int, hi: int) -> list[int]:
    """The numerators at degrees lo..hi of the quasi-polynomial of period d
    with these columns: at n = d*m + i, Horner's rule at m down entry i of the
    columns.  Point by point: Horner's rule on whole columns at each block
    lost to it at d = 2."""
    top = columns[::-1]
    out = []
    for n in range(lo, hi + 1):
        m, i = divmod(n, d)
        acc = 0
        for column in top:
            acc = acc * m + column[i]
        out.append(acc)
    return out


def _shift_columns(columns: Sequence[tuple[int, ...]], shifts: Sequence[int]) -> list[tuple[int, ...]]:
    """The columns of g_i(t + shifts[i]) for every residue i: the Taylor shift
    :func:`_taylor_shift` of each residue's numerators that moves, read back as
    columns.  Per residue, because a shift by p multiplies, and a pass a step
    over whole columns lost to it at d = 2."""
    rows = zip(*columns)
    return list(zip(*(_taylor_shift(list(row), p) if p else row for row, p in zip(rows, shifts))))


def _difference_columns(columns: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The columns of g(t + 1) - g(t) for every residue g, one fewer: Horner's
    rule acc <- acc * (t + 1) + column on the columns laid end to end, one
    pass of additions a step, less the columns."""
    zeros = (0,) * len(columns[0]) if columns else ()
    acc: tuple[int, ...] = ()
    for column in reversed(columns):
        acc = tuple(map(add, column + acc, acc + zeros))
    d = len(zeros)
    flat = tuple(map(sub, acc, chain.from_iterable(columns[:-1])))
    return [flat[j * d : (j + 1) * d] for j in range(len(columns) - 1)]


def _block_table(values: list, d: int) -> list:
    """Newton's forward differences by blocks of d, in place: on entry
    ``values[d*b + i]`` is f_i(x + b) for d sequences f_i, on return it is
    Delta^b f_i(x), each a pass of one subtraction over whole blocks.

    >>> _block_table([0, 5, 1, 6, 4, 7], 2)
    [0, 5, 1, 1, 2, 0]
    """
    for lo in range(d, len(values), d):
        values[lo:] = map(sub, values[lo:], values[lo - d : -d])
    return values


def _agrees(values: Sequence[int], d: int, k: int) -> bool:
    """Whether the k-fold step-d differences of ``values`` all vanish: on each
    residue class, whether its values at consecutive blocks lie on one
    polynomial of degree < k.  A tail of k columns that equals them on k
    blocks of each residue then equals them on all of them."""
    for _ in range(k):
        values = list(map(sub, values[d:], values[:-d]))
    return not any(values)


def _first_negatives(values: list[int], d: int, anchor: int, step: int) -> Iterator[int]:
    """The sign certificate of a quasi-polynomial of period d on a ray from
    ``anchor``, up (step 1) or down (step -1), from its values (or numerators)
    at anchor + step * j for j = 0 .. kd - 1, which hold k blocks of every
    residue: for each residue i, in order, that goes negative on the ray, its
    first negative degree.  Position j holds residue (anchor + step * j) mod d
    at block (anchor + step * j) // d; its Newton table along the ray is the
    entry j of each block of the :func:`_block_table`, and its certificate,
    a search of its own, is :func:`_first_negative` on that table."""
    table = _block_table(values, d)
    for i in range(d):
        j = step * (i - anchor) % d
        block = (anchor + step * j) // d
        bad = _first_negative(table[j::d], step * block)
        if bad is not None:
            yield d * step * bad + i


def _newton_columns(table: list[int], d: int, anchor: int) -> tuple[list[tuple[int, ...]], int]:
    """(columns, w): the residues of the block table ``table`` (entry j of
    residue i at table[d*j + i], as :func:`_block_table` leaves it), each
    sum_j c_j * C(t - anchor, j) in monomial form, as the columns of w times
    them, w = (k-1)! for k entries a residue.

    Per residue, as a pass a step over whole columns lost to it at d = 2:
    one nested Horner pass in the falling factorials, S <- S * (t - anchor -
    j) + c_j * (k-1)!/j! for j = k-1 down to 0, over table[i::d]; the columns
    are read off the rows."""
    k = len(table) // d
    if not k:
        return [], 1
    weights = [1] * k  # weights[j] = (k-1)!/j!
    for j in range(k - 2, -1, -1):
        weights[j] = weights[j + 1] * (j + 1)
    rows = []
    for i in range(d):
        cs = table[i::d]
        acc = [cs[-1]]
        for j in range(k - 2, -1, -1):
            root = anchor + j
            acc.append(0)  # acc * (t - root) + cs[j] * weights[j], in place from the top
            for t in range(len(acc) - 1, 0, -1):
                acc[t] = acc[t - 1] - root * acc[t]
            acc[0] = cs[j] * weights[j] - root * acc[0]
        rows.append(acc)
    return list(zip(*rows)), weights[0]


def _taylor_shift(nums: list[int], p: int) -> list[int]:
    """The coefficients of G(u + p) for the coefficients nums of G, in place,
    by repeated synthetic division: pass i is Horner's rule from the top
    down to coefficient i."""
    deg = len(nums) - 1
    for i in range(deg):
        acc = nums[deg]
        for k in range(deg - 1, i - 1, -1):
            acc = nums[k] = acc * p + nums[k]
    return nums


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
        elif den != 1:
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
        if type(c) is int:
            return Polynomial._from_integers([c], 1)
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
        return Polynomial._from_integers(
            _combine([c * a for c in self.numerators], other.numerators, b), den
        )

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
        """The convolution of the numerators over the product of the
        denominators; a factor 1 gives the other factor back."""
        other = _as_poly(other)
        if self.numerators == (1,) and self.denominator == 1:
            return other
        if other.numerators == (1,) and other.denominator == 1:
            return self
        out = _product(self.numerators, other.numerators)
        return Polynomial._from_integers(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        """The power of the numerators over the power of the denominator."""
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative")
        return Polynomial._from_integers(_power(list(self.numerators), n), self.denominator**n)

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
        (q^deg * denominator).  G(u + p) is the Taylor shift
        :func:`_taylor_shift`; substituting u = q*a*t then scales its k-th
        coefficient by (q*a)^k, with a's denominator cleared as well.
        """
        if self.is_zero() or (a, b) == (1, 0):
            return self
        deg = self.degree
        p, q = b.numerator, b.denominator
        qa, a_den = q * a.numerator, a.denominator
        nums = _taylor_shift([c * q ** (deg - k) for k, c in enumerate(self.numerators)], p)
        for k in range(deg + 1):
            nums[k] *= qa**k * a_den ** (deg - k)
        return Polynomial._from_integers(nums, self.denominator * (q * a_den) ** deg)

    def forward_difference(self) -> Polynomial:
        """Return g(t + 1) - g(t); degree drops by exactly one when g is nonconstant.

        The column kernel :func:`_difference_columns` on the numerators, one
        residue: additions only, over the same denominator.

        >>> Polynomial((0, 0, 1)).forward_difference()
        Polynomial('2*t + 1')
        """
        columns = _difference_columns([(c,) for c in self.numerators])
        return Polynomial._from_integers([c for (c,) in columns], self.denominator)

    def __str__(self) -> str:
        """The terms from the top degree down, each written from its integer
        numerator over the denominator, reduced by one gcd as in ``to_json``.

        >>> str(Polynomial((-1, 4, Fraction(-9, 2), Fraction(3, 2))))
        '3/2*t^3 - 9/2*t^2 + 4*t - 1'
        """
        nums, den = self.numerators, self.denominator
        parts: list[str] = []
        for k in range(len(nums) - 1, -1, -1):
            c = nums[k]
            if c == 0:
                continue
            if parts:
                sign = " - " if c < 0 else " + "
            else:
                sign = "-" if c < 0 else ""
            c = abs(c)
            g = gcd(c, den)
            mag = str(c // g) if g == den else f"{c // g}/{den // g}"
            if k == 0:
                body = mag
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if c == den else f"{mag}*{var}"
            parts.append(sign + body)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial('{self}')"

    def to_json(self) -> list[str]:
        """Coefficient array, constant term first (:func:`_coefficient_texts`)."""
        return _coefficient_texts(self.numerators, self.denominator)


def _coefficient_texts(nums: Sequence[int], den: int) -> list[str]:
    """Each numerator over the positive den, reduced by their gcd, as "p" or
    "p/q", trailing zeros dropped: the JSON coefficient array of a polynomial."""
    top = len(nums)
    while top and not nums[top - 1]:
        top -= 1
    nums = nums[:top]
    if den == 1:
        return list(map(str, nums))
    out = []
    for c in nums:
        g = gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
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
    denominators such as (1 - t^2)(1 - t^120) cheap.

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


def _newton_table(p: Polynomial, start: int) -> list[int]:
    """The forward-difference table of denominator * p at ``start``, from
    deg + 1 integer evaluations: entry k is denominator * Delta^k p(start),
    which has the sign of Delta^k p(start)."""
    return difference_table([p.numerator_at(start + i) for i in range(p.degree + 1)])


def nonnegative_on_ray(p: Polynomial, start: int) -> int | None:
    """Check p(m) >= 0 for every integer m >= start, exactly.

    Returns None when the polynomial is nonnegative on the whole ray, else the
    first integer m >= start at which p(m) < 0.  The ray goes one way; a ray
    m <= start is the ray m >= -start of p(-m).  The certificate is
    :func:`_first_negative` on p's integer table at start (:func:`_newton_table`).
    """
    return _first_negative(_newton_table(p, start), start)


def _first_negative(table: list[int], start: int) -> int | None:
    """The sign certificate on an integer Newton table at ``start``: None when
    q(m) = sum_k table[k] * C(m - start, k) is >= 0 at every integer m >= start,
    else the first m >= start at which it is negative.

    By Newton's forward formula and C(j, k) >= 0 at every integer j >= 0, a
    table with every entry >= 0 certifies the whole ray, with no evaluation.
    Otherwise :func:`_sign_changes` finds the first point where q goes
    negative.  A suffix ``table[k:]`` of p's table is the table of Delta^k p at
    the same start, so one table certifies every difference of p whose suffix
    is nonnegative.
    """
    if not table or min(table) >= 0:
        return None
    if table[0] < 0:
        return start
    return next((start + j for j in _sign_changes(table)), None)


def _sign_changes(table: list[int]) -> Iterator[int]:
    """Each j > 0 at which q(j) < 0 and q(j - 1) < 0 differ, in order, for
    q(j) = sum_k table[k] * C(j, k).

    q is monotone from one sign change of its difference (table[1:]) to the
    next, and from the last one on, so it changes sign at most once on each
    stretch: it does on a bounded stretch when its sign at the end differs
    from its sign at the start, and on the last when its sign at the start
    differs from that of its last nonzero entry, which q takes for large j.
    A gallop from the stretch start (1, 2, 4, ... steps) and a bisection find
    where, in evaluations logarithmic in the distance from the start.  The
    changes come one at a time, each found only when it is read."""
    if len(table) <= 1:
        return

    def negative(j: int) -> bool:
        acc, binomial = 0, 1  # C(j, k), updated exactly from C(j, k - 1)
        for k, c in enumerate(table):
            acc += c * binomial
            binomial = binomial * (j - k) // (k + 1)
        return acc < 0

    far = next((c < 0 for c in reversed(table) if c), False)
    sign, a = table[0] < 0, 0
    for end in chain(_sign_changes(table[1:]), (None,)):
        if (far if end is None else negative(end)) != sign:
            low, b = a, a + 1
            while (end is None or b < end) and negative(b) == sign:
                low, b = b, 2 * b - a
            if end is not None:
                b = min(b, end)
            while b - low > 1:
                mid = (low + b) // 2
                low, b = (low, mid) if negative(mid) != sign else (mid, b)
            yield b
            sign = not sign
        a = end
