"""Finite difference operators of index d, the Newton basis, and closed-form
power sums.

The forward operator of index d acts on numeric functions f: Z -> Q by
D f(n) = f(n+d) - f(n); its s-fold iterate has the closed form

    D^s f(n) = sum_{i=0}^{s} (-1)^i C(s,i) f(n + (s-i)d)

The backward companion is D- f(n) = f(n+1) - f(n+d+1), whose iterates satisfy
D-^s f(n) = (-1)^s D^s f(n+s) and expand as

    D-^s f(n) = sum_{i=0}^{s} (-1)^i C(s,i) f(n + d*i + s)

Both operators take d explicitly, so the same code serves any index, negative
d included.  Everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, Sequence, Union

from .exact import Polynomial, Scalar, _newton_table

NumericFunction = Callable[[int], Union[int, Fraction]]


def delta(f: NumericFunction, s: int, d: int, n: int) -> Fraction:
    """s-fold forward difference of index d at n, by the binomial closed form.

    The signed binomials (-1)^i C(s,i) come from one running row,
    c <- -c (s-i)/(i+1), whose divisions are exact.

    >>> delta(lambda n: Fraction(n) ** 2, 2, 3, 5)
    Fraction(18, 1)
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    total, c = 0, 1
    for i in range(s + 1):
        total += c * f(n + (s - i) * d)
        c = -c * (s - i) // (i + 1)
    return Fraction(total)


# The library calls neither delta nor delta_neg; perfbench/tracer.py resolves both.
def delta_neg(f: NumericFunction, s: int, d: int, n: int) -> Fraction:
    """s-fold backward difference of index d at n, as (-1)^s D^s f(n+s).

    >>> delta_neg(lambda n: Fraction(n), 1, 2, 0)
    Fraction(-2, 1)
    """
    return (-1) ** s * delta(f, s, d, n + s)


def binomial_polynomial(k: int) -> Polynomial:
    """The integer-valued basis polynomial C(t, k) = t(t-1)...(t-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return newton_polynomial([0] * k + [1])


def newton_polynomial(cs: Sequence[Scalar], anchor: int = 0) -> Polynomial:
    """The polynomial sum_k cs[k] * C(t - anchor, k), in monomial form: the
    c_k over their common denominator, in the basis of :func:`newton_form`.

    >>> newton_polynomial([0, 1, 2])
    Polynomial('t^2')
    """
    den = lcm(*(c.denominator for c in cs))
    return newton_form(len(cs), anchor)([c.numerator * (den // c.denominator) for c in cs], den)


def newton_form(k: int, anchor: int) -> Callable[..., Polynomial]:
    """The map from k integers cs, and a denominator den (1 by default), to
    sum_j cs[j] * C(t - anchor, j) / den in monomial form.  The integer basis
    (k-1)! * C(t - anchor, j), j < k, is built once, each factor t - (anchor + i)
    directly in t; a polynomial is then one column sum per coefficient."""
    scale = weight = factorial(max(k - 1, 0))  # weight = (k-1)!/j!
    rows, falling = [], [1]  # (t - anchor)(t - anchor - 1)...(t - anchor - j + 1)
    for j in range(k):
        rows.append([weight * c for c in falling])
        falling = [b - (anchor + j) * a for a, b in zip([*falling, 0], [0, *falling])]
        weight //= j + 1
    columns = list(zip_longest(*rows, fillvalue=0))

    def polynomial(cs: Sequence[int], den: int = 1) -> Polynomial:
        return Polynomial._from_integers([sum(map(mul, cs, col)) for col in columns], den * scale)

    return polynomial


def faulhaber_sum(g: Polynomial, N: int, n: int) -> Fraction:
    """Exact partial sum sum_{i=N}^{n} g(i), in closed form: the integer
    :func:`_faulhaber_numerator` over g's denominator.

    >>> faulhaber_sum(Polynomial((0, 0, 1)), 0, 10)
    Fraction(385, 1)
    """
    if n < N:
        raise ValueError("requires n >= N")
    return Fraction(_faulhaber_numerator(g, N, n), g.denominator)


def _faulhaber_numerator(g: Polynomial, N: int, n: int) -> int:
    """denominator * sum_{i=N}^{n} g(i) for n >= N, in constant work in n.
    Newton's forward formula at N gives g(N + j) = sum_k Delta^k g(N) C(j, k),
    and sum_{j=0}^{n-N} C(j, k) = C(n-N+1, k+1), so the sum needs only the
    difference table of the integers denominator * g(N..N+deg)."""
    return sum([c * comb(n - N + 1, k) for k, c in enumerate(_newton_table(g, N), 1)])
