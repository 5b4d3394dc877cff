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
from math import comb, factorial, lcm
from typing import Callable, Sequence, Union

from .exact import Polynomial, Scalar, difference_table

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


# The library calls only delta; delta_neg stays because perfbench/tracer.py resolves it.
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
    """The polynomial sum_k cs[k] * C(t - anchor, k), in monomial form.

    With r = len(cs) - 1 and the c_k over their common denominator D, the
    integer polynomial r! * D * sum_k c_k C(u, k) is built by the nested form
    c_0 r!/0! + u (c_1 r!/1! + (u - 1) (c_2 r!/2! + ...)); substituting
    u = t - anchor is then a Taylor shift.

    >>> newton_polynomial([0, 1, 2])
    Polynomial('t^2')
    """
    if not cs:
        return Polynomial()
    r = len(cs) - 1
    den = lcm(*(c.denominator for c in cs))
    acc: list[int] = []
    weight = 1  # r!/k!
    for k in range(r, -1, -1):
        acc.insert(0, 0)  # acc * (u - k)
        for i in range(len(acc) - 1):
            acc[i] -= k * acc[i + 1]
        acc[0] += cs[k].numerator * (den // cs[k].denominator) * weight
        weight *= k
    return Polynomial._from_integers(acc, den * factorial(r)).shift(-anchor)


def faulhaber_sum(g: Polynomial, N: int, n: int) -> Fraction:
    """Exact partial sum sum_{i=N}^{n} g(i), in closed form.

    Newton's forward formula at N gives g(N + j) = sum_k Delta^k g(N) C(j, k),
    and sum_{j=0}^{n-N} C(j, k) = C(n-N+1, k+1), so the sum needs only the
    difference table of g(N..N+deg).  The table is built on the integers
    denominator * g, and the sum divides once at the end.  Constant work in n,
    which is what makes 10^5..10^6 partial sums affordable.

    >>> faulhaber_sum(Polynomial((0, 0, 1)), 0, 10)
    Fraction(385, 1)
    """
    if n < N:
        raise ValueError("requires n >= N")
    table = difference_table([g.numerator_at(N + j) for j in range(g.degree + 1)])
    return Fraction(sum(c * comb(n - N + 1, k + 1) for k, c in enumerate(table)), g.denominator)
