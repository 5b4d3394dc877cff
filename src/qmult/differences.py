"""Finite difference operators of index d, Newton's forward form, and
closed-form power sums.

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
from math import lcm
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
    c_k over their common denominator, by :func:`newton_form`.

    >>> newton_polynomial([0, 1, 2])
    Polynomial('t^2')
    """
    den = lcm(*(c.denominator for c in cs))
    return newton_form([c.numerator * (den // c.denominator) for c in cs], anchor, den)


def newton_form(cs: Sequence[int], anchor: int, den: int = 1) -> Polynomial:
    """sum_j cs[j] * C(t - anchor, j) / den in monomial form, for k integers cs.

    (k-1)! times the sum is nested Horner in the falling factorials, on
    integer coefficient lists: S <- S * (t - anchor - j) + cs[j] * (k-1)!/j!
    for j = k-1 down to 0, and then one division by den * (k-1)!."""
    if not cs:
        return Polynomial()
    acc, weight = [cs[-1]], 1  # weight = (k-1)!/j!
    for j in range(len(cs) - 2, -1, -1):
        weight *= j + 1
        root = anchor + j
        acc.append(0)  # acc * (t - root) + cs[j] * weight, in place from the top
        for i in range(len(acc) - 1, 0, -1):
            acc[i] = acc[i - 1] - root * acc[i]
        acc[0] = cs[j] * weight - root * acc[0]
    return Polynomial._from_integers(acc, den * weight)


def faulhaber_sum(g: Polynomial, N: int, n: int) -> Fraction:
    """Exact partial sum sum_{i=N}^{n} g(i), in closed form, in constant work
    in n.  Newton's forward formula at N gives g(N + j) = sum_k Delta^k g(N)
    C(j, k), and sum_{j=0}^{n-N} C(j, k) = C(n-N+1, k+1): the integer
    :func:`_binomial_sum` of the difference table of denominator * g(N..N+deg),
    over g's denominator.

    >>> faulhaber_sum(Polynomial((0, 0, 1)), 0, 10)
    Fraction(385, 1)
    """
    if n < N:
        raise ValueError("requires n >= N")
    return Fraction(_binomial_sum(_newton_table(g, N), n - N + 1), g.denominator)


def _binomial_sum(table: Sequence[int], x: int) -> int:
    """sum_k table[k] * C(x, k + 1) for an integer x >= 0, which is
    sum_{j=0}^{x-1} p(N + j) for the polynomial p whose Newton table at N is
    ``table``.  The binomials come from one running row,
    C(x, k + 2) = C(x, k + 1) * (x - k - 1) / (k + 2), whose divisions are
    exact; the row is 0 from k + 1 > x on, where the sum stops."""
    total, c = 0, x
    for k, e in enumerate(table):
        if not c:
            break
        total += e * c
        c = c * (x - k - 1) // (k + 2)
    return total
