"""Finite difference operators of index d, binomial moment identities, and
closed-form power sums.

The forward operator of index d acts on numeric functions f: Z -> Q by
D f(n) = f(n+d) - f(n); its s-fold iterate has the closed form

    D^s f(n) = sum_{i=0}^{s} (-1)^i C(s,i) f(n + (s-i)d)

The backward companion is D- f(n) = f(n+1) - f(n+d+1), whose iterates satisfy
D-^s f(n) = (-1)^s D^s f(n+s) and expand as

    D-^s f(n) = sum_{i=0}^{s} (-1)^i C(s,i) f(n + d*i + s)

Both operators take d explicitly, so the same code serves any index (including
negative d in the moment identities).  Everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Union

from .exact import Polynomial

NumericFunction = Callable[[int], Union[int, Fraction]]


def delta(f: NumericFunction, s: int, d: int, n: int) -> Fraction:
    """s-fold forward difference of index d at n, by the binomial closed form.

    >>> delta(lambda n: Fraction(n) ** 2, 2, 3, 5)
    Fraction(18, 1)
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    return sum(
        (Fraction((-1) ** i * comb(s, i)) * Fraction(f(n + (s - i) * d)) for i in range(s + 1)),
        Fraction(0),
    )


def delta_neg(f: NumericFunction, s: int, d: int, n: int) -> Fraction:
    """s-fold backward difference of index d at n, by the binomial closed form.

    >>> delta_neg(lambda n: Fraction(n), 1, 2, 0)
    Fraction(-2, 1)
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    return sum(
        (Fraction((-1) ** i * comb(s, i)) * Fraction(f(n + d * i + s)) for i in range(s + 1)),
        Fraction(0),
    )


def alternating_binomial_moment(s: int, n: int) -> Fraction:
    """sum_{i=0}^{s} (-1)^i C(s,i) i^n, exactly (0^0 = 1).

    Vanishes whenever 0 <= n < s.
    """
    if s < 1 or n < 0:
        raise ValueError("requires s >= 1 and n >= 0")
    return Fraction(sum((-1) ** i * comb(s, i) * i**n for i in range(s + 1)))


def shifted_binomial_moment(s: int, n: int, m: int, d: int) -> Fraction:
    """sum_{i=0}^{s} (-1)^i C(s,i) (m + d*i)^n, exactly.

    Vanishes whenever 0 <= n < s, for any integers m and d.
    """
    if s < 1 or n < 0:
        raise ValueError("requires s >= 1 and n >= 0")
    return Fraction(sum((-1) ** i * comb(s, i) * (m + d * i) ** n for i in range(s + 1)))


def binomial_polynomial(k: int) -> Polynomial:
    """The integer-valued basis polynomial C(t, k) = t(t-1)...(t-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = Polynomial.const(Fraction(1, factorial(k)))
    for j in range(k):
        p = p * Polynomial((Fraction(-j), Fraction(1)))
    return p


def newton_coefficients(g: Polynomial) -> list[Fraction]:
    """Coefficients c_k with g(t) = sum_k c_k C(t, k); c_k = (unit Delta^k g)(0)."""
    cs: list[Fraction] = []
    p = g
    while not p.is_zero():
        cs.append(p(0))
        p = p.forward_difference()
    return cs


def summation_polynomial(g: Polynomial) -> Polynomial:
    """The polynomial G with G(n) = sum_{i=0}^{n} g(i) for every integer n >= 0.

    Telescopes the Newton basis: sum_{i=0}^{n} C(i,k) = C(n+1, k+1).
    """
    total = Polynomial()
    for k, c in enumerate(newton_coefficients(g)):
        total = total + binomial_polynomial(k + 1).shift(1) * c
    return total


def faulhaber_sum(g: Polynomial, N: int, n: int) -> Fraction:
    """Exact partial sum sum_{i=N}^{n} g(i), in closed form.

    Constant work in n once the summation polynomial is built, which is what
    makes 10^5..10^6 partial sums affordable.

    >>> faulhaber_sum(Polynomial((0, 0, 1)), 0, 10)
    Fraction(385, 1)
    """
    if n < N:
        raise ValueError("requires n >= N")
    G = summation_polynomial(g)
    return G(n) - G(N - 1)
