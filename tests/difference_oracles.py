"""Slow, obvious oracles for the closed-form difference operators.

The recursive ones unfold the operator's defining recursion literally, which
costs 2^s evaluations; the binomial ones evaluate the closed forms with a
fresh ``math.comb`` for every term.  The library evaluates the closed forms
with one running row of binomials instead.
"""

from fractions import Fraction
from math import comb


def delta_recursive(f, s, d, n):
    """D^s f(n) by D^s = D(D^{s-1}), with D f(n) = f(n+d) - f(n)."""
    if s == 0:
        return Fraction(f(n))
    return delta_recursive(f, s - 1, d, n + d) - delta_recursive(f, s - 1, d, n)


def delta_neg_recursive(f, s, d, n):
    """D-^s f(n) by D-^s = D-(D-^{s-1}), with D- f(n) = f(n+1) - f(n+d+1)."""
    if s == 0:
        return Fraction(f(n))
    return delta_neg_recursive(f, s - 1, d, n + 1) - delta_neg_recursive(f, s - 1, d, n + d + 1)


def delta_binomial(f, s, d, n):
    """D^s f(n) = sum_i (-1)^i C(s,i) f(n + (s-i)d), one comb per term."""
    return Fraction(sum((-1) ** i * comb(s, i) * f(n + (s - i) * d) for i in range(s + 1)))


def delta_neg_binomial(f, s, d, n):
    """D-^s f(n) = sum_i (-1)^i C(s,i) f(n + d*i + s), one comb per term."""
    return Fraction(sum((-1) ** i * comb(s, i) * f(n + d * i + s) for i in range(s + 1)))
