"""Slow, obvious oracles for the closed-form difference operators.

Each unfolds the operator's defining recursion literally, which costs 2^s
evaluations; the library evaluates the binomial closed forms instead.
"""

from fractions import Fraction


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
