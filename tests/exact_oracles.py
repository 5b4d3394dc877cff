"""Slow, obvious oracles that import nothing from qmult.

They read plain integers, Fractions, functions and coefficient lists
(constant term first), so they share no code with the library they check and
import with qmult absent.

The closed-form difference operators: the recursive oracles unfold the
operator's defining recursion literally, which costs 2^s evaluations; the
binomial ones evaluate the closed forms with a fresh ``math.comb`` for every
term.  The library evaluates the closed forms with one running row of
binomials instead.

The multiplicities of a Hilbert series f are also read off its poles, with no
expansion and no tail: the complexity is the order of f's pole at t = 1, and
for s >= cx the delta multiplicity is d^s times the value of (1 + t)^s f(t)
at t = -1, which is 0 when the pole at -1 has order below s.  This is the
paper's reading of the multiplicity as a leading coefficient of the Hilbert
quasi-polynomials, through f(-t) = sum (-1)^n lambda(n) t^n.
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


def brute_stabilized_delta(values, d, s):
    """Independent oracle: stabilized D^{s-1} h from raw coefficients alone.

    Works on a plain list of lambda(0..N) with no tail or quasi-polynomial
    machinery involved: builds h pointwise, applies the closed-form
    difference, and insists the result is constant across a window before
    returning it.
    """

    def h(n):
        return sum((1 if (n + i) % 2 == 0 else -1) * values[n + i] for i in range(d))

    def diff(n):
        return sum((-1) ** i * comb(s - 1, i) * h(n + (s - 1 - i) * d) for i in range(s))

    reach = (s - 1) * d + d
    window = [diff(n) for n in range(len(values) - reach - 3 * d, len(values) - reach)]
    assert len(set(window)) == 1, f"no stabilization: {window}"
    return window[0]


def horner(coeffs, x):
    """p(x) by Horner's rule on p's coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divide_out_root(coeffs, root):
    """(q, m): the Fraction coefficients of p / (t - root)^m, with m the
    order of p's zero at root, by repeated synthetic division."""
    m = 0
    while any(coeffs) and horner(coeffs, root) == 0:
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs[1:]):
            acc = acc * root + c
            quotient.append(acc)
        coeffs, m = quotient[::-1], m + 1
    return coeffs, m


def pole_order(num, den, root):
    """(order, num, den): the order of num / den's pole at root, negative
    at a zero, and num and den with their zeros at root divided out."""
    num, a = divide_out_root(list(num), root)
    den, b = divide_out_root(list(den), root)
    return b - a, num, den


def laurent_complexity(num, den):
    """cx of the series num / den: the order of its pole at t = 1 (0 where none)."""
    return max(pole_order(num, den, 1)[0], 0)


def laurent_e_delta(num, den, d, s):
    """e_delta(s) of the series f = num / den for s >= cx: d^s * [(1 + t)^s f(t)] at t = -1."""
    order, num, den = pole_order(num, den, -1)
    if order > s:
        raise ValueError(f"the pole at -1 has order {order} > s = {s}")
    if order < s:
        return 0
    return d**s * horner(num, -1) / horner(den, -1)
