"""The golden ``e_limit_c9_d2.json`` checked from its definitions, with no qmult.

The golden is ``qmult e --json --limit-n 1000000000000`` on f(t) = t^5 (1 +
t)^12 / (1 - t)^9 at d = 2, so s = cx = 9.  Its lengths are lambda(n) = [t^n]
f = sum_k C(12, k) C(n - k + 3, 8), and each tail polynomial is lambda on one
residue, as a polynomial in the block n // 2.  The limit estimate at n is
s! d^(2s-1) S / n^s under the paper's constant and s! d^s S / n^s under the
corrected one, where S = sum_{i<=n} (-1)^i lambda(i) is [t^n] f(-t) / (1 - t)
= [t^n] -t^5 (1 - t)^11 / (1 + t)^9, one binomial sum at n = 10^12.  The
complexity and the multiplicity are read off f's poles.

This file imports only ``json``, ``fractions``, ``math`` and
``exact_oracles``, so it runs with qmult absent.
"""

import json
from fractions import Fraction
from math import comb, factorial

from exact_oracles import (
    coefficient_over_one_plus_t,
    horner,
    laurent_complexity,
    laurent_e_delta,
    poly_mul,
    poly_pow,
)

GOLDEN = __file__.removesuffix("test_golden_limit_definition.py") + "golden/e_limit_c9_d2.json"
N, S, D = 10**12, 9, 2
F_NUM = poly_mul([0] * 5 + [1], poly_pow([1, 1], 12))  # t^5 (1 + t)^12
F_DEN = poly_pow([1, -1], 9)  # (1 - t)^9
# f(-t) / (1 - t) = -t^5 (1 - t)^11 / (1 + t)^9
ALTERNATING = poly_mul([0] * 5 + [-1], poly_pow([1, -1], 11))


def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def length(n):
    """lambda(n) = [t^n] t^5 (1 + t)^12 / (1 - t)^9, for n >= 0."""
    return sum(comb(12, k) * comb(n - k + 3, 8) for k in range(min(12, n + 3) + 1))


def test_the_binomial_sum_is_the_alternating_partial_sum():
    # At small n, where the partial sum can be taken term by term.
    for n in range(60):
        partial = sum((-1) ** i * length(i) for i in range(n + 1))
        assert coefficient_over_one_plus_t(ALTERNATING, 9, n) == partial


def test_both_limits_are_the_partial_sum_at_n():
    got = golden()
    partial = coefficient_over_one_plus_t(ALTERNATING, 9, N)
    assert Fraction(got["limit_paper"]) == factorial(S) * D ** (2 * S - 1) * partial / Fraction(N) ** S
    assert Fraction(got["limit_corrected"]) == factorial(S) * D**S * partial / Fraction(N) ** S


def test_the_tail_polynomials_are_the_lengths():
    polys = [[Fraction(c) for c in p] for p in golden()["polys"]]
    assert len(polys) == D
    for n in range(20, 200):
        assert horner(polys[n % D], n // D) == length(n)


def test_complexity_and_multiplicity_are_read_off_the_poles():
    got = golden()
    assert got["s"] == got["cx"] == laurent_complexity(F_NUM, F_DEN) == S
    assert got["e_delta"] == laurent_e_delta(F_NUM, F_DEN, D, S) == 0
    assert got["e_coeff"] == 0
