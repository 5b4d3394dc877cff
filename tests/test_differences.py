"""Difference operators, moment identities, closed-form power sums."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmult.differences import binomial_polynomial, delta, delta_neg, faulhaber_sum
from qmult.exact import Polynomial

from difference_oracles import (
    delta_binomial,
    delta_neg_binomial,
    delta_neg_recursive,
    delta_recursive,
)


def poly(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


def random_poly(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or Fraction(1)
    return Polynomial(tuple(coeffs))


class TestDelta:
    def test_square_at_index_three(self):
        f = poly(0, 0, 1)
        for n in (-5, 0, 7):
            assert delta(f, 2, 3, n) == 18  # 1 * 2! * 3^2

    def test_vanishes_above_degree(self):
        f = poly(0, 0, 1)
        for n in (-5, 0, 7):
            assert delta(f, 3, 3, n) == 0

    def test_constant_first_difference(self):
        assert delta(poly(11), 1, 2, 4) == 0

    def test_recursive_equals_closed(self):
        rng = random.Random(3)
        for s in range(0, 7):
            for d in (2, 4, 6):
                for _ in range(3):
                    f = random_poly(rng)
                    for n in (rng.randint(-20, 20) for _ in range(4)):
                        assert delta_recursive(f, s, d, n) == delta(f, s, d, n)


    def test_running_row_equals_comb_per_term(self):
        # Large s, where the recursive oracle is out of reach, on values
        # that are not polynomial so no term can vanish by accident.
        rng = random.Random(7)
        for s in list(range(12)) + [40, 97, 200, 401]:
            table = [Fraction(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(64)]
            f = lambda m: table[m % 64]  # noqa: E731
            d, n = rng.choice([-3, 2, 4, 6]), rng.randint(-30, 30)
            assert delta(f, s, d, n) == delta_binomial(f, s, d, n)
            assert delta_neg(f, s, d, n) == delta_neg_binomial(f, s, d, n)


class TestDeltaNeg:
    def test_linear(self):
        f = poly(0, 1)
        assert delta_neg(f, 1, 2, 0) == -2  # f(1) - f(3)

    def test_index_zero_is_identity(self):
        f = poly(3, 1)
        assert delta_neg(f, 0, 4, 9) == f(9)

    def test_relation_to_forward_operator(self):
        f = poly(0, 0, 1)
        assert delta_neg(f, 2, 2, 0) == 8
        assert delta(f, 2, 2, 2) == 8  # (-1)^2 * D^2 f(0 + 2)

    def test_recursive_equals_closed(self):
        rng = random.Random(4)
        for s in range(0, 7):
            for d in (2, 4, 6):
                for _ in range(3):
                    f = random_poly(rng)
                    for n in (rng.randint(-20, 20) for _ in range(4)):
                        assert delta_neg_recursive(f, s, d, n) == delta_neg(f, s, d, n)

    def test_matches_binomial_oracle_to_s_401(self):
        # One comb per term against the forward difference at n + s, on values
        # that are not polynomial, for positive and negative index d.
        rng = random.Random(11)
        table = [Fraction(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(97)]
        f = lambda m: table[m % 97]  # noqa: E731
        for s in list(range(41)) + [97, 200, 401]:
            for d in (-3, 2, 6):
                n = rng.randint(-30, 30)
                assert delta_neg(f, s, d, n) == delta_neg_binomial(f, s, d, n)

    def test_sign_shift_identity(self):
        # D-^s f(n) = (-1)^s D^s f(n+s)
        rng = random.Random(5)
        for s in range(0, 7):
            for d in (2, 4, 6):
                f = random_poly(rng)
                for n in (-13, 0, 8):
                    assert delta_neg(f, s, d, n) == (-1) ** s * delta(f, s, d, n + s)


class TestMoments:
    """The binomial moment sum_{i=0}^{s} (-1)^i C(s,i) (m + d*i)^n is
    (-1)^s delta(t^n, s, d, m), so the identities are read off delta."""

    @given(
        st.integers(0, 12),
        st.data(),
        st.integers(-50, 50),
        st.integers(-6, 6),
    )
    def test_monomial_differences(self, s, data, m, d):
        # D^s t^n vanishes below order s and is s! d^s at n = s.
        n = data.draw(st.integers(0, s), label="n")
        want = factorial(s) * d**s if n == s else 0
        assert delta(lambda x: x**n, s, d, m) == want

    def test_vanishing_range_exhaustive(self):
        # The unshifted moments (m = 0, d = 1), with 0^0 = 1.
        for s in range(1, 11):
            for n in range(0, s):
                assert delta(lambda x: x**n, s, 1, 0) == 0
            assert delta(lambda x: x**s, s, 1, 0) == factorial(s)

    def test_alternating_is_the_unshifted_moment(self):
        # sum (-1)^i C(s,i) i^s = (-1)^s s!, and (0^0 = 1) the n = 0 sum is 0.
        def moment(s, n):
            return sum((-1) ** i * comb(s, i) * i**n for i in range(s + 1))

        for s in range(1, 8):
            assert moment(s, s) == (-1) ** s * factorial(s)
            assert moment(s, 0) == 0
            for n in range(0, 10):
                assert moment(s, n) == (-1) ** s * delta(lambda x: x**n, s, 1, 0)

    def test_base_case(self):
        assert delta(lambda x: 1, 1, 1, 0) == 0

    def test_first_nonzero(self):
        assert delta(lambda x: x**2, 2, 1, 0) == 2  # 4 - 2*1 + 0

    def test_shifted_examples(self):
        assert delta(lambda x: x**2, 3, 2, 5) == 0
        assert delta(lambda x: 1, 1, -3, 17) == 0
        assert delta(lambda x: x**2, 2, 3, 0) == 18  # 2! * 3^2


class TestMonomialDifference:
    def test_exact_order(self):
        # D^s of a degree-s monomial a*t^s is the constant a * s! * d^s.
        rng = random.Random(6)
        for _ in range(50):
            r = rng.randint(0, 5)
            a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
            tail = [Fraction(rng.randint(-5, 5)) for _ in range(r)]
            f = Polynomial(tuple(tail + [a]))
            for d in (2, 3, 4, 6):
                n = rng.randint(-10, 10)
                assert delta(f, r, d, n) == a * factorial(r) * d**r
                assert delta(f, r + 1, d, n) == 0
                assert delta(f, r + 3, d, n) == 0


class TestFaulhaber:
    def test_sum_of_squares(self):
        assert faulhaber_sum(poly(0, 0, 1), 0, 10) == 385

    def test_constant_window(self):
        assert faulhaber_sum(poly(1), 3, 7) == 5

    def test_leading_term(self):
        # Sum of squares grows like n^3/3: the residual has degree <= 2, so
        # its third differences vanish.
        def residual(n):
            return faulhaber_sum(poly(0, 0, 1), 0, n) - Fraction(n**3, 3)

        for n in (0, 1, 4, 10, 50):
            assert delta(residual, 3, 1, n) == 0
        assert delta(residual, 2, 1, 0) == 1  # 2! times the n^2 coefficient 1/2
        for n in (1, 2, 5, 9, 12, 30):
            assert faulhaber_sum(poly(0, 0, 1), 0, n) == sum(Fraction(i) ** 2 for i in range(n + 1))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_poly(rng, max_degree=5)
            N = rng.randint(0, 10)
            n = rng.randint(N, 200)
            brute = sum(g(i) for i in range(N, n + 1))
            assert faulhaber_sum(g, N, n) == brute

    def test_negative_window(self):
        g = poly(2, 3)
        assert faulhaber_sum(g, -5, -2) == sum(g(i) for i in range(-5, -1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: delta(lambda n: Fraction(n), -1, 2, 0), "s must be >= 0"),
        (lambda: binomial_polynomial(-1), "k must be >= 0"),
        (lambda: faulhaber_sum(poly(1), 3, 2), "requires n >= N"),
    ],
    ids=["delta_negative_s", "binomial_negative_k", "faulhaber_empty_window"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
