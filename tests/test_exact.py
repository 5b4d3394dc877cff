"""Exact polynomial / rational function arithmetic."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qmult import exact
from qmult.differences import binomial_polynomial
from qmult.exact import (
    NotExpandableError,
    Polynomial,
    RationalFunction,
    format_rational,
    nonnegative_on_ray,
    parse_rational,
    series_coefficients,
)

from kernel_oracles import cauchy_horizon, scan_oracle
from worked_examples import poly

T = Polynomial.t()


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
polynomials = st.lists(rationals, max_size=7).map(lambda cs: Polynomial(tuple(cs)))


class TestPolynomial:
    def test_product_difference_of_squares(self):
        assert (T + 1) * (T - 1) == poly(-1, 0, 1)

    def test_zero_plus_zero_has_degree_minus_one(self):
        zero = Polynomial() + Polynomial()
        assert zero.degree == -1
        assert zero.is_zero()

    def test_product_checked_by_evaluation(self):
        # (2t+1)(2t+2) = 4t^2 + 6t + 2, confirmed at three points.
        product = poly(1, 2) * poly(2, 2)
        assert product == poly(2, 6, 4)
        for x in (0, 1, 7):
            assert product(x) == (2 * x + 1) * (2 * x + 2)

    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(1, 2, 0, 0).degree == 1

    def test_pow_matches_repeated_multiplication(self):
        p = poly(1, 1)
        assert p**3 == p * p * p
        assert p**0 == poly(1)

    @given(polynomials)
    def test_shift_by_zero_is_identity(self, g):
        assert g.shift(0) == g

    @given(polynomials, rationals, rationals)
    def test_shift_composes_additively(self, g, a, b):
        assert g.shift(a).shift(b) == g.shift(a + b)

    def test_shift_square(self):
        assert poly(0, 0, 1).shift(1) == poly(1, 2, 1)

    def test_shift_difference_drops_degree(self):
        g = T
        assert g.shift(1) - g == poly(1)

    def test_shift_linear_checked_at_two_points(self):
        shifted = poly(1, 2).shift(1)
        assert shifted == poly(3, 2)
        for x in (0, 1):
            assert shifted(x) == 2 * (x + 1) + 1


class TestLeadingTerm:
    def test_linear(self):
        assert poly(1, 4).leading_term() == (1, 4)

    def test_zero(self):
        assert Polynomial().leading_term() == (-1, 0)

    def test_fractional_leading_coefficient(self):
        g = Polynomial((Fraction(0), Fraction(-1), Fraction(0), Fraction(1, 2)))
        assert g.leading_term() == (3, Fraction(1, 2))


class TestSeriesCoefficients:
    def test_inverse_cube_binomials(self):
        f = RationalFunction(poly(1), poly(1, -1) ** 3)
        assert series_coefficients(f, 4) == [1, 3, 6, 10, 15]

    def test_even_support_family(self):
        f = RationalFunction(poly(0, 0, 1), poly(1, 0, -1) ** 2)
        assert series_coefficients(f, 8) == [0, 0, 1, 0, 2, 0, 3, 0, 4]

    def test_zero_numerator(self):
        f = RationalFunction(Polynomial(), poly(1, -1))
        assert series_coefficients(f, 5) == [0] * 6

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(NotExpandableError):
            RationalFunction(poly(1), poly(0, 1))

    @given(polynomials, polynomials, st.integers(min_value=0, max_value=200))
    def test_remultiplication_recovers_numerator(self, p, q, n_max):
        if q.coefficient(0) == 0:
            q = q + 1
        f = RationalFunction(p, q)
        coeffs = series_coefficients(f, n_max)
        product = Polynomial(tuple(coeffs)) * f.den
        assert all(
            product.coefficient(j) == f.num.coefficient(j) for j in range(n_max + 1)
        )

    @given(
        polynomials,
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, Fraction(3, 2)]), max_size=40),
        st.integers(min_value=0, max_value=120),
    )
    def test_sparse_denominator_recovers_numerator(self, p, tail, n_max):
        # The recurrence skips the zero coefficients of the denominator.
        f = RationalFunction(p, Polynomial((Fraction(2),) + tuple(tail)))
        coeffs = series_coefficients(f, n_max)
        product = Polynomial(tuple(coeffs)) * f.den
        assert all(
            product.coefficient(j) == f.num.coefficient(j) for j in range(n_max + 1)
        )


class TestRationalFunction:
    def test_equality_by_cross_multiplication(self):
        a = RationalFunction(poly(0, 1), poly(1, -1))
        b = RationalFunction(poly(0, 2), poly(2, -2))
        assert a == b

    def test_equality_with_common_factor(self):
        # t/(1-t) vs t(1+t)/((1-t)(1+t)): equal without any gcd computation.
        a = RationalFunction(poly(0, 1), poly(1, -1))
        b = RationalFunction(poly(0, 1) * poly(1, 1), poly(1, -1) * poly(1, 1))
        assert a == b

    def test_division_by_zero_constant_term_rejected(self):
        a = RationalFunction.const(1)
        b = RationalFunction(poly(0, 1), poly(1))
        with pytest.raises(NotExpandableError):
            a / b

    def test_denominator_normalized_to_unit_constant_term(self):
        f = RationalFunction(poly(4), poly(2, 2))
        assert f.den.coefficient(0) == 1
        assert f.num == poly(2)


class TestRationalSerialization:
    def test_format_integer(self):
        assert format_rational(Fraction(5)) == "5"

    def test_format_fraction(self):
        assert format_rational(Fraction(-2, 3)) == "-2/3"

    def test_parse_both_forms(self):
        assert parse_rational("5") == 5
        assert parse_rational("5/1") == 5
        assert parse_rational("-6/4") == Fraction(-3, 2)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestNonnegativeOnRay:
    def test_eventually_positive(self):
        # t^2 - 10t: negative at small positive t, nonnegative from 10 on.
        p = poly(0, -10, 1)
        assert nonnegative_on_ray(p, 10) is None
        assert nonnegative_on_ray(p, 1) is not None

    def test_eventually_negative_reports_witness(self):
        p = poly(0, 0, -1)
        bad = nonnegative_on_ray(p, 0)
        assert bad is not None and p(bad) < 0

    def test_negative_direction(self):
        # -t is nonnegative for t <= 0: the ray t <= start is the ray of t from -start.
        p = poly(0, -1)
        assert nonnegative_on_ray(p.compose_linear(-1, 0), 0) is None
        assert nonnegative_on_ray(p.compose_linear(-1, 0), -5) is not None

    def test_zero_polynomial(self):
        assert nonnegative_on_ray(Polynomial(), 0) is None

    def test_binomial_certified_from_its_difference_table(self, monkeypatch):
        # C(m+15, 15) has Cauchy horizon 15! + 2, about 1.3e12: a scan up to
        # it would not finish, the difference table at m = 0 is all ones.
        # C(m, 2), whose table at 0 is (0, 0, 1), needs no search either.
        original = Polynomial.numerator_at
        calls = []

        def counting(self, m):
            calls.append(m)
            assert len(calls) <= self.degree + 1, "sign certificate evaluated p too often"
            return original(self, m)

        def no_search(*args):
            raise AssertionError("a nonnegative table needs no search")

        monkeypatch.setattr(Polynomial, "numerator_at", counting)
        monkeypatch.setattr(exact, "_sign_changes", no_search)
        for p in (binomial_polynomial(15).shift(15), binomial_polynomial(2)):
            calls.clear()
            assert nonnegative_on_ray(p, 0) is None
            assert 0 < len(calls) <= p.degree + 1

    def test_cauchy_horizon_is_beyond_every_root(self):
        p = (T - 7) * (T + Fraction(25, 2)) * (T - Fraction(1, 3))
        horizon = cauchy_horizon(p)
        assert horizon > Fraction(25, 2)
        assert all(p(m) != 0 for m in range(horizon, horizon + 50))
        with pytest.raises(ValueError):
            cauchy_horizon(Polynomial.const(3))


def one_way(p, start, direction):
    """The kernel on either ray: a ray down is the ray up of p(-t) from -start."""
    if direction == 1:
        return nonnegative_on_ray(p, start)
    bad = nonnegative_on_ray(p.compose_linear(-1, 0), -start)
    return None if bad is None else -bad


def from_roots(lead, roots, offset):
    p = Polynomial.const(lead)
    for r in roots:
        p = p * (T - r)
    return p + offset


small_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=4)
leads = st.builds(
    lambda sign, q: sign * q,
    st.sampled_from([1, -1]),
    st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=4),
)
ray_polynomials = st.one_of(
    st.builds(
        lambda cs, lead: Polynomial(tuple(cs) + (lead,)),
        st.lists(small_rationals, max_size=6),
        leads,
    ),
    st.builds(
        from_roots,
        leads,
        st.lists(st.fractions(min_value=-25, max_value=25, max_denominator=3), max_size=5),
        small_rationals,
    ),
)


class TestNonnegativeOnRayAgainstScan:
    @given(ray_polynomials, st.integers(-60, 60), st.sampled_from([1, -1]))
    def test_same_answer_as_the_scan(self, p, start, direction):
        assume(p.degree < 1 or cauchy_horizon(p) <= 4000)
        assert one_way(p, start, direction) == scan_oracle(p, start, direction)

    @given(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=2), min_size=1, max_size=3),
        st.integers(-30, 30),
    )
    def test_first_violation_inside_the_ray(self, roots, start):
        # Products of (t - r)^2 shifted down by one dip below zero near each
        # root, so the first violation sits inside the ray, not at its start.
        p = from_roots(1, roots + roots, -1)
        assume(cauchy_horizon(p) <= 4000)
        for direction in (1, -1):
            assert one_way(p, start, direction) == scan_oracle(p, start, direction)

    @given(
        leads,
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), min_size=1, max_size=3),
        st.sampled_from([-1, 0, 0, 1]),
        st.data(),
    )
    def test_integer_roots_at_ray_starts_and_stretch_ends(self, lead, roots, offset, data):
        # Integer roots of multiplicity 1 to 3 put zeros of p, and of its
        # differences, on integers: a ray may start on a root, and a stretch
        # on which p is monotone may end on one.
        p = from_roots(lead, [r for r, k in roots for _ in range(k)], offset)
        assume(p.degree < 1 or cauchy_horizon(p) <= 4000)
        root = data.draw(st.sampled_from([r for r, _ in roots]))
        start = root + data.draw(st.sampled_from([-1, 0, 0, 1]))
        for direction in (1, -1):
            assert one_way(p, start, direction) == scan_oracle(p, start, direction)

    def test_roots_near_the_cauchy_bound_from_far_below(self):
        # t(t + 1)(2t^2 - 3) has horizon 3, and every level of its difference
        # table changes sign within 3 of it; each level must search its whole
        # range for the first violation, at 1, to be found from far below.
        p = poly(0, -3, -3, 2, 2)
        for start in range(-12, 5):
            want = 1 if start <= 1 else None
            assert nonnegative_on_ray(p, start) == scan_oracle(p, start, 1) == want

    def test_dip_after_a_positive_local_minimum(self):
        # From 9, ((t - 4)^2 + 14)(t - 31)^2 - 7 rises to a maximum near 17 and
        # falls below zero at 31 alone: its difference changes sign twice, and
        # the second change must be found as well as the first.
        p = ((T - 4) ** 2 + 14) * (T - 31) ** 2 - 7
        assert [m for m in range(9, 60) if p(m) < 0] == [31]
        assert nonnegative_on_ray(p, 9) == 31
        assert nonnegative_on_ray(p, 32) is None

    @pytest.mark.parametrize("K", [10**5, 10**12, 10**40])
    def test_far_dip_found_without_a_walk(self, K):
        # (t - K)^2 - 1 first goes negative at K, by bisection, not by K steps.
        assert nonnegative_on_ray((T - K) ** 2 - 1, 0) == K
        assert nonnegative_on_ray(((T - K) ** 2 - 1) ** 4 - 1, -K) == K - 1
        assert nonnegative_on_ray(K - T**2, -K) == -K
        assert nonnegative_on_ray(K - T * T, 0) == isqrt(K) + 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: series_coefficients(RationalFunction(poly(1), poly(1, -1)), -1), "n_max must be >= 0"),
        (lambda: poly(1, 1) ** -1, "polynomial powers must be nonnegative"),
        (
            lambda: RationalFunction(poly(1), poly(1, -1)) ** -1,
            "rational function powers must be nonnegative",
        ),
    ],
    ids=["series_negative_n_max", "polynomial_negative_power", "rational_negative_power"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
