"""Multiplicities: Herbrand differences, both conventions, limits, specializations."""

import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.differences import delta, delta_neg
from qmult.exact import Polynomial, series_coefficients
from qmult.fixtures import random_length_function, random_polynomial
from qmult.koszul import reduce
from qmult.lengths import LengthFunction, ModelError, QuasiPolynomial
from qmult.multiplicity import (
    MultiplicityError,
    _stabilized_report,
    euler_characteristic,
    herbrand,
    limit_estimate,
    multiplicity_neg,
    multiplicity_pos,
    serre_intersection,
    theta_invariant,
    vanishing_window_check,
)
from qmult.series import parse_series
from qmult.lengths import from_series


def outcome(report, *args):
    """The report's result, or the message of the ModelError it raised."""
    try:
        return report(*args)
    except ModelError as e:
        return str(e)


def poly(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


def xy_fixture(r):
    values = tuple(r if n >= 2 and n % 2 == 0 else 0 for n in range(-2, 13))
    return LengthFunction(
        2, -2, values, QuasiPolynomial(2, (poly(r), poly()), 2), None
    )


def hypersurface_fixture():
    values = (0, 0, 0) + (1,) * 12
    return LengthFunction(
        2, -2, values, QuasiPolynomial(2, (poly(1), poly(1)), 1), None
    )


def zero_fixture():
    return LengthFunction(2, 0, (0,), None, None)


def jst_fixture(c):
    return from_series(parse_series(f"t^{c}/(1-t^2)^{c}"), 2, 80)


def two_sided_periodic(r):
    values = tuple(r if n % 2 == 0 else 0 for n in range(-10, 11))
    tail = lambda: QuasiPolynomial(2, (poly(r), poly()), 0)  # noqa: E731
    return LengthFunction(2, -10, values, tail(), tail())


def hochster_fixture(a, b):
    values = tuple((a if n % 2 == 0 else b) if n <= 0 else 0 for n in range(-14, 3))
    return LengthFunction(
        2, -14, values, None, QuasiPolynomial(2, (poly(a), poly(b)), -4)
    )


def brute_stabilized_delta(values, d, s):
    """Independent oracle: stabilized D^{s-1} h from raw coefficients alone.

    Works on a plain list of lambda(0..N) with no quasi-polynomial machinery:
    builds h pointwise, applies the closed-form difference, and insists the
    result is constant across a window before returning it.
    """

    def lam(n):
        return values[n]

    def h(n):
        return sum((1 if (n + i) % 2 == 0 else -1) * lam(n + i) for i in range(d))

    def diff(n):
        return sum(
            (-1) ** i * comb(s - 1, i) * h(n + (s - 1 - i) * d) for i in range(s)
        )

    reach = (s - 1) * d + d
    window = [diff(n) for n in range(len(values) - reach - 3 * d, len(values) - reach)]
    assert len(set(window)) == 1, f"no stabilization: {window}"
    return window[0]


class TestHerbrand:
    def test_even_support(self):
        assert herbrand(xy_fixture(3), 4) == 3

    def test_zero(self):
        assert herbrand(zero_fixture(), -3) == 0

    def test_hypersurface(self):
        assert herbrand(hypersurface_fixture(), 2) == 0

    def test_window_width(self):
        s4 = from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), 6, 120)
        n = 12
        want = sum((-1) ** i * s4(n + i) for i in range(6))
        assert herbrand(s4, n) == want


class TestMultiplicityPos:
    def test_xy_both_conventions(self):
        for r in (1, 2, 5):
            report = multiplicity_pos(xy_fixture(r), 1)
            assert report.e_delta == r and report.e_coeff == r

    def test_jst_convention_split(self):
        report = multiplicity_pos(jst_fixture(2), 2)
        assert report.e_delta == 1
        assert report.e_coeff == 2
        assert report.cx == 2

    def test_jst_against_brute_force_oracle(self):
        for c, want in ((2, 1), (3, -1), (4, 1)):
            coeffs = [
                int(x)
                for x in series_coefficients(parse_series(f"t^{c}/(1-t^2)^{c}"), 400)
            ]
            assert brute_stabilized_delta(coeffs, 2, c) == want
            assert multiplicity_pos(jst_fixture(c), c).e_delta == want

    def test_group_cohomology_vanishes(self):
        s4 = from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), 6, 120)
        report = multiplicity_pos(s4, 2)
        assert report.e_delta == 0 and report.e_coeff == 0

    def test_binomial_family_vanishes(self):
        for c in (2, 3, 5):
            lf = from_series(parse_series(f"1/(1-t)^{c}"), 2, 60)
            report = multiplicity_pos(lf, c)
            assert report.e_delta == 0 and report.e_coeff == 0
            want = Fraction(2 ** (c - 1))
            for k in range(2, c):
                want /= k
            assert report.leading == (want, want)

    def test_point_mass_euler(self):
        lf = LengthFunction(2, 0, (1,), None, None)
        report = multiplicity_pos(lf, 0)
        assert report.e_delta == report.e_coeff == 1

    def test_s_below_complexity_rejected(self):
        with pytest.raises(MultiplicityError):
            multiplicity_pos(jst_fixture(2), 1)

    def test_complexity_zero_needs_vanishing_negative_tail(self):
        with pytest.raises(MultiplicityError):
            multiplicity_pos(hochster_fixture(5, 2), 0)

    def test_vanishing_above_complexity(self):
        for lf in (xy_fixture(2), jst_fixture(3), hypersurface_fixture()):
            cx = lf.complexity("positive")
            for s in (cx + 1, cx + 2):
                report = multiplicity_pos(lf, s)
                assert report.e_delta == 0 and report.e_coeff == 0

    def test_convention_bridge(self):
        for lf, s in ((jst_fixture(3), 3), (jst_fixture(4), 4), (xy_fixture(5), 1)):
            report = multiplicity_pos(lf, s)
            assert report.e_coeff == lf.d ** (s - 1) * report.e_delta

    def test_stabilization_index_is_verified(self):
        report = multiplicity_pos(xy_fixture(3), 1)
        # h is 3 from degree 1 on (window [1,2] gives 0*? check): the index
        # must mark a degree where the difference already equals the value.
        n = report.stabilization_index
        lf = xy_fixture(3)
        assert herbrand(lf, n) == 3


class TestMultiplicityNeg:
    def test_two_sided_periodic_matches_positive(self):
        for r in (1, 4):
            lf = two_sided_periodic(r)
            pos = multiplicity_pos(lf, 1)
            neg = multiplicity_neg(lf, 1)
            assert pos.e_delta == neg.e_delta == r
            assert pos.e_coeff == neg.e_coeff == r

    def test_finite_support_euler_agrees(self):
        lf = LengthFunction(2, 0, (1, 2), None, None)
        assert multiplicity_neg(lf, 0).e_delta == multiplicity_pos(lf, 0).e_delta == -1

    def test_hochster_difference(self):
        report = multiplicity_neg(hochster_fixture(5, 2), 1)
        assert report.e_delta == 3 and report.e_coeff == 3

    def test_negative_bridge_carries_sign(self):
        # Two-sided growth: the backward stabilized value and the coefficient
        # formula differ by (-1)^(s-1) d^(s-1) on the negative side.
        pos = QuasiPolynomial(2, (poly(0, 1), poly()), 0)
        neg = QuasiPolynomial(2, (poly(0, -1), poly()), 0)
        values = tuple(abs(n) // 2 if n % 2 == 0 else 0 for n in range(-14, 15))
        lf = LengthFunction(2, -14, values, pos, neg)
        report = multiplicity_neg(lf, 2)
        assert report.e_delta == 1
        assert report.e_coeff == -2
        assert multiplicity_pos(lf, 2).e_delta == 1  # the two sides coincide

    def test_s_below_negative_complexity_rejected(self):
        with pytest.raises(MultiplicityError):
            multiplicity_neg(hochster_fixture(5, 2), 0)

    def test_reflection_duality_across_periods(self):
        # The backward engine on a reflected function must reproduce the
        # forward engine on the original, for every period and degree.
        import random

        from qmult.fixtures import random_length_function

        rng = random.Random(42)
        for _ in range(40):
            g = random_length_function(rng, d=rng.choice([2, 4, 6]), min_cx=1)
            s = g.complexity("positive") + rng.randint(0, 1)
            pos = multiplicity_pos(g, s)
            neg = multiplicity_neg(g.reflect(), s)
            assert neg.e_delta == pos.e_delta
            assert neg.e_coeff == (-1) ** (s - 1) * pos.e_coeff

    def test_against_the_backward_difference(self):
        # Independent of the reflection: the literal D-^{s-1} h holds e_delta
        # at and below the reported index and, unless the scan reached its
        # ceiling core_end + 2d, differs just above it; e_coeff is the
        # coefficient formula on the negative tail's own polynomials.
        import random
        from math import factorial

        from qmult.differences import delta_neg
        from qmult.fixtures import random_length_function

        rng = random.Random(11)
        cases = [(two_sided_periodic(3), 1), (two_sided_periodic(3), 2)]  # scans reach the ceiling
        for _ in range(40):
            g = random_length_function(rng, d=rng.choice([2, 4, 6]), min_cx=1)
            lf = g.reflect().shift(rng.randint(-5, 5))
            cases.append((lf, lf.complexity("negative") + rng.randint(0, 1)))
        for lf, s in cases:
            report = multiplicity_neg(lf, s)
            h = lambda n: herbrand(lf, n)  # noqa: E731
            top = report.stabilization_index
            for n in range(top - 3 * lf.d, top + 1):
                assert delta_neg(h, s - 1, lf.d, n) == report.e_delta
            if top < lf.core_end + 2 * lf.d:
                assert delta_neg(h, s - 1, lf.d, top + 1) != report.e_delta
            polys = lf.neg_tail.polys
            assert report.polys_neg == polys
            assert report.leading == tuple(p.coefficient(s - 1) for p in polys)
            alternating = sum((-1) ** i * a for i, a in enumerate(report.leading))
            assert report.e_coeff == factorial(s - 1) * lf.d ** (s - 1) * alternating


@st.composite
def stabilization_cases(draw, below=0):
    """(lf, side, s) at s = max(cx - below, 1)..cx+2 on ``side``: random
    one-sided functions, and functions that are one quasi-polynomial on all of
    Z, whose scans run down to the floor; reflected for the negative side,
    then shifted."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    d = draw(st.sampled_from([2, 4, 6]))
    side = draw(st.sampled_from(["positive", "negative"]))
    if draw(st.booleans()):
        lf = random_length_function(rng, d=d, min_cx=1)
    else:
        # a_i + b_i m^2 is nonnegative on every block index, so both tails
        # can be the same quasi-polynomial.
        polys = tuple(poly(rng.randint(i == 0, 4), 0, rng.randint(0, 2)) for i in range(d))
        lo = -d * rng.randint(2, 3)
        hi = lo + d * rng.randint(4, 6)
        qp = QuasiPolynomial(d, polys, lo)
        values = tuple(int(qp(n)) for n in range(lo, hi + 1))
        lf = LengthFunction(
            d, lo, values, qp, QuasiPolynomial(d, polys, hi)
        )
    if side == "negative":
        lf = lf.reflect()
    lf = lf.shift(draw(st.integers(-5, 5)))
    return lf, side, max(lf.complexity(side) + draw(st.integers(-below, 2)), 1)


class TestStabilizationAgainstTheLiteralDifference:
    @settings(deadline=None)
    @given(stabilization_cases())
    def test_e_delta_and_stabilization_index(self, case):
        # e_delta is the literal D^{s-1} h (D-^{s-1} h on the negative side)
        # on every degree from the confirmation window to the reported index,
        # and differs just past the index unless the scan stopped at its bound.
        lf, side, s = case
        d = lf.d
        h = lambda n: herbrand(lf, n)  # noqa: E731
        report = (multiplicity_pos if side == "positive" else multiplicity_neg)(lf, s)
        index = report.stabilization_index
        if side == "positive":
            floor = lf.core_start - 2 * d
            assert floor <= index
            for n in range(index, lf.pos_tail.valid_from + 3 * d):
                assert delta(h, s - 1, d, n) == report.e_delta
            if index > floor:
                assert delta(h, s - 1, d, index - 1) != report.e_delta
        else:
            ceiling = lf.core_end + 2 * d
            assert index <= ceiling
            reach = s * (d + 1) - 2
            for n in range(lf.neg_tail.valid_from - reach - 3 * d + 1, index + 1):
                assert delta_neg(h, s - 1, d, n) == report.e_delta
            if index < ceiling:
                assert delta_neg(h, s - 1, d, index + 1) != report.e_delta
        alternating = sum((-1) ** i * a for i, a in enumerate(report.leading))
        assert report.e_coeff == factorial(s - 1) * d ** (s - 1) * alternating
        sign = 1 if side == "positive" else (-1) ** (s - 1)
        assert report.e_coeff == sign * d ** (s - 1) * report.e_delta

    @settings(deadline=None)
    @given(stabilization_cases(below=1))
    def test_certificate_matches_the_per_degree_scan(self, case):
        # The integer sum and the whole-list differences of h give the same
        # (e_delta, e_coeff, index) as the Fraction sum and one closed-form
        # difference per degree, or the same refusal at s = cx - 1.
        lf, side, s = case
        if side == "positive":
            args = (lf, s, lf.core_start - 2 * lf.d)
        else:
            reach = s * (lf.d + 1) - 2
            args = (lf.reflect(), s, -(lf.core_end + 2 * lf.d) - reach)
        assert outcome(_stabilized_report, *args) == outcome(oracle.stabilized_report, *args)

    def test_lambda_evaluations_grow_linearly_in_d(self, monkeypatch):
        # One window sum and a running update: a few thousand evaluations of
        # lambda at d = 240, not one window of d per difference term.
        lf = from_series(parse_series("t^7/((1-t^2)*(1-t^120))"), 240, 1680)
        calls = 0
        evaluate = LengthFunction.__call__

        def counted(self, n):
            nonlocal calls
            calls += 1
            return evaluate(self, n)

        monkeypatch.setattr(LengthFunction, "__call__", counted)
        report = multiplicity_pos(lf, 2)
        assert report.e_delta == -240
        assert calls < 5000


class TestEuler:
    def test_point_masses(self):
        one = LengthFunction(2, 0, (1,), None, None)
        pair = LengthFunction(2, 0, (1, 1), None, None)
        assert euler_characteristic(one) == 1
        assert euler_characteristic(pair) == 0

    def test_double_reduction_of_even_family(self):
        lf = jst_fixture(2)
        reduced = reduce(reduce(lf, "positive"), "positive")
        assert euler_characteristic(reduced) == 1
        assert multiplicity_pos(jst_fixture(2), 2).e_delta == 1

    def test_infinite_support_rejected(self):
        with pytest.raises(MultiplicityError):
            euler_characteristic(xy_fixture(1))


class TestLimitEstimate:
    def test_even_support_exact_at_even_n(self):
        lf = xy_fixture(3)
        est = limit_estimate(lf, 1, 10**5, "paper")
        assert abs(est - 3) < Fraction(3, 10**4)

    def test_jst_conventions(self):
        lf = jst_fixture(2)
        assert abs(limit_estimate(lf, 2, 10**5, "paper") - 2) < Fraction(1, 10**4)
        assert abs(limit_estimate(lf, 2, 10**5, "corrected") - 1) < Fraction(1, 10**4)

    def test_partial_sum_identity(self):
        # For the even-support square family the alternating partial sum at
        # n = 2M is M(M+1)/2; check the estimator against it directly.
        lf = jst_fixture(2)
        M = 500
        n = 2 * M
        want = Fraction(16) * (Fraction(M * (M + 1), 2)) / Fraction(n) ** 2
        assert limit_estimate(lf, 2, n, "paper") == want

    def test_zero_function(self):
        assert limit_estimate(zero_fixture(), 1, 1000, "paper") == 0

    def test_matches_direct_summation(self):
        for lf in (jst_fixture(3), xy_fixture(2), hypersurface_fixture()):
            n = 137
            s = max(lf.complexity("positive"), 1)
            direct = sum((-1) ** j * lf(j) for j in range(n + 1))
            want = (
                Fraction(
                    __import__("math").factorial(s) * lf.d ** (2 * s - 1)
                )
                * direct
                / Fraction(n) ** s
            )
            assert limit_estimate(lf, s, n, "paper") == want

    def test_core_anchored_above_zero(self):
        lf = LengthFunction(2, 5, (2,), None, None)
        n = 7
        direct = sum((-1) ** j * lf(j) for j in range(n + 1))
        assert limit_estimate(lf, 1, n, "paper") == Fraction(2 * direct, n)

    def test_core_ending_below_zero(self):
        # The sum runs over 0 <= j <= n even when the core ends below 0 and
        # the tail already holds there; checked against the literal sum on
        # random tails a_i + b_i m^2, which are nonnegative on every block.
        tail = QuasiPolynomial(2, (poly(1), poly(1)), -10)
        lf = LengthFunction(2, -10, (1,) * 9, tail, None)
        assert limit_estimate(lf, 1, 1, "corrected") == 0
        rng = random.Random(59)
        for _ in range(60):
            d = rng.choice([2, 4, 6])
            polys = tuple(poly(rng.randint(0, 4), 0, rng.randint(0, 2)) for _ in range(d))
            need = d * (max(p.degree for p in polys) + 2)
            end = -rng.randint(1, 2 * d)
            valid_from = end - need - rng.randint(0, d)
            start = valid_from - rng.randint(0, d)
            qp = QuasiPolynomial(d, polys, valid_from)
            values = tuple(
                rng.randint(0, 5) if n < valid_from else int(qp(n)) for n in range(start, end + 1)
            )
            lf = LengthFunction(d, start, values, qp, None)
            for n in (1, 2, rng.randint(3, 40)):
                direct = sum((-1) ** j * lf(j) for j in range(n + 1))
                for s in (1, 2, 3):
                    for constant, c in (("paper", d ** (2 * s - 1)), ("corrected", d**s)):
                        want = Fraction(factorial(s) * c * direct, n**s)
                        assert limit_estimate(lf, s, n, constant) == want, (lf, n, s)

    def test_consistency_at_s_one(self):
        # Both constants coincide at s = 1 and converge with error O(1/n).
        lf = hypersurface_fixture()
        for n in (101, 1001, 10001):
            paper = limit_estimate(lf, 1, n, "paper")
            corrected = limit_estimate(lf, 1, n, "corrected")
            assert paper == corrected
            assert abs(paper - 0) < Fraction(4, n)


class TestTheta:
    def _tor(self, a, b, upto=20):
        values = tuple(a if n % 2 == 0 else b for n in range(upto + 1))
        return LengthFunction(
            2,
            0,
            values,
            QuasiPolynomial(2, (poly(a), poly(b)), 0),
            None,
        )

    def test_stabilized_difference(self):
        assert theta_invariant(self._tor(5, 2)) == 3

    def test_eventually_zero(self):
        lf = LengthFunction(2, 0, (7, 3, 1, 0, 0), None, None)
        assert theta_invariant(lf) == 0

    def test_periodic_equal(self):
        assert theta_invariant(self._tor(4, 4)) == 0

    def test_non_stabilizing_rejected(self):
        lf = from_series(parse_series("1/(1-t)^2"), 2, 30)
        with pytest.raises(MultiplicityError):
            theta_invariant(lf)

    def test_wrong_period_rejected(self):
        lf = from_series(parse_series("1/(1-t^6)"), 6, 60)
        with pytest.raises(MultiplicityError):
            theta_invariant(lf)


class TestSerre:
    def test_single(self):
        assert serre_intersection([4]) == 4

    def test_pair(self):
        assert serre_intersection([3, 1]) == 2

    def test_cancellation(self):
        assert serre_intersection([2, 2]) == 0

    def test_empty(self):
        assert serre_intersection([]) == 0

    def test_negative_rejected(self):
        with pytest.raises(MultiplicityError):
            serre_intersection([1, -1])

    @pytest.mark.parametrize(
        "lengths, shown",
        [
            ([1.9, "3", True], "tor_lengths[0] is 1.9 (float)"),
            ([3, "3"], "tor_lengths[1] is 3 (str)"),
            ([3, 1, True], "tor_lengths[2] is True (bool)"),
            ([Fraction(1, 2)], "tor_lengths[0] is 1/2 (Fraction)"),
        ],
        ids=["float", "string", "bool", "fraction"],
    )
    def test_lengths_are_not_coerced(self, lengths, shown):
        # int() used to turn [1.9, "3", True] into [1, 3, 1], summing to -1.
        with pytest.raises(MultiplicityError) as info:
            serre_intersection(lengths)
        assert str(info.value) == f"{shown}, not an integer"

    def test_integral_fractions_are_lengths(self):
        assert serre_intersection([Fraction(6, 2), 1]) == 2


class TestVanishingWindow:
    def test_zero_function_confirmed(self):
        assert vanishing_window_check(zero_fixture(), 0, "even").status == "confirmed"

    def test_group_cohomology_window_not_found(self):
        s4 = from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), 6, 120)
        assert vanishing_window_check(s4, 0, "even").status == "window_not_found"
        assert vanishing_window_check(s4, 5, "odd").status == "window_not_found"

    def test_finite_support_confirmed_beyond_support(self):
        lf = LengthFunction(
            2, 0, (1, 1, 0, 2, 2, 0, 0, 0, 0, 0), None, None
        )
        assert euler_characteristic(lf) == 0
        result = vanishing_window_check(lf, 10, "even")
        assert result.status == "confirmed"

    def test_violation_reported(self):
        lf = LengthFunction(2, 0, (1, 1, 0, 0, 2, 2), None, None)
        result = vanishing_window_check(lf, 2, "even")
        assert result.status == "violated"
        assert result.violation == 4

    def test_nonzero_multiplicity_rejected(self):
        with pytest.raises(MultiplicityError):
            vanishing_window_check(xy_fixture(1), 0, "even")


class TestResidueConsistency:
    def test_profiles_flatten_identically(self):
        # All d residue classes of D^{s-1} h stabilize to one constant.
        s4 = from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), 6, 120)
        profiles = oracle.residue_profiles(s4.pos_tail.polys)
        diffed = [p.forward_difference() for p in profiles]
        assert len({d.coefficient(0) for d in diffed}) == 1
        assert all(d.degree <= 0 for d in diffed)

    def test_profiles_share_the_leading_coefficient(self):
        # The identity behind e_delta = (s-1)! * sum_k (-1)^k a_k: for s >= cx
        # every profile has degree <= s-1 and t^(s-1) coefficient
        # sum_k (-1)^k a_k, since the spilled differences have degree <= s-2.
        rng = random.Random(7)
        for _ in range(200):
            d = rng.choice([2, 4, 6, 12])
            polys = [random_polynomial(rng) for _ in range(d)]
            profiles = oracle.residue_profiles(polys)
            cx = 1 + max(g.degree for g in polys)
            for s in range(max(cx, 1), cx + 3):
                alternating = sum((-1) ** k * g.coefficient(s - 1) for k, g in enumerate(polys))
                for profile in profiles:
                    assert profile.degree <= s - 1
                    assert profile.coefficient(s - 1) == alternating


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: limit_estimate(jst_fixture(1), 1, 10, "x"), "unknown constant 'x'"),
        (lambda: vanishing_window_check(jst_fixture(1), 0, "x"), "parity must be 'even' or 'odd'"),
    ],
    ids=["limit_unknown_constant", "window_unknown_parity"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
