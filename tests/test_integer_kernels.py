"""The integer polynomial kernels against plain Fraction oracles.

Each kernel must agree exactly with its oracle in ``kernel_oracles.py``:
sums, differences, negation, products and powers, evaluation and
composition, the series expansion (both its integer pairs U_n / scale_n and
their Fraction view), the quasi-polynomial fit (results and
errors), the Faulhaber sum and the stabilized constant of the multiplicity
report.  A length function's values on a range, read as one list with its
tails evaluated on integers, must equal its values read one degree at a
time, and a tail value that is not a length raises the same error either
way.  A polynomial's JSON coefficients, its text and ``format_rational``
must match the text read off the Fractions.  Polynomial results are compared field by
field (``coeffs``, ``numerators`` and ``denominator``) with the oracle's,
which the validating constructor built.  The constructor and the kernels
share the final reduction, so ``TestStoredForm`` checks the constructor
against the definition of the stored form itself: the coefficients as
Fractions, over the lcm of their denominators.
"""

import random
from dataclasses import fields
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.differences import faulhaber_sum, newton_polynomial
from qmult.exact import (
    Polynomial,
    RationalFunction,
    format_rational,
    series_coefficients,
    series_integers,
)
from qmult.fixtures import random_length_function
from qmult.lengths import FitError, LengthFunction, ModelError, QuasiPolynomial, fit_quasipoly
from qmult.multiplicity import _stabilized_report
from qmult.series import parse_series

from exact_oracles import horner

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
polynomials = st.lists(rationals, max_size=8).map(lambda cs: Polynomial(tuple(cs)))
scalars = st.one_of(st.integers(-20, 20), rationals)


def assert_same(got, want):
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.numerators == want.numerators
    assert got.denominator == want.denominator


@st.composite
def cancelling_pairs(draw):
    """(g, h) whose top coefficients cancel in g + h, so the sum has lower
    degree than either summand, or is zero."""
    top = draw(st.lists(rationals.filter(bool), min_size=1, max_size=6))
    cut = draw(st.integers(0, 3))
    low_g = draw(st.lists(rationals, min_size=cut, max_size=cut))
    low_h = draw(st.lists(rationals, min_size=cut, max_size=cut))
    g = Polynomial(tuple(low_g + top))
    h = Polynomial(tuple(low_h + [-c for c in top]))
    return g, h


class TestArithmeticKernels:
    @given(polynomials, polynomials)
    def test_product(self, g, h):
        assert_same(g * h, oracle.fraction_product(g, h))

    @given(polynomials, polynomials)
    def test_sum_difference_and_negation(self, g, h):
        assert_same(g + h, oracle.fraction_sum(g, h))
        assert_same(g - h, oracle.fraction_sum(g, h, -1))
        assert_same(-g, oracle.fraction_sum(Polynomial(), g, -1))

    @given(polynomials, scalars)
    def test_scalar_operands(self, g, c):
        product = oracle.fraction_product(g, oracle.const(c))
        assert_same(g * c, product)
        assert_same(c * g, product)
        assert_same(g + c, oracle.fraction_sum(g, oracle.const(c)))
        assert_same(c + g, oracle.fraction_sum(g, oracle.const(c)))
        assert_same(g - c, oracle.fraction_sum(g, oracle.const(c), -1))
        assert_same(c - g, oracle.fraction_sum(oracle.const(c), g, -1))

    @given(cancelling_pairs())
    def test_cancellation_trims_and_reduces(self, pair):
        g, h = pair
        assert_same(g + h, oracle.fraction_sum(g, h))
        assert (g + h).degree < g.degree
        assert_same(g - g, Polynomial())
        assert_same(g * 0, Polynomial())

    @given(st.lists(rationals, max_size=5).map(lambda cs: Polynomial(tuple(cs))), st.integers(0, 6))
    def test_power(self, g, n):
        assert_same(g**n, oracle.fraction_power(g, n))


@st.composite
def dense_denominators(draw):
    head = draw(rationals.filter(bool))
    return Polynomial((head, *draw(st.lists(rationals, max_size=6))))


@st.composite
def sparse_denominators(draw):
    """A product of factors (c - a*t^k) with k up to 40: few nonzero terms
    spread over a high degree."""
    den = Polynomial((Fraction(1),))
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.fractions(1, 3, max_denominator=3))
        a = draw(st.fractions(-2, 2, max_denominator=3))
        k = draw(st.integers(1, 40))
        den = oracle.fraction_product(den, Polynomial((c,) + (Fraction(0),) * (k - 1) + (-a,)))
    return den


@st.composite
def binomial_denominators(draw):
    """(c - t)^e with c != 1, so den(0) != 1 and the recurrence scales by it."""
    c = draw(st.sampled_from([2, 3, -2, Fraction(1, 2), Fraction(-3, 4)]))
    return oracle.fraction_power(Polynomial((Fraction(c), Fraction(-1))), draw(st.integers(1, 4)))


denominators = st.one_of(dense_denominators(), sparse_denominators(), binomial_denominators())


class TestSeriesKernel:
    @settings(deadline=None)
    @given(polynomials, denominators, st.integers(0, 60))
    def test_matches_the_fraction_recurrence(self, num, den, n_max):
        f = RationalFunction(num, den)
        got = series_coefficients(f, n_max)
        assert all(type(c) is Fraction for c in got)
        assert got == oracle.fraction_series(num, den, n_max)
        pairs = list(series_integers(f, n_max))
        assert all(type(u) is int and type(scale) is int and scale > 0 for u, scale in pairs)
        assert [Fraction(u, scale) for u, scale in pairs] == got

    @pytest.mark.parametrize(
        "expr",
        [
            "1/(3-2*t)^2",
            "(1+t^3)/(3-2*t)^2",
            "1/(2+t)^3",
            "(5-t^2)/3/(2+t)^3",
            "t^2/7/((1-t)*(1+t)^2)",
            "t^5*(2+t)/((2+t)*(1-t)^2)",
        ],
    )
    def test_integer_core_where_den0_or_the_numerator_scales(self, expr):
        # D(0) != 1 or a numerator with a denominator: the scale is not 1, and
        # past the numerator common factors are divided out of it.
        f = parse_series(expr)
        assert (f.num.denominator, f.den.denominator) != (1, 1)
        pairs = list(series_integers(f, 200))
        assert all(scale > 0 for _, scale in pairs)
        assert [Fraction(u, scale) for u, scale in pairs] == oracle.fraction_series(f.num, f.den, 200)
        # The in-loop reduction keeps each scale within a factor below 2^20 of
        # the reduced denominator (98304 at most here); without it scale_200
        # would be M * L^200, up to 638 bits.
        for u, scale in pairs:
            factor, rest = divmod(scale, Fraction(u, scale).denominator)
            assert rest == 0 and factor < 2**20

    def test_zero_numerator(self):
        den = Polynomial((Fraction(2), Fraction(0), Fraction(-1, 3)))
        assert series_coefficients(RationalFunction(Polynomial(), den), 20) == [Fraction(0)] * 21

    def test_constant_term_two_against_closed_form(self):
        # 1/(2-t)^3 = sum_n C(n+2, 2) t^n / 2^(n+3)
        den = Polynomial((Fraction(2), Fraction(-1))) ** 3
        got = series_coefficients(RationalFunction(Polynomial((Fraction(1),)), den), 80)
        assert got == [Fraction(comb(n + 2, 2), 2 ** (n + 3)) for n in range(81)]

    @pytest.mark.parametrize(
        "num, den",
        [
            ((1, 1), (3, -2)),
            ((1,), (2, 0, -1)),
            ((1, -1), (6, -5, 1)),
            ((0, 0, 1, 1), (12, -16, 7, -1)),
            ((5, 0, 0, 0, 0, 3), (-4, 0, 0, 1)),
        ],
    )
    def test_long_expansions_with_den0_not_one(self, num, den):
        # Past the numerator the kernel divides common factors out of its
        # running integers; far along, that has happened many times.
        num = Polynomial(tuple(Fraction(c) for c in num))
        den = Polynomial(tuple(Fraction(c) for c in den))
        got = series_coefficients(RationalFunction(num, den), 300)
        assert got == oracle.fraction_series(num, den, 300)

    def test_sparse_hilbert_series(self):
        one = Polynomial((Fraction(1),))
        t = Polynomial((Fraction(0), Fraction(1)))
        num = one - t**4
        den = (one - t) * (one - t**2) * (one - t**3)
        got = series_coefficients(RationalFunction(num, den), 400)
        assert got == oracle.fraction_series(num, den, 400)


def trimmed(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


raw_coefficients = st.lists(scalars, max_size=8)


class TestStoredForm:
    """A polynomial stores only ``numerators`` over ``denominator``; the
    constructor and every arithmetic result must leave the same reduced form."""

    @given(raw_coefficients)
    def test_constructor(self, cs):
        g = Polynomial(cs)
        want = trimmed(cs)
        assert [f.name for f in fields(g)] == ["numerators", "denominator"]
        assert g.coeffs == want
        assert all(type(c) is Fraction for c in g.coeffs)
        assert g.denominator == lcm(*(c.denominator for c in want))
        assert g.numerators == tuple(c.numerator * (g.denominator // c.denominator) for c in want)
        assert all(type(n) is int for n in (*g.numerators, g.denominator))
        assert g.degree == len(want) - 1
        assert [g.coefficient(k) for k in range(-1, len(want) + 2)] == [0, *want, 0, 0]

    @given(raw_coefficients, raw_coefficients)
    def test_equality_and_hash_follow_the_coefficients(self, a, b):
        g, h = Polynomial(a), Polynomial(b)
        assert (g == h) == (trimmed(a) == trimmed(b))
        assert g == Polynomial((*a, 0, Fraction(0)))
        assert hash(g) == hash(Polynomial(tuple(trimmed(a))))
        if g == h:
            assert hash(g) == hash(h)

    @given(polynomials, polynomials, scalars, st.integers(0, 3))
    def test_arithmetic_results_match_the_constructor(self, g, h, c, n):
        results = [g + h, g - h, -g, g * h, g * c, c - g, g**n]
        results += [g.shift(c), g.compose_linear(c, c), g.forward_difference()]
        for r in results:
            rebuilt = Polynomial(r.coeffs)
            assert_same(r, rebuilt)
            assert r == rebuilt
            assert hash(r) == hash(rebuilt)
            assert repr(r) == repr(rebuilt)


class TestPolynomialKernels:
    @given(polynomials)
    def test_numerators_over_the_common_denominator(self, g):
        assert len(g.numerators) == len(g.coeffs)
        assert all(Fraction(n, g.denominator) == c for n, c in zip(g.numerators, g.coeffs))
        assert all(g.denominator % c.denominator == 0 for c in g.coeffs)

    @given(polynomials, st.one_of(st.integers(-10**6, 10**6), rationals))
    def test_call_matches_horner_on_fractions(self, g, x):
        got = g(x)
        assert type(got) is Fraction
        assert got == horner(g.coeffs, x)

    @given(polynomials.filter(lambda g: g.denominator > 1), st.integers(1, 10**6))
    def test_numerator_at_is_the_scaled_value(self, g, m):
        for x in (m, -m, 0):
            got = g.numerator_at(x)
            assert type(got) is int
            assert got == g.denominator * horner(g.coeffs, x)

    @given(polynomials, scalars, scalars)
    def test_compose_linear_matches_horner_composition(self, g, a, b):
        assert_same(g.compose_linear(a, b), oracle.horner_compose_linear(g, a, b))

    @given(polynomials, scalars)
    def test_shift_matches_horner_composition(self, g, c):
        assert_same(g.shift(c), oracle.horner_compose_linear(g, 1, c))

    @given(st.lists(rationals, max_size=7), st.integers(-30, 30))
    def test_newton_polynomial_is_the_binomial_sum(self, cs, anchor):
        want = Polynomial()
        for k, c in enumerate(cs):
            term = oracle.horner_compose_linear(oracle.binomial_polynomial(k), 1, -anchor)
            want = oracle.fraction_sum(want, oracle.fraction_product(term, oracle.const(c)))
        assert_same(newton_polynomial(cs, anchor), want)


# Large integers, and fractions whose numerator over a common denominator
# is not reduced.
wide_rationals = st.one_of(
    rationals,
    st.integers(-(10**40), 10**40).map(Fraction),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**20)),
)


class TestOutputAgainstFractions:
    @given(st.lists(wide_rationals, max_size=8))
    def test_to_json_formats_each_fraction_coefficient(self, cs):
        g = Polynomial(tuple(cs))
        want = [oracle.format_rational(c) for c in trimmed(cs)]
        assert g.to_json() == want == [oracle.format_rational(c) for c in g.coeffs]

    @pytest.mark.parametrize(
        "cs, want",
        [
            ((), []),
            ((0, 0), []),
            ((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), 4), ["1/2", "1/3", "-5/6", "4"]),
            ((0, Fraction(-3, 4), 10**30), ["0", "-3/4", str(10**30)]),
        ],
    )
    def test_to_json_examples(self, cs, want):
        assert Polynomial(cs).to_json() == want

    @given(st.one_of(st.integers(-(10**40), 10**40), st.booleans(), wide_rationals))
    def test_format_rational_matches_the_fraction_text(self, q):
        assert format_rational(q) == oracle.format_rational(q)

    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1]).map(Fraction), wide_rationals), max_size=13))
    def test_str_matches_the_fraction_text(self, cs):
        """Zero, the units +-1 (no factor before a power of t) at every degree
        up to 12, and numerators past 2^64 over reduced and unreduced
        denominators."""
        g = Polynomial(tuple(cs))
        assert str(g) == oracle.polynomial_text(g)
        assert repr(g) == f"Polynomial('{oracle.polynomial_text(g)}')"

    @pytest.mark.parametrize(
        "cs, want",
        [
            ((), "0"),
            ((0, 0), "0"),
            ((5,), "5"),
            ((1,), "1"),
            ((-1,), "-1"),
            ((Fraction(-3, 2),), "-3/2"),
            ((1, 1), "t + 1"),
            ((-1, -1), "-t - 1"),
            ((0, 0, 1), "t^2"),
            ((1, 0, -1), "-t^2 + 1"),
            ((-1, 4, Fraction(-9, 2), Fraction(3, 2)), "3/2*t^3 - 9/2*t^2 + 4*t - 1"),
            ((0, Fraction(1, 3), 0, -1), "-t^3 + 1/3*t"),
            ((2**70, *[0] * 11, Fraction(-(2**65), 3)), f"-{2**65}/3*t^12 + {2**70}"),
        ],
    )
    def test_str_examples(self, cs, want):
        g = Polynomial(cs)
        assert str(g) == want == oracle.polynomial_text(g)


def _outcome(fit, samples, d):
    try:
        qp = fit(samples, d)
    except FitError as err:
        return ("FitError", str(err))
    return (qp.polys, qp.valid_from)


@st.composite
def perturbed_samples(draw):
    """Samples of a random quasi-polynomial whose low window is overwritten."""
    d = draw(st.sampled_from([2, 4, 6]))
    polys = tuple(
        Polynomial(tuple(draw(st.lists(st.fractions(-9, 9, max_denominator=3), max_size=4))))
        for _ in range(d)
    )
    qp = QuasiPolynomial(d, polys, 0)
    lo = draw(st.integers(-12, 12))
    hi = lo + draw(st.integers(0, 14 * d))
    cut = draw(st.integers(lo, hi + 1))
    noise = st.sampled_from([0, 0, 1, -1, 7, Fraction(1, 2)])
    samples = {}
    for n in range(lo, hi + 1):
        value = qp(n) + (draw(noise) if n < cut else 0)
        samples[n] = int(value) if value.denominator == 1 and draw(st.booleans()) else value
    return samples, d


class TestFitAgainstCandidateInterpolation:
    @settings(deadline=None)
    @given(perturbed_samples())
    def test_same_polys_valid_from_and_errors(self, case):
        samples, d = case
        assert _outcome(fit_quasipoly, samples, d) == _outcome(oracle.fit_quasipoly, samples, d)

    def test_seeded_cases_cover_every_outcome(self):
        # Fits, too-short residue classes and failed stabilizations all occur,
        # and agree with the oracle, on these seeded cases.
        rng = random.Random(5)
        kinds = set()
        for _ in range(200):
            d = rng.choice([2, 4])
            polys = tuple(
                Polynomial(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))))
                for _ in range(d)
            )
            qp = QuasiPolynomial(d, polys, 0)
            hi = rng.randint(0, 12 * d)
            cut = rng.randint(0, hi + 1)
            samples = {n: qp(n) + (rng.randint(-2, 2) if n < cut else 0) for n in range(hi + 1)}
            got = _outcome(fit_quasipoly, samples, d)
            assert got == _outcome(oracle.fit_quasipoly, samples, d)
            if got[0] != "FitError":
                kinds.add("fit")
            else:
                kinds.add("too few blocks" if got[1].startswith("residue class") else "no stabilization")
        assert kinds == {"fit", "too few blocks", "no stabilization"}


class TestFaulhaberAgainstSummationPolynomial:
    @given(polynomials, st.integers(-60, 20), st.integers(0, 80))
    def test_partial_sums(self, g, N, length):
        assert faulhaber_sum(g, N, N + length) == oracle.faulhaber_sum(g, N, N + length)

    @given(polynomials, st.integers(-40, -1))
    def test_negative_range_against_brute_force(self, g, N):
        n = N + 25
        assert faulhaber_sum(g, N, n) == sum((g(i) for i in range(N, n + 1)), Fraction(0))


class TestStabilizedConstant:
    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2, 4, 6]))
    def test_against_repeated_differences(self, seed, d):
        # At s >= cx every residue profile flattens to one constant, which
        # _stabilized_report returns; at s = cx - 1 it returns the constant
        # when they all flatten to one and raises ModelError otherwise.
        lf = random_length_function(random.Random(seed), d=d, min_cx=1)
        cx = lf.complexity("positive")
        floor = lf.core_start - 2 * d
        profiles = oracle.residue_profiles(lf.pos_tail.polys)
        for s in range(max(cx - 1, 1), cx + 2):
            constants = [oracle.stabilized_constant(p, s) for p in profiles]
            if None in constants or len(set(constants)) > 1:
                assert s < cx
                with pytest.raises(
                    ModelError, match="not an integer|numeric stabilization check failed"
                ):
                    _stabilized_report(lf, s, floor)
            else:
                assert _stabilized_report(lf, s, floor)[0] == constants[0]

    @given(polynomials, st.integers(1, 10))
    def test_constant_is_the_scaled_coefficient(self, profile, s):
        constant = oracle.stabilized_constant(profile, s)
        assert (constant is None) == (profile.degree > s - 1)
        if constant is not None:
            assert constant == factorial(s - 1) * profile.coefficient(s - 1)


RANGES = ("below", "above", "across the low edge", "across the high edge", "inside", "around", "empty")


def random_two_sided(seed, d):
    """A random valid length function, with a negative tail added three times
    in four."""
    rng = random.Random(seed)
    lf = random_length_function(rng, d)
    if rng.random() < 0.75:
        lf = lf + random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
    return lf


class TestRangeEvaluation:
    @given(
        st.integers(0, 10**6),
        st.sampled_from([2, 4, 6]),
        st.sampled_from(RANGES),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_values_match_the_pointwise_values(self, seed, d, where, a, b):
        lf = random_two_sided(seed, d)
        start, end = lf.core_start, lf.core_end
        lo, hi = {
            "below": (start - 1 - a - b, start - 1 - a),
            "above": (end + 1 + a, end + 1 + a + b),
            "across the low edge": (start - 1 - a, start + b),
            "across the high edge": (end - a, end + 1 + b),
            "inside": (min(start + a, end), min(start + a + b, end)),
            "around": (start - 1 - a, end + 1 + b),
            "empty": (start + a - b, start + a - b - 1),
        }[where]
        got = lf.values(lo, hi)
        assert got == [lf(n) for n in range(lo, hi + 1)]
        assert all(type(v) is int for v in got)

    @staticmethod
    def not_a_length(c):
        """A function, built without validation, whose positive tail is c at
        every even degree from 2 up and 0 at every odd one."""
        qp = QuasiPolynomial(2, (Polynomial.const(c), Polynomial()), 2)
        return LengthFunction._unchecked(2, 0, (0, 0), qp, None)

    @pytest.mark.parametrize(
        "c, message",
        [
            (Fraction(1, 2), "tail evaluates to 1/2 at n=2; not a length"),
            (-3, "tail evaluates to -3 at n=2; not a length"),
        ],
    )
    def test_a_tail_value_that_is_not_a_length_is_named(self, c, message):
        lf = self.not_a_length(c)
        mirror = message.replace("n=2", "n=-2")
        for call, text in [
            (lambda: lf(2), message),
            (lambda: lf.values(0, 5), message),
            (lambda: lf.reflect()(-2), mirror),
            (lambda: lf.reflect().values(-3, 0), mirror),
        ]:
            with pytest.raises(ModelError) as info:
                call()
            assert str(info.value) == text
        assert lf.values(0, 1) == [0, 0]
        assert lf.values(3, 3) == [0]
