"""The integer polynomial kernels against plain Fraction oracles.

Each kernel must agree exactly with its oracle in ``kernel_oracles.py``:
evaluation and composition, the quasi-polynomial fit (results and errors),
the Faulhaber sum and the stabilized constant of the multiplicity report.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.differences import faulhaber_sum, newton_polynomial
from qmult.exact import Polynomial
from qmult.fixtures import random_length_function
from qmult.lengths import FitError, ModelError, QuasiPolynomial, fit_quasipoly
from qmult.multiplicity import _stabilized_report

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
polynomials = st.lists(rationals, max_size=8).map(lambda cs: Polynomial(tuple(cs)))
scalars = st.one_of(st.integers(-20, 20), rationals)


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
        assert got == oracle.horner_eval(g, x)

    @given(polynomials, scalars, scalars)
    def test_compose_linear_matches_horner_composition(self, g, a, b):
        assert g.compose_linear(a, b) == oracle.horner_compose_linear(g, a, b)

    @given(polynomials, scalars)
    def test_shift_matches_horner_composition(self, g, c):
        assert g.shift(c) == oracle.horner_compose_linear(g, 1, c)

    @given(st.lists(rationals, max_size=7), st.integers(-30, 30))
    def test_newton_polynomial_is_the_binomial_sum(self, cs, anchor):
        want = Polynomial()
        for k, c in enumerate(cs):
            want = want + oracle.horner_compose_linear(oracle.binomial_polynomial(k), 1, -anchor) * c
        assert newton_polynomial(cs, anchor) == want


def _outcome(fit, samples, d):
    try:
        qp = fit(samples, d)
    except FitError as err:
        return ("FitError", str(err), err.residue, err.best_degree)
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
                kinds.add("too few blocks" if got[3] is None else "no stabilization")
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
