"""The three integer recurrences of a series job, against the forms they replaced.

``exact._power`` raises an integer coefficient list to a power by J.C.P.
Miller's recurrence, in one pass, against the n successive schoolbook
products of ``exact_oracles.poly_pow``: zero, constant and t^v bases,
negative constant terms, gaps such as 2 - 3t^4, and n up to 30.

``differences.newton_form`` converts a Newton table to monomial form by one
nested Horner pass on integers, against ``exact_oracles.newton_interpolate``
through the table's values at anchor + i, sum_j cs[j] C(i, j) / den, for up
to 12 entries, anchors in [-50, 50] and denominators above 1.

``multiplicity.limit_estimate`` reads each residue's Newton table off the
core values and sums it along one running binomial row, against the Fraction
sum of ``faulhaber_sum`` values (``fraction_limit_estimate``), on series
models, random two-sided functions and their shifts by +-(d + 1), at n around
the tail's anchor and the core's end, under both constants.

Counting tests pin what the new paths no longer do: a power forms no
product, and a limit estimate evaluates no tail polynomial.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import exact, series
from qmult.differences import _binomial_sum, newton_form
from qmult.exact import Polynomial, _power
from qmult.fixtures import random_length_function
from qmult.lengths import from_series
from qmult.multiplicity import limit_estimate
from qmult.series import parse_series
from test_input_readers import count_calls

from exact_oracles import newton_interpolate, poly_pow


@st.composite
def power_bases(draw):
    """t^v q as an integer list, trimmed: q empty (the zero list), a constant,
    or up to 6 coefficients with gaps, its constant term of either sign."""
    q = draw(st.lists(st.integers(-9, 9), max_size=6))
    if q:
        q[0] = draw(st.integers(-9, 9).filter(bool))
    while q and q[-1] == 0:
        q.pop()
    return [0] * draw(st.integers(0, 4)) * bool(q) + q


@given(power_bases(), st.integers(0, 30))
def test_power_matches_successive_products(a, n):
    assert _power(a, n) == poly_pow(a, n)


@pytest.mark.parametrize(
    "a",
    [[], [0, 1], [0, 0, 0, 1], [7], [-3], [1, -1], [1, 1], [-2, 0, 0, 0, 3], [2, 0, 0, 0, -3], [0, -1, 0, 5]],
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 30])
def test_power_of_named_bases(a, n):
    want = Polynomial(poly_pow(a, n))
    assert Polynomial._from_integers(_power(a, n), 1) == want
    assert _power(a, n) == poly_pow(a, n)


@given(
    st.lists(st.fractions(max_denominator=12).map(lambda c: c.limit_denominator(12)), max_size=5),
    st.integers(0, 12),
)
def test_polynomial_power_matches_successive_products(coeffs, n):
    g = Polynomial(coeffs)
    assert g**n == Polynomial(poly_pow(g.coeffs, n))


def test_a_power_forms_no_product(monkeypatch):
    # The one list product, where exact defines it and where the parser imports it.
    calls = Counter()
    for owner in (exact, series):
        count_calls(monkeypatch, owner, "_product", calls)
    f = parse_series("(1-t)^9")
    assert calls["_product"] == 0
    assert f.num == Polynomial(poly_pow([1, -1], 9))


@settings(deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=12),
    st.integers(-50, 50),
    st.integers(1, 10**4),
)
def test_newton_form_matches_newton_interpolation(cs, anchor, den):
    got = newton_form(cs, anchor, den)
    values = [Fraction(sum(c * comb(i, j) for j, c in enumerate(cs)), den) for i in range(len(cs))]
    points = [(anchor + i, v) for i, v in enumerate(values)]
    assert got == Polynomial(newton_interpolate(points))


@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(0, 60))
def test_binomial_sum_is_the_binomial_sum(table, x):
    assert _binomial_sum(table, x) == sum(e * comb(x, k + 1) for k, e in enumerate(table))


def series_models():
    for expr, d in [
        ("t^5*(1+t)^12/(1-t)^9", 2),
        ("t^3*(1+t)^5/(1-t)^7", 2),
        ("t^7/((1-t^2)*(1-t^12))", 12),
        ("1/((1-t^2)^3*(1-t^3))", 6),
        ("t^7/((1-t^2)*(1-t^24))", 24),
        ("t^7/((1-t^2)*(1-t^120))", 120),
        ("1/(1-t)^5", 4),
        ("t^30/(1-t^2)", 2),
    ]:
        yield from_series(parse_series(expr), d, 0)


def points(lf):
    """n >= 1 around the positive tail's anchor and the core's end, and 10^12."""
    qp, d, end = lf.pos_tail, lf.d, lf.core_end
    around = [end - 1, end, end + 1, end + d, end + 7]
    if qp is not None:
        around += [qp.valid_from - 1, qp.valid_from, qp.valid_from + 1]
    return sorted({n for n in around if n >= 1} | {1, 2, 10**12})


def assert_limits_match(lf):
    """At each point, s = cx under one constant and s = cx + 1 under the other:
    the partial sum, which the oracle takes its time over, is the same for
    every s."""
    cx = max(lf.complexity("positive"), 1)
    for n in points(lf):
        for s, constant in ((cx, "paper"), (cx + 1, "corrected")):
            got = limit_estimate(lf, s, n, constant)
            assert type(got) is Fraction
            assert got == oracle.fraction_limit_estimate(lf, s, n, constant), (lf, s, n)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_limit_estimate_on_series_models_and_their_shifts(k):
    for lf in series_models():
        assert_limits_match(lf.shift(k * (lf.d + 1)))


@settings(deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 6]), st.sampled_from([-1, 0, 1]), st.booleans())
def test_limit_estimate_on_random_two_sided_functions(seed, d, k, two_sided):
    rng = random.Random(seed)
    lf = random_length_function(rng, d)
    if two_sided:
        lf = lf + random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
    assert_limits_match(lf.shift(k * (d + 1)))


def test_a_limit_estimate_evaluates_no_tail_polynomial(monkeypatch):
    lf = from_series(parse_series("1/((1-t^2)^3*(1-t^3))"), 6, 0)
    want = oracle.fraction_limit_estimate(lf, 4, 10**12, "paper")
    calls = count_calls(monkeypatch, Polynomial, "numerator_at")
    assert limit_estimate(lf, 4, 10**12, "paper") == want
    assert calls["numerator_at"] == 0
