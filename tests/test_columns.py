"""A tail's residues held as integer columns, against the per-residue oracles.

``QuasiPolynomial`` stores column j as the t^j numerators of all d residues
over one common denominator, and its kernels run on whole columns: the Koszul
step (``exact._difference_columns``), the Taylor shift of the residues
(``exact._shift_columns``), the block difference table and the Newton
conversion of ``from_series`` (``exact._block_table``,
``exact._newton_columns``), reindexing, and the block-wise overlap check.
Each is compared here with the qmult-free per-residue oracles of
``exact_oracles``, ``forward_difference``, ``compose_linear`` and
``newton_interpolate`` on each residue's coefficients, and with those of
``kernel_oracles``, ``shift_tail``, ``reflect_tail``, ``reindexed``,
``check_tail`` and ``from_series``, at d in {2, 4, 6, 12, 24}, on rational
tails and tails with all-zero residues.
"""

import random
from fractions import Fraction
from math import comb

from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import koszul
from qmult.exact import (
    Polynomial,
    QmultError,
    _block_table,
    _difference_columns,
    _newton_columns,
    _reduced_columns,
    _shift_columns,
)
from qmult.fixtures import random_length_function
from qmult.lengths import LengthFunction, QuasiPolynomial, _check_tail, from_series
from qmult.series import parse_series
from test_tail_check import corrupt, outcome

from exact_oracles import compose_linear, forward_difference, newton_interpolate

PERIODS = [2, 4, 6, 12, 24]

coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=6)
residue = st.one_of(st.just(()), st.lists(coefficients, max_size=6))


@st.composite
def quasi_polynomials(draw):
    """A period-d quasi-polynomial with rational coefficients, some residues
    all zero, anchored anywhere."""
    d = draw(st.sampled_from(PERIODS))
    polys = tuple(Polynomial(draw(residue)) for _ in range(d))
    return QuasiPolynomial(d, polys, draw(st.integers(-60, 60)))


def forward_differences(values):
    """Delta^j at the first point, j = 0 .. len - 1, by the binomial sum."""
    return [
        sum((-1) ** (j - i) * comb(j, i) * values[i] for i in range(j + 1))
        for j in range(len(values))
    ]


def residues(qp):
    """Each residue's polynomial, read off the columns one entry at a time."""
    return [
        Polynomial([Fraction(column[i], qp.denominator) for column in qp.columns])
        for i in range(qp.d)
    ]


@given(quasi_polynomials())
def test_the_columns_are_the_residue_polynomials(qp):
    polys = qp.polys
    assert residues(qp) == list(polys)
    assert QuasiPolynomial(qp.d, polys, qp.valid_from) == qp
    assert qp.max_degree == max(p.degree for p in polys)
    assert qp.is_zero() == all(p.is_zero() for p in polys)
    assert not qp.columns or any(qp.columns[-1])
    for n in range(qp.valid_from - 2 * qp.d, qp.valid_from + 2 * qp.d):
        assert qp(n) == polys[n % qp.d](Fraction(n // qp.d))


@given(quasi_polynomials())
def test_the_koszul_step_on_columns_is_the_forward_difference(qp):
    step = QuasiPolynomial._from_columns(
        qp.d, *_reduced_columns(_difference_columns(qp.columns), qp.denominator), qp.valid_from
    )
    assert step.polys == tuple(Polynomial(forward_difference(p.coeffs)) for p in qp.polys)
    reduced = koszul._reduced_tail(qp, qp.d)
    if reduced is None:
        assert step.is_zero()
    else:
        assert reduced == QuasiPolynomial(qp.d, step.polys, qp.valid_from - qp.d)


@given(quasi_polynomials(), st.integers(-30, 30))
def test_a_taylor_shift_of_the_columns_shifts_each_residue(qp, p):
    if not qp.columns:
        return
    shifted = QuasiPolynomial._from_columns(
        qp.d, *_reduced_columns(_shift_columns(qp.columns, [p] * qp.d), qp.denominator), qp.valid_from
    )
    assert shifted.polys == tuple(Polynomial(compose_linear(g.coeffs, 1, p)) for g in qp.polys)


@given(quasi_polynomials(), st.sampled_from([1, -1]), st.integers(-60, 60))
def test_reindexing_is_a_permutation_and_shifts_of_the_columns(qp, sign, b):
    assert qp._reindexed(sign, b) == oracle.reindexed(qp, sign, b)
    assert qp.shift(b) == oracle.shift_tail(qp, b)
    assert qp.reflect() == oracle.reflect_tail(qp)


@given(st.sampled_from(PERIODS), st.integers(1, 7), st.integers(-9, 9), st.integers(0, 2**32))
def test_block_table_and_newton_columns_interpolate_every_residue(d, k, m, seed):
    rng = random.Random(seed)
    values = [rng.randint(-(10**6), 10**6) for _ in range(d * k)]
    table = _block_table(list(values), d)
    columns, weight = _newton_columns(table, d, m)
    qp = QuasiPolynomial._from_columns(d, *_reduced_columns(columns, weight), 0)
    for i, p in enumerate(qp.polys):
        points = [(m + j, values[d * j + i]) for j in range(k)]
        assert p == Polynomial(newton_interpolate(points))
        assert table[i::d] == forward_differences([v for _, v in points])


@given(st.sampled_from(PERIODS), st.integers(0, 2**32))
def test_block_wise_overlap_check_names_the_first_n_as_the_pointwise_one(d, seed):
    # A corrupted core, tail, anchor or period: the block-wise check and the
    # oracle's point-by-point one refuse with the same text, naming the same
    # first n where the tail and the core differ.
    rng = random.Random(seed)
    lf = random_length_function(rng, d)
    if rng.random() < 0.5:
        lf = lf + random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
    for what in ("none", "anchor", "poly", "negative", "core", "window", "period"):
        bad = corrupt(rng, lf, what)
        for side, qp in (("pos", bad.pos_tail), ("neg", bad.neg_tail)):
            assert outcome(_check_tail, bad, qp, side) == outcome(oracle.check_tail, bad, qp, side)


def test_one_changed_core_value_is_named_at_its_degree():
    # Each degree of the overlap in turn: the refusal names exactly it.
    lf = from_series(parse_series("t^7/((1-t^2)*(1-t^24))"), 24, 168)
    qp, values = lf.pos_tail, list(lf.core_values)
    for n in range(qp.valid_from, lf.core_end + 1, 7):
        changed = list(values)
        changed[n - lf.core_start] += 1
        bad = LengthFunction._unchecked(24, lf.core_start, tuple(changed), qp, None)
        text = outcome(_check_tail, bad, qp, "pos")[1]
        assert text.startswith(f"pos tail disagrees with the core at n={n}:"), text
        assert outcome(oracle.check_tail, bad, qp, "pos")[1] == text


SERIES = [
    "1/((1-t)*(1-t^2))",
    "t^7/((1-t^2)*(1-t^12))",
    "t^3/((1-t^4)*(1-t^6))",
    "(1+t^5)/((1-t^3)^2*(1-t^2))",
    "1/((1-t^2)^3*(1-t^3))",
    "t^5*(1+t)^4/(1-t)^5",
    "t^7/((1-t^2)*(1-t^24))",
    "(1-t^4)/((1-t)*(1-t^2)*(1-t^3))",
]


@given(st.sampled_from(SERIES), st.sampled_from(PERIODS), st.integers(0, 40))
def test_from_series_on_columns_matches_the_oracle(text, d, probe):
    f = parse_series(text)

    def model(build):
        try:
            return build(f, d, probe).to_json_dict()
        except QmultError as err:
            return type(err).__name__, str(err)

    assert model(from_series) == model(oracle.from_series)
