"""Series tails certified from the denominator, against expansion and the poles.

``lengths.from_series`` reads the tail of f = N/D off D instead of fitting it
to a probe window.  On random f = t^a (1 + t)^b / prod_i (1 - t^k_i):

* with every k_i | d, the model agrees with the Fraction series recurrence of
  ``kernel_oracles`` far past its certified start, and its complexity and
  multiplicities agree with the pole oracle: cx is the order of f's pole at
  t = 1 and e_delta(s) = d^s [(1 + t)^s f(t)] at t = -1, for s in {cx, cx + 1};
* with some k_i not dividing d, a primitive k_i-th root of unity is a pole
  that (1 + t)^b cannot cancel, so the series is refused by name.

The numerator also carries (1 - t)^c (1 + t)^e against (1 - t)^c (1 - t^2)^e
in the denominator.  Nothing reduces N/D, so D's zero at t = 1 has a higher
order than f's pole there, and D's at t = -1 may too: the certificate must
still find the true complexity and multiplicities.

A series C/(1 - t)^a + t^j/Phi_m^b with m | d, m > 1 and b > a has its pole at
a primitive m-th root of unity outrank the one at 1, so its coefficients go
negative; with C large that happens only past the expanded window, and the
refusal must name that reason rather than an off-period pole.

The probe is drawn too, down to 0: it only sets the smallest core shown.

The model comes from one integer expansion: its lengths, its tail, accepted
only if it agrees with the expansion on the deg D + dk degrees from its
boundary ``valid_from`` = max(0, deg N - deg D + 1) on, and that boundary are
all read off it.  On all of the series above, and on series whose coefficients
are not lengths (a divisor such as 2 + t or 1 + t), it must give the same
function, or the same error word for word, as the model first written in
``kernel_oracles``, which expands one Fraction per coefficient as far, decides
P by a second expansion and scans every degree for the boundary.  Where the
tail does not vanish, the series differs from it just below the boundary.

That refusal divides every Phi_m (m | d) out of D's part prime to t - 1, by
the library's one exact division.  On products of powers of Phi_m, some with
m | d and some not, and of factors with no root of unity as a root, the
stripped polynomial agrees with the oracle's Moebius series and long division,
and is the product of the factors that are not a Phi_m with m | d; the exact
division agrees with long division wherever the divisor is monic, and with the
oracle's Fraction series for primitive divisors that are not, such as 2 + 3t
and (1 - 2t)^3.

``from_series`` and the sum of two length functions are built without the
validating constructor, each check proved by construction.  The validating
constructor stays their oracle: rebuilding each model of the series above,
and each sum of two random two-sided functions, through it raises nothing and
changes no field.  The sign of the tail out along its ray is the one check
that the construction does not prove: (100 - 101 t^2)/(1 - t^2)^2 passes the
length scan and the agreement window, and goes negative at degree 206.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.exact import Polynomial, QmultError
from qmult.fixtures import load_corpus, random_length_function
from qmult.lengths import LengthFunction, ModelError, _quotient, _strip_cyclotomic, from_series
from qmult.multiplicity import multiplicity_pos
from qmult.series import parse_series

from exact_oracles import laurent_complexity, laurent_e_delta

PERIODS = (2, 4, 6, 12)


@st.composite
def series(draw, off_period=False):
    """(expression, d, probe) for t^a (1 + t)^b / prod (1 - t^k_i), every k_i | d;
    with ``off_period`` one more k_i that does not divide d."""
    d = draw(st.sampled_from(PERIODS))
    ks = draw(st.lists(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]), max_size=4))
    if off_period:
        ks.append(draw(st.sampled_from([k for k in range(2, 26) if d % k])))
    a, b = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    c, e = draw(st.integers(0, 2)), draw(st.integers(0, 2))  # cancelled in N/D
    ks += [1] * c
    den = "*".join([f"(1-t^{k})" for k in draw(st.permutations(ks))] + ["(1-t^2)"] * e) or "1"
    num = f"t^{a}*(1+t)^{b}*(1-t)^{c}*(1+t)^{e}"
    return f"{num}/({den})", d, draw(st.sampled_from([0, 5, 80]))


# Phi_m for the m > 1 that divide some period in PERIODS.
CYCLOTOMIC = {2: "(1+t)", 3: "(1+t+t^2)", 4: "(1+t^2)", 6: "(1-t+t^2)", 12: "(1-t^2+t^4)"}


@st.composite
def outranked_series(draw):
    """(expression, d, probe) for C/(1 - t)^a + t^j/Phi_m^b, m | d, m > 1, b > a."""
    d = draw(st.sampled_from(PERIODS))
    m = draw(st.sampled_from([m for m in CYCLOTOMIC if d % m == 0]))
    a = draw(st.integers(1, 2))
    b = draw(st.integers(a + 1, 3))
    j = draw(st.integers(0, 3))
    big = draw(st.integers(10**8, 10**9))  # outweighs t^j/Phi_m^b up to the window's end
    return f"{big}/(1-t)^{a}+t^{j}/{CYCLOTOMIC[m]}^{b}", d, draw(st.sampled_from([0, 5, 80]))


@st.composite
def non_length_series(draw):
    """(expression, d, probe): a drawn series over a power of 2 + t, 1 + t,
    3 - 2t or 2, so that its coefficients are mostly not all lengths."""
    expr, d, probe = draw(st.one_of(series(), series(off_period=True)))
    divisor = draw(st.sampled_from(["(2+t)", "(1+t)", "(3-2*t)", "2"]))
    return f"({expr})/{divisor}^{draw(st.integers(1, 3))}", d, probe


def outcome(build, f, d, probe):
    """The model's JSON form, or the type and text of the error raised."""
    try:
        return build(f, d, probe).to_json_dict()
    except QmultError as err:
        return type(err), str(err)


def cyclotomic_table(n):
    """Phi_m for 1 <= m <= n, constant term first: t^m - 1 divided by the
    Phi_e for e | m, e < m, by the oracle's long division."""
    table = {}
    for m in range(1, n + 1):
        q = (-1,) + (0,) * (m - 1) + (1,)
        for e, phi in table.items():
            if m % e == 0:
                q = oracle.divide_monic(q, phi)
        table[m] = q
    return table


PHI = cyclotomic_table(30)
STRIP_PERIODS = (2, 4, 6, 12, 60, 720720)
# 1 - 2t and 1 + t + 2t^2, then t + 2 and t^2 - t + 3: no root of unity is a
# root of any; the last two are monic.
NON_CYCLOTOMIC = ((1, -2), (1, 1, 2))
MONIC = ((2, 1), (3, -1, 1))
# 2 + 3t and 3 - 2t: primitive, with no end coefficient a unit.
PRIMITIVE = ((2, 3), (3, -2))


def product(factors):
    return prod((Polynomial(f) for f in factors), start=Polynomial.const(1))


@st.composite
def cyclotomic_products(draw):
    """(q, rest, d): q is a product of powers of Phi_m (1 < m <= 30), for m | d
    and for m not dividing d, and of factors with no root of unity as a root;
    rest is q with its Phi_m (m | d) left out."""
    d = draw(st.sampled_from(STRIP_PERIODS))
    dividing = draw(st.sets(st.sampled_from([m for m in PHI if m > 1 and d % m == 0]), max_size=2))
    other = draw(st.sets(st.sampled_from([m for m in PHI if d % m]), max_size=2))
    powers = {m: draw(st.integers(1, 3)) for m in sorted(dividing | other)}
    rest = draw(st.lists(st.sampled_from(NON_CYCLOTOMIC + MONIC), max_size=3))
    rest += [PHI[m] for m in other for _ in range(powers[m])]
    return product(rest + [PHI[m] for m in dividing for _ in range(powers[m])]), product(rest), d


@settings(deadline=None)
@given(cyclotomic_products())
def test_cyclotomic_factors_stripped_as_by_the_oracle(case):
    q, rest, d = case
    stripped = _strip_cyclotomic(list(q.numerators), d)
    assert stripped == list(rest.numerators)
    assert stripped == list(oracle.strip_cyclotomic(q.numerators, d))


@given(st.data())
def test_quotient_matches_long_division_by_a_monic_divisor(data):
    monic = [PHI[m] for m in PHI if m > 1] + list(MONIC)
    factors = data.draw(st.lists(st.sampled_from(monic + list(NON_CYCLOTOMIC)), max_size=5))
    kept = data.draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    divisor = [f for f, keep in zip(factors, kept) if keep and f in monic]
    divisor += data.draw(st.lists(st.sampled_from(monic), max_size=1))
    a, b = product(factors), product(divisor)
    expected = oracle.divide_monic(a.numerators, b.numerators)
    assert _quotient(a.numerators, list(b.numerators)) == (None if expected is None else list(expected))
    # Primitive divisors, monic or not, against the oracle's Fraction series:
    # of the zero numerator, of ones shorter than the divisor (among them its
    # proper factors), of a multiple of it and of any integer polynomial.
    powers = [(Polynomial((1, -2)) ** e).numerators for e in (1, 2, 3)]
    primitive = monic + list(NON_CYCLOTOMIC + PRIMITIVE) + powers
    pieces = data.draw(st.lists(st.sampled_from(primitive), min_size=1, max_size=4))
    den = product(pieces)
    coeffs = st.lists(st.integers(-9, 9), max_size=8)
    num = data.draw(
        st.one_of(
            st.just(Polynomial()),
            st.lists(st.integers(-9, 9), max_size=den.degree).map(Polynomial),
            st.just(product(pieces[1:])),
            coeffs.map(lambda c: Polynomial(c) * den),
            coeffs.map(Polynomial),
        )
    )
    expected = oracle.exact_quotient(num, den)
    assert _quotient(num.numerators, list(den.numerators)) == (None if expected is None else list(expected.coeffs))


@given(series())
def test_certified_model_matches_the_expansion(case):
    expr, d, probe = case
    f = parse_series(expr)
    lf = from_series(f, d, probe)
    start = 0 if lf.pos_tail is None else lf.pos_tail.valid_from
    n_max = max(lf.core_end, start) + 10 * d
    coeffs = oracle.fraction_series(f.num, f.den, n_max)
    assert [lf(n) for n in range(-3, n_max + 1)] == [0, 0, 0, *coeffs], expr
    assert lf.core_end >= probe


@given(series())
def test_multiplicities_match_the_pole_oracle(case):
    expr, d, probe = case
    f = parse_series(expr)
    lf = from_series(f, d, probe)
    num, den = f.num.coeffs, f.den.coeffs
    cx = laurent_complexity(num, den)
    assert lf.complexity() == cx, expr
    for s in (cx, cx + 1):
        assert multiplicity_pos(lf, s).e_delta == laurent_e_delta(num, den, d, s), (expr, s)


@given(series(off_period=True))
def test_pole_off_the_period_is_refused(case):
    expr, d, probe = case
    try:
        from_series(parse_series(expr), d, probe)
    except ModelError as err:
        assert str(err) == (
            f"not eventually a period-{d} quasi-polynomial: "
            "its poles are not all d-th roots of unity"
        ), expr
    else:
        raise AssertionError(f"{expr} at d={d} was not refused")


@given(outranked_series())
def test_outranking_pole_is_refused(case):
    expr, d, probe = case
    f = parse_series(expr)
    try:
        from_series(f, d, probe)
    except ModelError as err:
        assert str(err) == (
            "series coefficients eventually go negative: "
            "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
        ), expr
    else:
        raise AssertionError(f"{expr} at d={d} was not refused")


def test_pole_oracle_on_the_worked_examples():
    # Each series case of the packaged corpus has the cx and positive
    # multiplicities that its poles give, with e_coeff(s) = d^(s-1) e_delta(s),
    # and the library agrees; t^200 has Euler characteristic 1.
    cases = [c for fixture in load_corpus() for c in fixture["cases"] if isinstance(c["source"], tuple)]
    assert len(cases) == 7
    for case in cases:
        f, d, probe = case["source"]
        num, den = f.num.coeffs, f.den.coeffs
        for check in case["expected"]:
            if check["check"] == "cx":
                assert laurent_complexity(num, den) == check["value"], case["label"]
            elif check["check"] == "multiplicity" and check.get("side", "positive") == "positive":
                s = check["s"]
                e = laurent_e_delta(num, den, d, s)
                want = {"delta": {e}, "coefficient": {d ** (s - 1) * e}}
                want["both"] = want["delta"] | want["coefficient"]
                assert want[check.get("convention", "both")] == {check["value"]}, (case["label"], s)
                assert multiplicity_pos(from_series(f, d, probe), s).e_delta == e
    f = parse_series("t^200")
    assert laurent_complexity(f.num.coeffs, f.den.coeffs) == 0
    assert laurent_e_delta(f.num.coeffs, f.den.coeffs, 2, 0) == 1
    assert multiplicity_pos(from_series(f, 2, 80), 0).e_delta == 1


@given(st.one_of(series(), series(off_period=True), outranked_series(), non_length_series()))
def test_one_integer_expansion_matches_the_model_first_written(case):
    expr, d, probe = case
    f = parse_series(expr)
    assert outcome(from_series, f, d, probe) == outcome(oracle.from_series, f, d, probe), expr


@given(st.one_of(series(), non_length_series()))
def test_valid_from_is_the_honest_boundary(case):
    expr, d, probe = case
    f = parse_series(expr)
    try:
        qp = from_series(f, d, probe).pos_tail
    except ModelError:
        return
    if qp is None:
        return
    start = max(0, f.num.degree - f.den.degree + 1)
    assert qp.valid_from == start, expr
    if start > 0:
        assert oracle.fraction_series(f.num, f.den, start - 1)[-1] != qp(start - 1), expr


def test_tail_sign_past_the_agreement_window_is_certified():
    f = parse_series("(100-101*t^2)/(1-t^2)^2")
    with pytest.raises(ModelError) as err:
        from_series(f, 2, 0)
    assert str(err.value) == (
        "pos tail polynomial for residue 0 goes negative at block 101 (degree n=202)"
    )


def fields(lf):
    return lf.d, lf.core_start, lf.core_values, lf.pos_tail, lf.neg_tail


def rebuilt(lf):
    """lf through the validating constructor, which must accept it as is."""
    again = LengthFunction(*fields(lf))
    assert fields(again) == fields(lf)
    return again


def two_sided(rng, d):
    below = random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
    return random_length_function(rng, d) + below


@given(series(), st.integers(0, 2**32 - 1))
def test_derived_functions_pass_the_validating_constructor(case, seed):
    expr, d, probe = case
    rebuilt(from_series(parse_series(expr), d, probe))
    rng = random.Random(seed)
    rebuilt(two_sided(rng, d) + two_sided(rng, d))


def test_all_zero_tail_still_widens_the_core():
    # The tail read off (1 - t^2)/(1 - t) is all zero from valid_from = 2; the
    # core still reaches its overlap, so lambda(1) = 1 is kept.
    lf = rebuilt(from_series(parse_series("(1+t)*(1-t)/(1-t)"), 2, 0))
    assert (lf.core_start, lf.core_values, lf.pos_tail) == (0, (1, 1, 0, 0, 0), None)
