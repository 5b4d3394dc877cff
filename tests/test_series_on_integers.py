"""Series jobs on plain integers, against the forms they replaced.

``lengths.from_series`` expands on the lengths themselves, through D's
(1 - t^j) factors by running sums after a recurrence on what is left of D,
refused at the first n where a length is not a nonnegative integer.  Each
residue's polynomial is its Newton table converted by one nested Horner pass
on integers (``newton_form``).
Against ``kernel_oracles.from_series``, which expands one Fraction per
coefficient by the series recurrence of ``exact_oracles`` and interpolates
each residue's polynomial through its values, it must give the same JSON, or
the same error text at the same n, on series where L > 1 or M > 1: an
accepted series times a factor that nothing cancels, such as (2 + t)/(2 + t),
and the same numerator perturbed so that some coefficient is not a length.
Periods reach 120.

``multiplicity.limit_estimate`` sums on integers, each residue's Newton table
read off the core values, and builds one Fraction, the result.  Against
``kernel_oracles.fraction_limit_estimate``, the Fraction sum of
``faulhaber_sum`` values, it must give the same value at n = 1, the core's
end, one past it and 10^12, under both constants.

Counting tests pin what the new paths no longer do: an accepted series calls
neither ``series_integers`` nor ``newton_polynomial``, a refused one builds no
Fraction series to classify its refusal, and one limit estimate calls
``Fraction.__new__`` once.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import differences, exact, lengths
from qmult.exact import Polynomial, QmultError, RationalFunction
from qmult.fixtures import random_length_function
from qmult.lengths import from_series
from qmult.multiplicity import limit_estimate
from qmult.series import parse_series

PERIODS = (2, 4, 6, 12, 24, 60, 120)
# Factors that no accepted series has: each makes L > 1, M > 1 or both when
# it multiplies N and D, and nothing cancels it.
FACTORS = ("(2+t)", "(3-2*t)", "(2+t^5)", "(1/2+t/3)", "(2/3-t^3/5)", "(1+t/3)^2", "(5-t^2)/3")
# Terms added to a factored numerator, so that some coefficient is not a length.
NOISE = ("1/2", "-1", "1/3*t^2", "-3*t^4", "t^7/7", "-t")


@st.composite
def scaled_series(draw, noisy=False):
    """(expression, d, probe): t^a (1 + t)^b / prod (1 - t^k_i) with every
    k_i | d but at most one, times F/F for a drawn factor F; with ``noisy`` a
    term is added to the numerator as well."""
    d = draw(st.sampled_from(PERIODS))
    divisors = [k for k in range(1, d + 1) if d % k == 0]
    ks = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    ks += draw(st.lists(st.sampled_from([k for k in range(2, 30) if d % k]), max_size=1))
    a, b = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    factor = draw(st.sampled_from(FACTORS))
    num = f"t^{a}*(1+t)^{b}*{factor}"
    if noisy:
        num += "+" + draw(st.sampled_from(NOISE))
    den = "*".join(f"(1-t^{k})" for k in ks)
    return f"({num})/({den}*{factor})", d, draw(st.sampled_from([0, 5, 80]))


def outcome(build, f, d, probe):
    """The model's JSON form, or the type and text of the error raised."""
    try:
        return build(f, d, probe).to_json_dict()
    except QmultError as err:
        return type(err), str(err)


@settings(deadline=None)
@given(st.one_of(scaled_series(), scaled_series(noisy=True)))
def test_from_series_matches_the_fraction_model(case):
    expr, d, probe = case
    f = parse_series(expr)
    assert (f.den.denominator, f.num.denominator) != (1, 1), expr
    assert outcome(from_series, f, d, probe) == outcome(oracle.from_series, f, d, probe), expr


def test_seeded_series_reach_every_outcome():
    # Acceptance, refusal at a coefficient that is not a length, and the
    # refusal of a tail, each with L > 1 or M > 1, all agree with the oracle.
    rng = random.Random(37)
    kinds = set()
    for _ in range(150):
        d = rng.choice(PERIODS)
        ks = [rng.choice([k for k in range(1, d + 1) if d % k == 0]) for _ in range(rng.randint(1, 3))]
        factor = rng.choice(FACTORS)
        num = f"t^{rng.randint(0, 8)}*(1+t)^{rng.randint(0, 4)}*{factor}"
        if rng.random() < 0.5:
            num += "+" + rng.choice(NOISE)
        if rng.random() < 0.2:
            ks.append(rng.choice([k for k in range(2, 30) if d % k]))
        den = "*".join(f"(1-t^{k})" for k in ks)
        f, probe = parse_series(f"({num})/({den}*{factor})"), rng.choice([0, 5, 80])
        want = outcome(oracle.from_series, f, d, probe)
        assert outcome(from_series, f, d, probe) == want
        if isinstance(want, dict):
            kinds.add("accepted")
        else:
            kinds.add("not a length" if "not a length" in want[1] else "tail refused")
    assert kinds == {"accepted", "not a length", "tail refused"}


@pytest.mark.parametrize(
    "expr, d, message",
    [
        ("(t^2+1/2)/((1-t)*(2+t))*(2+t)", 2, "series coefficient at n=0 is 1/2; not a length"),
        ("(1-3*t^3)/((1-t^2)*(2+t))*(2+t)", 2, "series coefficient at n=3 is -3; not a length"),
        ("1/(2+t)", 2, "series coefficient at n=0 is 1/2; not a length"),
        ("(t^4/7+(1+t)*(2+t))/((1-t^12)*(2+t))", 12, "series coefficient at n=4 is 1/14; not a length"),
    ],
)
def test_refused_at_the_same_coefficient(expr, d, message):
    f = parse_series(expr)
    want = (lengths.ModelError, message)
    assert outcome(from_series, f, d, 0) == want
    assert outcome(oracle.from_series, f, d, 0) == want


def test_a_huge_refused_coefficient_is_shown_by_its_digits():
    # 1/2 + 10^5000 t^3 over 1 - t is refused at n = 0; 1 - (10^5000 / 3) t at
    # n = 1 as (3 - 10^5000)/3, past the digits that str writes, both as the
    # Fraction series model does.
    big = 10**5000
    for num, message in [
        ((Fraction(1, 2), 0, 0, big), "series coefficient at n=0 is 1/2; not a length"),
        (
            (1, Fraction(-big, 3)),
            "series coefficient at n=1 is a negative fraction with a 5000-digit "
            "numerator and a 1-digit denominator; not a length",
        ),
    ]:
        f = RationalFunction(Polynomial(num), Polynomial((1, -1)))
        want = (lengths.ModelError, message)
        assert outcome(from_series, f, 2, 0) == outcome(oracle.from_series, f, 2, 0) == want


def forbidden(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize(
    "expr, d",
    [
        ("t^7/((1-t^2)*(1-t^12))", 12),
        ("t^5*(2+t)/((2+t)*(1-t)^2)", 2),
        ("t^3*(1+t)^5/(1-t)^9", 2),
        ("t^7/((1-t^2)*(1-t^120))", 120),
        ("1/((1-t^2)^3*(1-t^3))", 6),
    ],
)
def test_an_accepted_series_calls_neither_old_kernel(monkeypatch, expr, d):
    f = parse_series(expr)
    want = oracle.from_series(f, d, 12).to_json_dict()
    for module in (exact, lengths, differences):
        for name in ("series_integers", "series_coefficients", "newton_polynomial"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert from_series(f, d, 12).to_json_dict() == want


OUTRANKED = (
    "series coefficients eventually go negative: "
    "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
)
OFF_PERIOD = "not eventually a period-2 quasi-polynomial: its poles are not all d-th roots of unity"


@pytest.mark.parametrize(
    "expr, d, probe, refusal",
    [
        ("100/(1-t)+1/(1+t)^2", 2, 80, OUTRANKED),
        # Phi_3 is stripped from r only where 3 | d.
        ("100/(1-t)+1/(1+t+t^2)^2", 6, 80, OUTRANKED),
        ("100/(1-t)+1/(1+t+t^2)^2", 2, 80, OFF_PERIOD),
        ("1/((1-t)*(1-t^12))", 2, 0, OFF_PERIOD),
    ],
    ids=["pole at -1", "Phi_3 at d=6", "Phi_3 at d=2", "probe 0"],
)
def test_a_refusal_builds_no_fraction_series(monkeypatch, expr, d, probe, refusal):
    # The classifier divides on integer lists, by the expansion's own recurrence.
    f = parse_series(expr)
    for module in (exact, lengths):
        for name in ("series_integers", "series_coefficients"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(lengths.ModelError) as info:
        from_series(f, d, probe)
    assert str(info.value) == refusal


def models():
    """Series models and random two-sided length functions, some with
    rational tail coefficients."""
    for expr, d in [
        ("t^7/((1-t^2)*(1-t^12))", 12),
        ("1/((1-t^2)^3*(1-t^3))", 6),
        ("t^2/(1-t^2)^2", 2),
        ("t^7/((1-t^2)*(1-t^120))", 120),
        ("1/(1-t)^5", 4),
        ("t^30/(1-t^2)", 2),
    ]:
        yield from_series(parse_series(expr), d, 0)
    rng = random.Random(11)
    for _ in range(30):
        d = rng.choice([2, 4, 6])
        lf = random_length_function(rng, d)
        if rng.random() < 0.5:
            lf = lf + random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
        yield lf.shift(rng.randint(-12, 12))


@pytest.mark.parametrize("constant", ["paper", "corrected"])
def test_limit_estimate_matches_the_fraction_sum(constant):
    for lf in models():
        cx = lf.complexity("positive")
        for s in range(1, max(cx, 1) + 2):
            for n in sorted({1, max(lf.core_end, 1), max(lf.core_end + 1, 1), 10**12}):
                got = limit_estimate(lf, s, n, constant)
                assert type(got) is Fraction
                assert got == oracle.fraction_limit_estimate(lf, s, n, constant), (lf, s, n)


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 4, 6]),
    st.integers(-20, 20),
    st.integers(1, 4),
    st.sampled_from(["paper", "corrected"]),
)
def test_limit_estimate_on_random_functions(seed, d, shift, s, constant):
    rng = random.Random(seed)
    lf = random_length_function(rng, d).shift(shift)
    for n in {1, max(lf.core_end, 1), max(lf.core_end + 1, 1), 10**12}:
        assert limit_estimate(lf, s, n, constant) == oracle.fraction_limit_estimate(lf, s, n, constant)


def test_one_limit_estimate_builds_one_fraction(monkeypatch):
    lf = from_series(parse_series("1/((1-t^2)^3*(1-t^3))"), 6, 0)
    assert any(p.denominator > 1 for p in lf.pos_tail.polys)
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = limit_estimate(lf, 4, 10**12, "paper")
    monkeypatch.undo()
    assert len(calls) == 1
    assert got == oracle.fraction_limit_estimate(lf, 4, 10**12, "paper")
