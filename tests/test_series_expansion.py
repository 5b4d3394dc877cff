"""The series expansion through D's (1 - t^j) factors, against its definition.

``lengths.from_series`` splits D as r * prod(1 - t^j) over divisors j of d,
expands u = N/r by the recurrence on r alone and takes the lengths as u's
running sums, one per factor.  Against ``kernel_oracles.from_series``, the
model as first written, one Fraction per coefficient by the series recurrence
of ``exact_oracles`` over every nonzero term of D, it must give the same JSON
or the same error text: on series whose residual r is not 1 (1 + t^2 at
d = 4, 2 + t, the cyclotomic factors that are not a 1 - t^j, poles off the
period), on series with L > 1 or M > 1, and on series refused at a negative
or a non-integer coefficient.

A refusal at a coefficient expands at most about twice the terms up to it:
the running sums are taken on doubling prefixes from the first negative u_n,
and u itself is expanded on doubling prefixes when r is not 1.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import lengths
from qmult.exact import QmultError
from qmult.lengths import from_series
from qmult.series import parse_series

PERIODS = (2, 4, 6, 12, 24, 60)
# Denominator factors that are no 1 - t^j: r is not 1 with any of them.
RESIDUALS = ("1", "(1+t^2)", "(2+t)", "(1-t+t^2)", "(1+t+t^2)", "(1+2*t)", "(3-t)", "(1+t)^2")
# Factors that cancel, so that L > 1, M > 1 or both.
FACTORS = ("1", "(2+t)", "(3-2*t)", "(1/2+t/3)", "(1+t/3)^2")
# Terms added to the numerator, so that some coefficient is not a length.
NOISE = ("1/2", "-1", "1/3*t^2", "-3*t^4", "t^7/7", "-t", "-2*t^9")

BUILDERS = (from_series, oracle.from_series)


def expression(d, ks, residual, factor, a, b, noise):
    num = f"t^{a}*(1+t)^{b}*{factor}" + (f"+{noise}" if noise else "")
    den = "*".join([f"(1-t^{k})" for k in ks] + [residual, factor])
    return f"({num})/({den})"


@st.composite
def series_cases(draw):
    """(expression, d, probe): t^a (1 + t)^b F (+ a noise term) over
    prod (1 - t^k) r F, with each k a divisor of d but at most one."""
    d = draw(st.sampled_from(PERIODS))
    divisors = [k for k in range(1, d + 1) if d % k == 0]
    ks = draw(st.lists(st.sampled_from(divisors), max_size=3))
    ks += draw(st.lists(st.sampled_from([k for k in range(2, 30) if d % k]), max_size=1))
    expr = expression(
        d,
        ks,
        draw(st.sampled_from(RESIDUALS)),
        draw(st.sampled_from(FACTORS)),
        draw(st.integers(0, 8)),
        draw(st.integers(0, 4)),
        draw(st.sampled_from(("",) + NOISE)),
    )
    return expr, d, draw(st.sampled_from([0, 5, 80]))


def outcome(build, f, d, probe):
    """The model's JSON form, or the type and text of the error raised."""
    try:
        return build(f, d, probe).to_json_dict()
    except QmultError as err:
        return type(err), str(err)


@settings(deadline=None)
@given(series_cases())
def test_the_expansion_matches_the_fraction_model(case):
    expr, d, probe = case
    f = parse_series(expr)
    got = [outcome(build, f, d, probe) for build in BUILDERS]
    assert got[0] == got[1], expr


def test_seeded_series_reach_every_outcome():
    # Acceptance with r = 1 and with r != 1, and refusal at a negative
    # coefficient, at a non-integer one and of a tail, all as the oracle says.
    rng = random.Random(38)
    kinds = set()
    for _ in range(200):
        d = rng.choice(PERIODS)
        divisors = [k for k in range(1, d + 1) if d % k == 0]
        ks = [rng.choice(divisors) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:
            ks.append(rng.choice([k for k in range(2, 30) if d % k]))
        residual = rng.choice(RESIDUALS)
        noise = rng.choice(NOISE) if rng.random() < 0.4 else ""
        expr = expression(
            d, ks, residual, rng.choice(FACTORS), rng.randint(0, 8), rng.randint(0, 4), noise
        )
        f, probe = parse_series(expr), rng.choice([0, 5, 80])
        want = outcome(oracle.from_series, f, d, probe)
        assert outcome(from_series, f, d, probe) == want, expr
        if isinstance(want, dict):
            kinds.add("accepted, r = 1" if residual == "1" else "accepted, r != 1")
        elif "not a length" in want[1]:
            kinds.add("not an integer" if "/" in want[1].split(" is ")[1] else "negative")
        else:
            kinds.add("tail refused")
    accepted = {"accepted, r = 1", "accepted, r != 1"}
    assert kinds == accepted | {"not an integer", "negative", "tail refused"}


@pytest.mark.parametrize(
    "expr, d, js, r",
    [
        ("1/((1-t)*(1+t^2))", 4, [1], [1, 0, 1]),
        ("1/((1-t^2)*(1-t^3))", 6, [3, 2], [1]),
        ("1/((1-t^4)*(1-t^2)*(1-t))", 4, [4, 2, 1], [1]),
        ("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))", 6, [3, 2, 1], [1]),
        ("1/((1-t)*(1+2*t))", 2000, [1], [1, 2]),
        ("1/((1-t^2)*(2+t))", 2, [2], [2, 1]),
        ("1/(1-t^3)", 2, [1], [1, 1, 1]),
    ],
)
def test_the_split_of_the_denominator(expr, d, js, r):
    assert lengths._split(parse_series(expr).den.numerators, d) == (js, r)


def count_expanded(monkeypatch):
    """The most terms any running sum or the recurrence reached, as a list."""
    reached = [0]
    running_sums, recurrence = lengths._running_sums, lengths._recurrence

    def counted_sums(u, js):
        reached[0] = max(reached[0], len(u))
        return running_sums(u, js)

    def counted_recurrence(*args):
        for n, u in enumerate(recurrence(*args)):
            reached[0] = max(reached[0], n + 1)
            yield u

    monkeypatch.setattr(lengths, "_running_sums", counted_sums)
    monkeypatch.setattr(lengths, "_recurrence", counted_recurrence)
    return reached


@pytest.mark.parametrize(
    "expr, d, n, shown",
    [
        # r = 1 + 2t: the window holds 4001 terms of size up to 2^4000.
        ("1/((1-t)*(1+2*t))", 2000, 1, "-1"),
        # r = 1: N itself, negative from n = 300 on.
        ("(1-2*t^300)/(1-t)", 2000, 300, "-1"),
        # N is negative at n = 1 only; the lengths 20 - n go negative a prefix later.
        ("(20-21*t)/(1-t)^2", 2000, 21, "-1"),
        # r = 2 + t and M = 3: not an integer at n = 300.
        ("(2+t+t^300/3)/((1-t^2)*(2+t))", 2000, 300, "7/6"),
    ],
)
def test_a_refusal_expands_about_twice_the_terms_up_to_it(monkeypatch, expr, d, n, shown):
    f = parse_series(expr)
    want = (lengths.ModelError, f"series coefficient at n={n} is {shown}; not a length")
    assert outcome(oracle.from_series, f, d, 0) == want
    reached = count_expanded(monkeypatch)
    assert outcome(from_series, f, d, 0) == want
    assert reached[0] <= max(16, 2 * (n + 1))
