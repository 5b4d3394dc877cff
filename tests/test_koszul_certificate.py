"""The Koszul step's tail sign certificate against its inline oracle.

``koszul.reduce`` certifies the sign of its reduced tails past the scanned
window with the certificate that tail validation runs too, skipping a
positive-tail residue whose Newton table at the frame's anchor has no
negative entry from the step's index on; ``kernel_oracles.koszul_reduce``
writes the ray starts and the certificate loop out inline, for every residue.  On seeded one- and two-sided functions,
in both regimes, both must accept with the same function or reject with the
same message and the same violations.  Functions with dipping tails reduce to
polynomials that go negative across the window edge and on past it, so a ray
that starts one block early or late changes the violations.

``reduce_chain`` takes every step in one frame, the reflection in the
negative regime, and maps each function back once; ``kernel_oracles.koszul_chain``
reduces step by step in the regime and reads each multiplicity on its own
side.  On seeded reducible and random functions and their reflections, at s
equal to the complexity and one above, both must give the same chain or the
same error, including refusals past the first step, where the violations are
mapped back from a later step.
"""

import random
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.exact import Polynomial
from qmult.fixtures import random_length_function
from qmult.exact import QmultError
from qmult.koszul import KoszulError, reduce, reduce_chain
from qmult.lengths import LengthFunction, QuasiPolynomial, core_window, from_series
from qmult.series import parse_series

from worked_examples import reducible_functions

KINDS = ("one-sided", "two-sided", "flat")
REGIMES = ("positive", "negative")


def dip_function(rng, d):
    """A length function whose positive tail polynomials a (m - k)^2 + b fall
    until block k, so their forward differences are negative up to it."""
    polys = []
    for _ in range(d):
        k = rng.randint(0, 40)
        a, b = rng.randint(1, 3), rng.randint(0, 5)
        polys.append(a * (Polynomial.t() - k) ** 2 + b)
    qp = QuasiPolynomial(d, tuple(polys), d * rng.randint(0, 2))
    noise = {n: rng.randint(0, 6) for n in range(qp.valid_from - 4, qp.valid_from)}
    return LengthFunction.from_values(
        d, lambda n: noise[n] if n < qp.valid_from else int(qp(n)), qp.valid_from - 4, 0, qp, None
    )


def series_function(rng, d):
    """An expansion of t^a (1+t)^b / prod (1 - t^k) with k | d: it grows along
    every residue class, so positive steps succeed."""
    ks = [rng.choice([k for k in (1, 2, 3, 4, 6) if d % k == 0]) for _ in range(rng.randint(1, 2))]
    a, b = rng.randint(0, 5), rng.randint(0, 3)
    den = "*".join(f"(1-t^{k})" for k in ks)
    return from_series(parse_series(f"t^{a}*(1+t)^{b}/({den})"), d, 12 * d + a + b)


def flat_function(rng, d):
    """Constant on each residue class over all of Z: one step reduces it to 0."""
    consts = tuple(Polynomial.const(rng.randint(0, 3)) for _ in range(d))
    pos, neg = QuasiPolynomial(d, consts, -d), QuasiPolynomial(d, consts, d)
    return LengthFunction.from_values(d, lambda n: int(consts[n % d](0)), 0, 0, pos, neg)


def one_sided(rng, d):
    make = rng.choice((random_length_function, dip_function, series_function))
    lf = make(rng, d)
    return lf if rng.random() < 0.5 else lf.reflect().shift(rng.randint(-9, 9))


def base_function(rng):
    d = rng.choice([2, 4, 6])
    kind = rng.choice(KINDS)
    if kind == "one-sided":
        lf = one_sided(rng, d)
    elif kind == "two-sided":
        lf = one_sided(rng, d) + one_sided(rng, d).reflect().shift(rng.randint(-9, 9))
    else:
        lf = flat_function(rng, d) + one_sided(rng, d)
    return kind, lf


def outcome(step, lf, regime):
    try:
        out = step(lf, regime)
    except KoszulError as err:
        return "rejected", str(err), err.violations
    return "accepted", out.to_json_dict()


def past_window(lf, regime, violations):
    """Which sides of the scanned window the violations reach past."""
    pos = oracle.reduced_tail(lf.pos_tail, regime, "pos")
    neg = oracle.reduced_tail(lf.neg_tail, regime, "neg")
    lo, hi = core_window(lf.d, lf.core_start - (lf.d + 1), lf.core_end + (lf.d + 1), pos, neg)
    return {"above" for v in violations if v > hi} | {"below" for v in violations if v < lo}


def compare(lf, seen):
    for regime in REGIMES:
        got = outcome(reduce, lf, regime)
        assert got == outcome(oracle.koszul_reduce, lf, regime), regime
        seen[regime, got[0]] += 1
        if got[0] == "rejected":
            for side in past_window(lf, regime, got[2]):
                seen[regime, side] += 1


def test_reduce_matches_the_inline_certificate():
    rng = random.Random(71)
    seen, kinds = Counter(), Counter()
    for _ in range(200):
        kind, lf = base_function(rng)
        kinds[kind] += 1
        compare(lf, seen)
    assert set(kinds) == set(KINDS)
    for regime in REGIMES:
        for what in ("accepted", "rejected", "above", "below"):
            assert seen[regime, what], (regime, what)


@given(st.integers(0, 2**32 - 1))
def test_reduce_matches_the_inline_certificate_on_any_seed(seed):
    rng = random.Random(seed)
    _, lf = base_function(rng)
    compare(lf, Counter())


def chain_outcome(chain, lf, s, regime):
    try:
        out = chain(lf, s, regime)
    except QmultError as err:
        return "rejected", type(err).__name__, str(err), getattr(err, "violations", None)
    return "accepted", out.to_json_dict(), out.multiplicities


def chain_bases(rng, count):
    """Seeded reducible functions and random ones, each with its reflection."""
    for _, lf in reducible_functions(rng, count):
        yield lf
        yield lf.reflect()
    for _ in range(count):
        lf = random_length_function(rng, rng.choice([2, 4, 6]))
        yield lf
        yield lf.reflect().shift(rng.randint(-6, 6))


def compare_chains(lf, seen):
    for regime in REGIMES:
        cx = lf.complexity(regime)
        for s in (cx, cx + 1):
            got = chain_outcome(reduce_chain, lf, s, regime)
            assert got == chain_outcome(oracle.koszul_chain, lf, s, regime), (regime, s)
            seen[regime, got[0]] += 1
            if got[:2] == ("rejected", "KoszulError") and outcome(reduce, lf, regime)[0] == "accepted":
                seen[regime, "past the first step"] += 1


def test_chain_matches_the_stepwise_oracle():
    rng = random.Random(37)
    seen = Counter()
    for lf in chain_bases(rng, 100):
        compare_chains(lf, seen)
    for regime in REGIMES:
        for what in ("accepted", "rejected", "past the first step"):
            assert seen[regime, what], (regime, what)


@given(st.integers(0, 2**32 - 1))
def test_chain_matches_the_stepwise_oracle_on_any_seed(seed):
    for lf in chain_bases(random.Random(seed), 1):
        compare_chains(lf, Counter())
