"""Koszul reduction, chains and triangles, and the multiplicity axioms
asserted directly on fixtures with ``multiplicity_pos``, ``reduce``,
``reduce_chain`` and ``euler_characteristic``."""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import exact, koszul, multiplicity
from qmult.exact import Polynomial, _first_negative, _newton_table, nonnegative_on_ray
from qmult.koszul import KoszulError, koszul_triangle, reduce, reduce_chain
from qmult.lengths import LengthFunction, QuasiPolynomial, from_series
from qmult.multiplicity import (
    MultiplicityError,
    euler_characteristic,
    multiplicity_neg,
    multiplicity_pos,
)
from qmult.series import parse_series
from test_input_readers import count_calls

from exact_oracles import forward_difference
from worked_examples import (
    jst_fixture,
    neg_growth_fixture,
    poly,
    reducible_functions,
    xy_fixture,
    zero_fixture,
)


class TestReduce:
    def test_even_square_family(self):
        lf = jst_fixture(2)
        reduced = reduce(lf, "positive")
        for m in range(0, 20):
            assert reduced(2 * m) == 1
            assert reduced(2 * m + 1) == 0
        assert reduced.complexity("positive") == 1
        assert multiplicity_pos(reduced, 1).e_delta == 1

    def test_constant_support_reduces_to_finite(self):
        lf = xy_fixture(3)
        reduced = reduce(lf, "positive")
        assert reduced.pos_tail is None
        assert reduced.complexity("positive") == 0

    def test_zero_function(self):
        assert reduce(zero_fixture(), "positive") == zero_fixture()

    def test_complexity_drop(self):
        for lf in (jst_fixture(3), jst_fixture(4), xy_fixture(1)):
            cx = lf.complexity("positive")
            assert reduce(lf, "positive").complexity("positive") == cx - 1

    def test_rejects_decreasing_data(self):
        # A lone spike cannot come from an everywhere-injective action.
        lf = LengthFunction(2, 0, (1,), None, None)
        with pytest.raises(KoszulError) as info:
            reduce(lf, "positive")
        assert 0 in info.value.violations

    def test_negative_regime_mirror(self):
        lf = neg_growth_fixture()
        reduced = reduce(lf, "negative")
        assert lf.complexity("negative") == 2
        assert reduced.complexity("negative") == 1
        # one backward step negates the stabilized multiplicity
        assert multiplicity_neg(lf, 2).e_delta == 1
        assert multiplicity_neg(reduced, 1).e_delta == -1

    def test_negative_regime_values(self):
        lf = neg_growth_fixture()
        reduced = reduce(lf, "negative")
        for n in range(-25, 0):
            assert reduced(n) == lf(n + 1) - lf(n + 3)

    def test_negative_regime_rejects_growth_upward(self):
        lf = jst_fixture(2)
        with pytest.raises(KoszulError):
            reduce(lf, "negative")


def test_reduce_matches_validated_construction():
    # reduce builds its result without re-validating it; the validating
    # constructor must accept the same fields and give the same function,
    # including where a step reduces a tail to zero.
    steps, vanished = Counter(), Counter()
    for kind, lf in reducible_functions(random.Random(53), 60):
        for regime in ("positive", "negative"):
            current = lf
            for _ in range(4):
                try:
                    out = reduce(current, regime)
                except KoszulError:
                    break
                checked = LengthFunction(
                    out.d, out.core_start, out.core_values, out.pos_tail, out.neg_tail
                )
                assert out == checked
                assert out.to_json_dict() == checked.to_json_dict()
                assert repr(out) == repr(checked)
                steps[kind, regime] += 1
                for side in ("positive", "negative"):
                    if current.tail(side) is not None and out.tail(side) is None:
                        vanished[kind, side] += 1
                current = out
    assert set(steps) == {
        ("one-sided", "positive"),
        ("reflected", "negative"),
        ("two-sided", "positive"),
        ("two-sided", "negative"),
    }
    assert set(vanished) == {
        ("one-sided", "positive"),
        ("reflected", "negative"),
        ("two-sided", "positive"),
        ("two-sided", "negative"),
    }


class TestReduceChain:
    def test_even_square_family_chain(self):
        chain = reduce_chain(jst_fixture(2), 2, "positive")
        assert chain.multiplicities == (1, 1, 1)
        assert [f.complexity("positive") for f in chain.functions] == [2, 1, 0]
        assert euler_characteristic(chain.functions[-1]) == 1

    def test_xy_chain_terminal_euler(self):
        for r in (1, 2, 5):
            chain = reduce_chain(xy_fixture(r), 1, "positive")
            assert chain.multiplicities == (r, r)
            assert euler_characteristic(chain.functions[-1]) == r

    def test_zero_chain(self):
        chain = reduce_chain(zero_fixture(), 0, "positive")
        assert chain.multiplicities == (0,)

    def test_odd_support_chain(self):
        chain = reduce_chain(jst_fixture(3), 3, "positive")
        assert chain.multiplicities == (-1, -1, -1, -1)
        assert chain.invariant_values == (-1, -1, -1, -1)

    def test_negative_chain_alternates(self):
        chain = reduce_chain(neg_growth_fixture(), 2, "negative")
        assert chain.multiplicities == (1, -1, 1)
        assert chain.invariant_values == (1, 1, 1)
        assert euler_characteristic(chain.functions[-1]) == 1

    def test_s_below_complexity_rejected(self):
        with pytest.raises(MultiplicityError):
            reduce_chain(jst_fixture(3), 2, "positive")

    def test_unknown_regime_rejected(self):
        # The regime names the side, so an unknown one is no side at all.
        with pytest.raises(ValueError, match="'sideways'"):
            reduce_chain(zero_fixture(), 0, "sideways")
        with pytest.raises(ValueError, match="^regime must be 'positive' or 'negative'$"):
            reduce(zero_fixture(), "sideways")

    def test_two_sided_base_rejected(self):
        values = tuple(3 if n % 2 == 0 else 0 for n in range(-10, 11))
        tail = lambda: QuasiPolynomial(2, (poly(3), poly()), 0)  # noqa: E731
        lf = LengthFunction(2, -10, values, tail(), tail())
        with pytest.raises(MultiplicityError):
            reduce_chain(lf, 1, "positive")


def test_negative_chain_maps_back_once(monkeypatch):
    # A negative chain is the positive chain of the reflection: beyond that
    # chain's own compositions it reflects its base once and maps each of its
    # s functions back once, by one reindexing n -> -n - k(d + 1), d
    # compositions each.  A reflection and then a shift cost twice that.
    d, s = 12, 4
    lf = from_series(parse_series("1/(1-t)^4"), d, 0).reflect()
    mirror = lf.reflect()
    compose, calls = Polynomial.compose_linear, Counter()

    def counted(self, a, b):
        calls[regime] += 1
        return compose(self, a, b)

    monkeypatch.setattr(Polynomial, "compose_linear", counted)
    for base, regime in ((lf, "negative"), (mirror, "positive")):
        reduce_chain(base, s, regime)
    assert calls["negative"] - calls["positive"] <= d * (s + 1)


@given(st.lists(st.integers(-20, 20), max_size=8), st.integers(-40, 40))
def test_a_suffix_of_the_newton_table_certifies_that_difference(coeffs, m):
    # Delta^k p's table at m is the suffix table[k:] of p's, so one table at
    # the anchor certifies every step of a chain: the certificate on the
    # suffix must give the first negative point of Delta^k p from m.
    p = Polynomial(coeffs)
    table, q = _newton_table(p, m), p
    for k in range(p.degree + 1):
        want = oracle.scan_oracle(q, m, 1)
        assert _first_negative(table[k:], m) == nonnegative_on_ray(q, m) == want
        q = Polynomial(forward_difference(q.coeffs))


@pytest.mark.parametrize("regime", ["positive", "negative"])
def test_chain_builds_one_table_per_residue_and_one_herbrand_list(monkeypatch, regime):
    # Every table of 1/(1-t)^4 at its anchor is nonnegative, so no step needs
    # a certificate of its own; and D^{s-1} h of the frame serves every step.
    # The d residues' tables are the entries of one block table of the core,
    # so no table is built for a residue alone.
    d, s = 12, 4
    lf = from_series(parse_series("1/(1-t)^4"), d, 0)
    base = lf if regime == "positive" else lf.reflect()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(exact, "_newton_table", counted("residue tables", exact._newton_table))
    monkeypatch.setattr(koszul, "_block_table", counted("block tables", koszul._block_table))
    monkeypatch.setattr(
        multiplicity, "_herbrand_differences", counted("herbrand", multiplicity._herbrand_differences)
    )
    reduce_chain(base, s, regime)
    assert calls == {"block tables": 1, "herbrand": 1}


def test_a_chain_builds_no_polynomial_and_no_taylor_shift_at_any_period(monkeypatch):
    # Counting law: a positive chain's work on its tails is per column, not per
    # residue, so it makes as many polynomials and Taylor shifts at d = 120 as
    # at d = 12 (none), and one difference of the columns per step.
    calls = Counter()
    from_integers, taylor_shift = Polynomial._from_integers.__func__, exact._taylor_shift
    difference = koszul._difference_columns

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    counts = {}
    for d in (12, 120):
        lf = from_series(parse_series(f"t^7/((1-t^2)*(1-t^{d}))"), d, 7 * d)
        monkeypatch.setattr(Polynomial, "_from_integers", classmethod(counted("polynomials", from_integers)))
        monkeypatch.setattr(exact, "_taylor_shift", counted("taylor shifts", taylor_shift))
        monkeypatch.setattr(koszul, "_difference_columns", counted("column differences", difference))
        calls.clear()
        koszul._reductions(lf, 2, "positive")
        counts[d] = dict(calls)
        monkeypatch.undo()
    assert counts[12] == counts[120] == {"column differences": 2}


def dip_below_its_difference(residues):
    """A d = 2 function whose tail g on the given residues (1 on the others)
    has Delta g(m) = (m - 50)^2 - 1: g rises on every block but one, and its
    table at the anchor, (0, 2499, -99, 2), is negative past entry 1, so the
    first step's tail dips past the window, at block 50 only."""
    g = Polynomial((0, Fraction(15295, 6), Fraction(-101, 2), Fraction(1, 3)))
    qp = QuasiPolynomial(2, tuple(g if i in residues else Polynomial.const(1) for i in range(2)), 0)
    return LengthFunction.from_values(2, lambda n: int(qp(n)), 0, 0, qp, None)


@pytest.mark.parametrize(
    "residues, violations", [((0,), (100,)), ((1,), (101,)), ((0, 1), (100, 101))]
)
def test_a_step_certified_past_its_window_builds_no_polynomial(monkeypatch, residues, violations):
    # Counting law: the step's own certificate reads one block table of its
    # tail's values, as validation does; no residue becomes a Polynomial.  The
    # violations and the messages are those of the certificate on each
    # residue's Polynomial, which built one per residue it certified.
    lf = dip_below_its_difference(residues)
    mirror = lf.reflect()
    from_integers, calls = Polynomial._from_integers.__func__, Counter()

    def counted(cls, *args):
        calls["polynomials"] += 1
        return from_integers(cls, *args)

    monkeypatch.setattr(Polynomial, "_from_integers", classmethod(counted))
    for base, regime, word, bad in (
        (lf, "positive", "injective", violations),
        (mirror, "negative", "surjective", tuple(-n - 3 for n in violations)),
    ):
        with pytest.raises(KoszulError) as err:
            reduce(base, regime)
        assert err.value.violations == tuple(sorted(bad))
        assert str(err.value) == f"not eventually {word} in model: reduction goes negative at n in {sorted(bad)}"
    assert calls == {}


def test_a_negative_tail_is_read_downward_with_no_reflection(monkeypatch):
    # Counting law: a step certifies its negative tail down from its window on
    # one block table of the tail's own values, as validation reads a core
    # down from valid_to; no tail is reflected to be read upward.  The
    # violations are those the golden pins.
    lf = from_series(parse_series("t^2/(1-t^2)^2"), 2, 80)
    calls = count_calls(monkeypatch, QuasiPolynomial, "reflect")
    with pytest.raises(KoszulError) as err:
        reduce(lf, "negative")
    assert calls["reflect"] == 0
    golden = (Path(__file__).parent / "golden" / "reduce_neg_jst2_violations.json").read_text()
    assert list(err.value.violations) == json.loads(golden)


class TestKoszulTriangle:
    def test_shape(self):
        lf = xy_fixture(2)
        a, b, c = koszul_triangle(lf)
        assert a == lf
        assert b == lf.shift(2)
        assert c == reduce(lf, "positive")

    def test_zero(self):
        a, b, c = koszul_triangle(zero_fixture())
        assert a == b == c == zero_fixture()

    def test_additivity_on_triangle(self):
        for lf in (jst_fixture(2), jst_fixture(3), xy_fixture(3)):
            a, b, c = koszul_triangle(lf)
            s = max(
                a.complexity("positive"),
                b.complexity("positive"),
                c.complexity("positive"),
            )
            eb = multiplicity_pos(b, s).e_delta
            ea = multiplicity_pos(a, s).e_delta
            ec = multiplicity_pos(c, s).e_delta
            assert eb == ea + ec


class TestAxioms:
    """The axioms that pin the multiplicity down, asserted one by one: it
    vanishes above the complexity, it is the alternating sum at complexity 0,
    and one reduction lowers the index by one and keeps the value.  By
    recursion down a chain it is then the Euler characteristic of the fully
    reduced function."""

    def fixtures(self):
        return (
            xy_fixture(2),
            jst_fixture(2),
            jst_fixture(3),
            LengthFunction(2, 0, (1, 1), None, None),
        )

    def test_delta_convention_satisfies_axioms(self):
        def e(lf, s):
            return multiplicity_pos(lf, s).e_delta

        for lf in self.fixtures():
            cx = lf.complexity("positive")
            assert e(lf, cx + 1) == e(lf, cx + 2) == 0
            if cx == 0:
                assert e(lf, 0) == euler_characteristic(lf)
            else:
                assert e(lf, cx) == e(reduce(lf, "positive"), cx - 1)
            chain = reduce_chain(lf, cx, "positive")
            assert e(lf, cx) == euler_characteristic(chain.functions[-1])

    def test_coefficient_convention_fails_reduction_axiom(self):
        # 2 against 1: the factor d^(s-1) that splits the two conventions.
        lf = jst_fixture(2)
        assert multiplicity_pos(lf, 2).e_coeff == 2
        assert multiplicity_pos(reduce(lf, "positive"), 1).e_coeff == 1
        assert euler_characteristic(reduce_chain(lf, 2, "positive").functions[-1]) == 1
