"""Koszul reduction, chains, triangles, and the multiplicity axioms."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qmult.exact import Polynomial
from qmult.koszul import (
    KoszulError,
    axioms_check,
    koszul_triangle,
    reduce,
    reduce_chain,
)
from qmult.lengths import LengthFunction, QuasiPolynomial, from_series
from qmult.multiplicity import (
    MultiplicityError,
    euler_characteristic,
    multiplicity_neg,
    multiplicity_pos,
)
from qmult.series import parse_series


def poly(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


def xy_fixture(r):
    values = tuple(r if n >= 2 and n % 2 == 0 else 0 for n in range(-2, 13))
    return LengthFunction(
        2, -2, values, QuasiPolynomial(2, (poly(r), poly()), 2), None
    )


def zero_fixture():
    return LengthFunction(2, 0, (0,), None, None)


def jst_fixture(c):
    return from_series(parse_series(f"t^{c}/(1-t^2)^{c}"), 2, 80)


def neg_growth_fixture():
    """lambda(2m) = -m for m <= 0, zero elsewhere: negative complexity 2."""
    values = tuple((-n // 2 if n % 2 == 0 and n <= 0 else 0) for n in range(-30, 5))
    return LengthFunction(
        2,
        -30,
        values,
        None,
        QuasiPolynomial(2, (poly(0, -1), poly()), -8),
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


def reducible_functions(rng, count):
    """Seeded functions on which Koszul steps succeed.

    Expansions of t^a (1+t)^b / prod (1 - t^k) with k | d grow along every
    residue class, so positive steps succeed until the denominator runs out;
    their reflections do the same in the negative regime.  Adding a function
    that is constant on each residue class over all of Z makes them
    two-sided, with a constant tail that one step reduces to zero.
    """
    for case in range(count):
        d = rng.choice([2, 4, 6])
        ks = [rng.choice([k for k in (1, 2, 3, 4, 6) if d % k == 0]) for _ in range(rng.randint(1, 3))]
        a, b = rng.randint(0, 5), rng.randint(0, 3)
        den = "*".join(f"(1-t^{k})" for k in ks)
        lf = from_series(parse_series(f"t^{a}*(1+t)^{b}/({den})"), d, 12 * d + a + b)
        kind = ("one-sided", "reflected", "two-sided")[case % 3]
        if kind == "reflected":
            lf = lf.reflect().shift(rng.randint(-6, 6))
        elif kind == "two-sided":
            consts = tuple(poly(rng.randint(0, 3)) for _ in range(d))
            flat = LengthFunction.from_values(
                d,
                lambda n: int(consts[n % d](0)),
                0,
                0,
                QuasiPolynomial(d, consts, -d),
                QuasiPolynomial(d, consts, d),
            )
            lf = flat + (lf if case % 2 else lf.reflect().shift(rng.randint(-6, 6)))
        yield kind, lf


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

    def test_two_sided_base_rejected(self):
        values = tuple(3 if n % 2 == 0 else 0 for n in range(-10, 11))
        tail = lambda: QuasiPolynomial(2, (poly(3), poly()), 0)  # noqa: E731
        lf = LengthFunction(2, -10, values, tail(), tail())
        with pytest.raises(MultiplicityError):
            reduce_chain(lf, 1, "positive")


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
    def corpus(self):
        return {
            "xy_2": xy_fixture(2),
            "jst_2": jst_fixture(2),
            "jst_3": jst_fixture(3),
            "point": LengthFunction(2, 0, (1, 1), None, None),
        }

    def test_delta_convention_satisfies_axioms(self):
        f = lambda lf, s: multiplicity_pos(lf, s).e_delta  # noqa: E731
        report = axioms_check(f, self.corpus())
        assert report.ok, report.failures()

    def test_coefficient_convention_fails_reduction_axiom(self):
        f = lambda lf, s: multiplicity_pos(lf, s).e_coeff  # noqa: E731
        report = axioms_check(f, {"jst_2": jst_fixture(2)})
        failed = {(axiom) for _, axiom, ok, _ in report.entries if not ok}
        assert "reduction step" in failed  # 2 != 1: the factor-d split
        assert "uniqueness" in failed

    def test_empty_fixture_set_vacuous(self):
        f = lambda lf, s: multiplicity_pos(lf, s).e_delta  # noqa: E731
        report = axioms_check(f, {})
        assert report.ok
        assert report.entries == ()

    def test_each_axiom_records_the_first_error_raised(self):
        # Where both sides of a comparison raise, the report keeps the error of
        # the side computed first: the axiom's value before f, except in the
        # reduction step, where f(lf, cx) comes before f on the reduced function.
        def f(lf, s):
            raise ValueError(f"f({s})")

        dip = QuasiPolynomial(2, (poly(4, -4, 1), poly(4, -4, 1)), 0)  # (m - 2)^2
        falling = LengthFunction.from_values(2, lambda n: int(dip(n)), 0, 0, dip, None)
        with pytest.raises(KoszulError):
            reduce(falling, "positive")
        report = axioms_check(f, {"falling": falling, "two_sided": xy_fixture(1).reflect()})
        infinite = "Euler characteristic needs finite support"
        assert report.entries == (
            ("falling", "vanishing above complexity", False, "f(4)"),
            ("falling", "reduction step", False, "f(3)"),
            ("falling", "uniqueness", False, report.entries[2][3]),
            ("two_sided", "vanishing above complexity", False, "f(1)"),
            ("two_sided", "alternating sum at complexity 0", False, infinite),
            ("two_sided", "uniqueness", False, infinite),
        )
        assert report.entries[2][3].startswith("not eventually injective")
