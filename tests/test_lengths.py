"""Length-function model: construction, evaluation, fitting, JSON."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmult import exact
from qmult.exact import Polynomial, series_coefficients
from qmult.fixtures import random_length_function
from qmult.lengths import (
    FitError,
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    _strip_cyclotomic,
    fit_quasipoly,
    from_series,
)
from qmult.multiplicity import multiplicity_pos
from qmult.series import parse_series

import kernel_oracles as oracle
from worked_examples import poly, xy_fixture, zero_fixture


S4_SERIES = "(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"


class TestQuasiPolynomial:
    def test_floor_division_for_negative_degrees(self):
        qp = QuasiPolynomial(2, (poly(0, 1), poly(100)), 0)
        assert qp(-4) == -2  # residue 0, block -2
        assert qp(-3) == 100  # residue 1, block -2

    def test_period_must_be_even(self):
        with pytest.raises(ModelError):
            QuasiPolynomial(3, (poly(1),) * 3, 0)

    def test_poly_count_must_match(self):
        with pytest.raises(ModelError):
            QuasiPolynomial(4, (poly(1),) * 3, 0)

    def test_shift_keeps_the_polynomials_it_does_not_move_across_a_block(self, monkeypatch):
        # By one degree, residue i takes residue i + 1's polynomial in the same
        # block: g(t + 0) is g itself, its numerators moved, not a composed
        # copy; the one Taylor shift is of the one residue that crosses.
        qp = from_series(parse_series("1/(1-t)^16"), 240, 0).pos_tail
        shifts = []

        def counted(nums, p):
            shifts.append(p)
            return taylor_shift(nums, p)

        taylor_shift = exact._taylor_shift
        monkeypatch.setattr(exact, "_taylor_shift", counted)
        new = qp.shift(1)
        assert shifts == [1]
        assert new.denominator == qp.denominator
        assert all(new.columns[j][:239] == qp.columns[j][1:] for j in range(16))
        assert new.polys[239] == qp.polys[0].shift(1)


# st.just([]) makes zero residues common, and some tails zero on every residue.
quasi_polynomials = st.sampled_from([2, 4, 6]).flatmap(
    lambda d: st.builds(
        lambda polys: QuasiPolynomial(d, tuple(Polynomial(tuple(cs)) for cs in polys), 0),
        st.lists(
            st.one_of(
                st.just([]),
                st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=3), max_size=4),
            ),
            min_size=d,
            max_size=d,
        ),
    )
)


def first_negatives(qp, degrees):
    """Each residue's first degree, in the order given, at which qp < 0."""
    first = {}
    for n in degrees:
        if qp(n) < 0:
            first.setdefault(n % qp.d, n)
    return first


class TestNegativeDegrees:
    """The certificate runs up; a ray down is the ray up of the reflection.
    A polynomial with coefficients in [-12, 12] and lead at least 1/3 in size
    has its roots within 37 of 0 (Cauchy), so past block 40 either way its
    sign is that at infinity, and a scan to there sees each first violation."""

    @given(quasi_polynomials, st.integers(-40, 40))
    @example(QuasiPolynomial(4, (Polynomial(),) * 4, 0), 0)
    def test_up_is_the_scan(self, qp, anchor):
        first = first_negatives(qp, range(anchor, 41 * qp.d))
        # The ray up meets the residues in the order 0, 1, ..., d - 1.
        assert list(qp.negative_degrees(anchor)) == [first[i] for i in sorted(first)]

    @given(quasi_polynomials, st.integers(-40, 40))
    def test_down_is_the_reflected_ray_up(self, qp, anchor):
        down = [-n for n in qp.reflect().negative_degrees(-anchor)]
        first = first_negatives(qp, range(anchor, -40 * qp.d - 1, -1))
        assert sorted(down) == sorted(first.values())
        # The reflected ray meets the residues in the order 0, d - 1, ..., 1.
        residues = [n % qp.d for n in down]
        assert residues == sorted(residues, key=lambda i: -i % qp.d)

    def test_one_degree_per_bad_residue_in_residue_order(self):
        # Residue 0 is (t - 1)(t - 3), negative at block 2 only (degree 4);
        # residue 1 is (t + 1)(t + 3), negative at block -2 only (degree -3).
        qp = QuasiPolynomial(2, (poly(3, -4, 1), poly(3, 4, 1)), 0)
        assert list(qp.negative_degrees(0)) == [4]
        assert list(qp.negative_degrees(-10)) == [4, -3]
        assert list(qp.negative_degrees(5)) == []

        def down(anchor):
            return [-n for n in qp.reflect().negative_degrees(-anchor)]

        assert down(0) == [-3]
        assert down(-3) == [-3]
        assert down(-4) == []
        assert down(10) == [4, -3]


class TestConstruction:
    def test_negative_values_rejected(self):
        with pytest.raises(ModelError):
            LengthFunction(2, 0, (1, -1), None, None)

    def test_overlap_disagreement_rejected(self):
        qp = QuasiPolynomial(2, (poly(5), poly(5)), 0)
        with pytest.raises(ModelError):
            LengthFunction(2, 0, (5, 5, 5, 4, 5, 5, 5, 5, 5), qp, None)

    def test_insufficient_overlap_rejected(self):
        qp = QuasiPolynomial(2, (poly(5), poly(5)), 0)
        with pytest.raises(ModelError):
            LengthFunction(2, 0, (5, 5, 5), qp, None)

    def test_eventually_negative_tail_rejected(self):
        # 8 - t goes negative at block 9 even though the overlap looks fine.
        qp = QuasiPolynomial(2, (poly(8, -1), poly(0)), 0)
        values = tuple(max(8 - n // 2, 0) if n % 2 == 0 else 0 for n in range(0, 9))
        with pytest.raises(ModelError):
            LengthFunction(2, 0, values, qp, None)

    def test_zero_quasipoly_normalized_to_vanishing(self):
        qp = QuasiPolynomial(2, (poly(), poly()), 0)
        lf = LengthFunction(2, 0, (0, 0, 1), qp, None)
        assert lf.pos_tail is None
        assert repr(lf) == "LengthFunction(d=2, core=[0..2], pos=vanishing, neg=vanishing)"
        neg = LengthFunction(2, 0, (1, 0, 0), None, QuasiPolynomial(2, (poly(), poly()), 2))
        assert neg.neg_tail is None
        assert repr(neg) == "LengthFunction(d=2, core=[0..2], pos=vanishing, neg=vanishing)"
        assert neg.to_json_dict()["neg_tail"] == {"kind": "vanishing"}
        assert repr(xy_fixture(1).reflect()) == (
            "LengthFunction(d=2, core=[-12..2], pos=vanishing, neg=quasipoly)"
        )

    def test_odd_period_rejected(self):
        with pytest.raises(ModelError):
            LengthFunction(3, 0, (0,), None, None)

    @pytest.mark.parametrize(
        "value, shown",
        [
            (Fraction(3, 2), "3/2 (Fraction)"),
            (2.7, "2.7 (float)"),
            (2.0, "2.0 (float)"),
            (True, "True (bool)"),
            ("3", "3 (str)"),
            (None, "None (NoneType)"),
        ],
        ids=["fraction", "float", "integral_float", "bool", "string", "none"],
    )
    def test_values_are_not_coerced(self, value, shown):
        # int() used to turn each of these into a length.
        with pytest.raises(ModelError) as info:
            LengthFunction(2, 0, (1, value, 2), None, None)
        assert str(info.value) == f"core_values[1] is {shown}, not an integer"

    def test_integral_fractions_are_values(self):
        lf = LengthFunction(2, 0, (Fraction(4, 2), 1), None, None)
        assert lf.core_values == (2, 1)
        assert all(type(v) is int for v in lf.core_values)

    @pytest.mark.parametrize(
        "c, gives, holds",
        [
            (4, "4", "5"),
            # past the interpreter's 4300 digits of decimal text
            (10**5000, "a positive integer of 5001 digits", "a positive integer of 5001 digits"),
        ],
        ids=["short", "too_long"],
    )
    def test_overlap_disagreement_names_both_values(self, c, gives, holds):
        qp = QuasiPolynomial(2, (poly(c), poly(1)), 0)
        with pytest.raises(ModelError) as info:
            LengthFunction(2, 0, (c + 1, 1) + (c, 1) * 3, qp, None)
        assert str(info.value) == (
            f"pos tail disagrees with the core at n=0: tail gives {gives}, core holds {holds}"
        )

    @pytest.mark.parametrize(
        "c, shown",
        [
            (-3, "-3"),
            (
                Fraction(-(10**5000), 3),
                "a negative fraction with a 5001-digit numerator and a 1-digit denominator",
            ),
        ],
        ids=["short", "too_long"],
    )
    def test_unchecked_negative_tail_names_its_value(self, c, shown):
        lf = LengthFunction._unchecked(2, 0, (0,), QuasiPolynomial(2, (poly(c), poly(0)), 1), None)
        with pytest.raises(ModelError) as info:
            lf(2)
        assert str(info.value) == f"tail evaluates to {shown} at n=2; not a length"


class TestEquality:
    def test_different_periods_differ(self):
        assert zero_fixture(2) != zero_fixture(4)

    def test_different_tails_differ(self):
        assert xy_fixture(3) != xy_fixture(4)
        assert xy_fixture(3) != zero_fixture()


class TestEvaluate:
    def test_group_cohomology_value(self):
        lf = from_series(parse_series(S4_SERIES), 6, 120)
        assert lf(7) == 5

    def test_zero_function(self):
        lf = zero_fixture()
        assert all(lf(n) == 0 for n in range(-50, 50))

    def test_even_support_series_value(self):
        f = parse_series("t^2/(1-t^2)^2")
        lf = from_series(f, 2, 80)
        assert lf(10) == 5
        # oracle: direct expansion
        assert lf(10) == series_coefficients(f, 10)[10]

    def test_agrees_with_expansion_on_every_probed_index(self):
        for text, d, probe in (
            ("t^2/(1-t^2)^2", 2, 60),
            (S4_SERIES, 6, 120),
            ("1/(1-t)^4", 2, 50),
        ):
            f = parse_series(text)
            lf = from_series(f, d, probe)
            coeffs = series_coefficients(f, probe)
            assert all(lf(n) == coeffs[n] for n in range(probe + 1))

    def test_total_on_negative_side(self):
        lf = xy_fixture(3)
        assert lf(-100) == 0
        assert lf(100) == 3
        assert lf(101) == 0


class TestFromSeries:
    def test_squares_family(self):
        lf = from_series(parse_series("1/(1-t)^2"), 2, 40)
        qp = lf.pos_tail
        assert qp.polys == (poly(1, 2), poly(2, 2))
        assert qp.valid_from == 0

    def test_group_cohomology_table(self):
        lf = from_series(parse_series(S4_SERIES), 6, 120)
        assert lf.pos_tail.polys == (
            poly(1, 4),
            poly(1, 4),
            poly(2, 4),
            poly(3, 4),
            poly(3, 4),
            poly(4, 4),
        )

    def test_plain_polynomial_has_finite_support(self):
        lf = from_series(parse_series("t^3"), 2, 10)
        assert lf.pos_tail is None
        assert lf(3) == 1
        assert lf.support() == [3]

    def test_small_probe_widens_the_core(self):
        # The tail comes from the denominator, so the probe only sets the
        # smallest core shown: here the core widens to the tail's overlap.
        f = parse_series("1/(1-t)^6")
        small, wide = from_series(f, 2, 8), from_series(f, 2, 80)
        assert small.pos_tail == wide.pos_tail
        assert small.core_end == 2 * (5 + 2) > 8
        assert small == wide

    def test_negative_probe_rejected(self):
        with pytest.raises(ModelError, match=r"^probe must be >= 0, got -1$"):
            from_series(parse_series("1/(1-t)"), 2, -1)

    def test_zero_probe_accepted(self):
        lf = from_series(parse_series("1/(1-t)^2"), 2, 0)
        assert lf.pos_tail.polys == (poly(1, 2), poly(2, 2))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ModelError):
            from_series(parse_series("1-2*t"), 2, 12)

    @pytest.mark.parametrize(
        "expr, shown",
        [
            ("1-2*t", "n=1 is -2"),
            # past the interpreter's 4300 digits of decimal text
            (f"-{'9' * 2200}*{'9' * 2200}", "n=0 is a negative integer of 4400 digits"),
            ("1/(2+t)", "n=0 is 1/2"),
            (
                "1/(2^15000+t)",
                "n=0 is a positive fraction with a 1-digit numerator and a 4516-digit denominator",
            ),
        ],
        ids=["short", "too_long", "fraction", "fraction_too_long"],
    )
    def test_negative_coefficient_is_named(self, expr, shown):
        # A fraction is named the same way, read off the integer pair of the
        # expansion that the scale does not divide.
        with pytest.raises(ModelError) as info:
            from_series(parse_series(expr), 2, 12)
        assert str(info.value) == f"series coefficient at {shown}; not a length"


class TestCertifiedTail:
    """The tail is certified from the denominator, not fitted to the probe
    window: past the probe the model still agrees with the series."""

    REFUSAL = "not eventually a period-2 quasi-polynomial: its poles are not all d-th roots of unity"

    def test_monomial_past_the_probe(self):
        # A fit to 0..80 saw only zeros and gave Euler characteristic 0.
        lf = from_series(parse_series("t^200"), 2, 80)
        assert lf.pos_tail is None
        assert lf(200) == 1 and lf.support() == [200]
        assert multiplicity_pos(lf, 0).e_delta == 1

    def test_change_past_the_probe(self):
        # A fit to 0..80 claimed lambda(200) = 1.
        f = parse_series("1/(1-t)+t^200")
        lf = from_series(f, 2, 80)
        assert lf(200) == 2
        coeffs = series_coefficients(f, 400)
        assert all(lf(n) == coeffs[n] for n in range(401))
        assert lf.pos_tail.valid_from == 201

    @pytest.mark.parametrize(
        "expr, probe",
        [
            pytest.param(expr, probe, id=expr)
            for expr, probe in [
                ("1/(1-t^100)", 80),
                ("1/(1-t^3)", 80),
                ("t^5/((1-t^2)*(1-t^5))", 80),
                ("1/((1-t)*(1-t^12))", 0),
            ]
        ],
    )
    def test_pole_off_the_period_refused(self, expr, probe):
        # 1/(1-t^100) was fitted as 1, 0, 0, ...; 1/(1-t^3) asked for a larger probe.
        # 1/((1-t)*(1-t^12)) first differs from its tail, 1 on both residues,
        # at n=12: past the stored core 0..4 and past start + d(k + 1) = 6,
        # but inside the certificate's deg D + dk = 17 degrees 0..16.
        with pytest.raises(ModelError) as info:
            from_series(parse_series(expr), 2, probe)
        assert str(info.value) == self.REFUSAL

    def test_cancelled_pole_accepted(self):
        # 1 + t + t^2 cancels the primitive cube roots: the series is 1/(1-t).
        lf = from_series(parse_series("(1+t+t^2)/(1-t^3)"), 2, 80)
        assert lf == from_series(parse_series("1/(1-t)"), 2, 80)

    def test_long_period_at_its_probe(self):
        # The fit needed more than 7 blocks of 60 per residue and failed.
        f = parse_series("1/(1-t)^4")
        lf = from_series(f, 60, 420)
        assert lf.complexity() == 4
        coeffs = series_coefficients(f, 1500)
        assert all(lf(n) == coeffs[n] for n in range(1501))

    OUTRANKED = (
        "series coefficients eventually go negative: "
        "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
    )

    @pytest.mark.parametrize(
        "expr, d",
        [
            ("100/(1-t)+1/(1+t)^2", 2),
            ("10^6/(1-t)+1/(1-t+t^2)^2", 6),
            ("10^6/(1-t)^2+t/(1+t^2)^3", 4),
        ],
    )
    def test_outranking_pole_named(self, expr, d):
        # The poles are d-th roots of unity, but the one at -1 (or at a
        # primitive 6th or 4th root) has the higher order: coefficient n=101
        # of the first is -2.  This was refused as "its poles are not all
        # d-th roots of unity".
        with pytest.raises(ModelError) as info:
            from_series(parse_series(expr), d, 80)
        assert str(info.value) == self.OUTRANKED

    def test_pole_off_the_period_named_beside_an_outranking_one(self):
        # A pole off the period is named first, whatever else outranks.
        with pytest.raises(ModelError) as info:
            from_series(parse_series("100/(1-t)+1/(1+t)^2+1/(1-t^3)"), 2, 80)
        assert str(info.value) == self.REFUSAL

    def test_cyclotomic_factors_divided_out_at_a_large_period(self):
        # Only the Phi_m (m | d) of degree <= deg D are built: no polynomial of
        # degree d * deg D appears.  963761198400 has 6720 divisors; the walk
        # stops past 2 (deg D)^2, so trial division runs up to that bound
        # there, and up to sqrt(d) at 10^6.
        # Phi_2 = 1 + t and Phi_4 = 1 + t^2 go; Phi_3 = 1 + t + t^2 goes only if 3 | d.
        phi3 = Polynomial((1, 1, 1))
        rest = Polynomial((1, -2)) ** 100
        q = rest * phi3 * Polynomial((1, 1)) ** 3 * Polynomial((1, 0, 1))
        for d in (10**6, 963761198400):
            began = time.perf_counter()
            stripped = _strip_cyclotomic(list(q.numerators), d)
            assert stripped == list((rest if d % 3 == 0 else rest * phi3).numerators)
            assert time.perf_counter() - began < 1.0

    def test_negative_coefficient_named_before_the_refusal(self):
        with pytest.raises(ModelError, match=r"^series coefficient at n=1 is -2; not a length$"):
            from_series(parse_series("1/(1+t)^2"), 2, 80)
        # t^5 - t^6 + t^11 - ...: some of its poles are off the period 2 (the
        # primitive 3rd and 6th roots of unity), but the expansion reaches n=6 first.
        with pytest.raises(ModelError, match=r"^series coefficient at n=6 is -1; not a length$"):
            from_series(parse_series("t^5*(1-t)/(1-t^6)"), 2, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fit_quasipoly({}, 2), FitError, "no samples"),
        (lambda: xy_fixture(1).support(), ModelError, "support is infinite"),
    ],
    ids=["fit_without_samples", "infinite_support"],
)
def test_bad_request_is_named(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestFitQuasipoly:
    def test_even_constant_support(self):
        samples = {n: 3 if n % 2 == 0 else 0 for n in range(0, 30)}
        qp = fit_quasipoly(samples, 2)
        assert qp.polys == (poly(3), poly())

    def test_all_zero(self):
        qp = fit_quasipoly({n: 0 for n in range(0, 20)}, 2)
        assert qp.polys == (poly(), poly())
        assert all(p.degree == -1 for p in qp.polys)

    def test_binomial_leading_coefficient(self):
        # lambda(n) = C(n+2, 2) blocked at period 2 has leading coefficient 2.
        f = parse_series("1/(1-t)^3")
        coeffs = series_coefficients(f, 40)
        qp = fit_quasipoly({n: coeffs[n] for n in range(41)}, 2)
        assert qp.polys[0].leading_term() == (2, 2)
        assert qp.polys[1].leading_term() == (2, 2)

    def test_round_trip_random_polynomials(self):
        rng = random.Random(11)
        for _ in range(30):
            d = rng.choice([2, 4])
            polys = []
            for _ in range(d):
                degree = rng.randint(-1, 5)
                polys.append(
                    Polynomial(
                        tuple(
                            Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(degree + 1)
                        )
                    )
                )
            samples = {d * m + i: polys[i](m) for m in range(16) for i in range(d)}
            fitted = fit_quasipoly(samples, d)
            assert fitted.polys == tuple(polys)

    def test_honest_valid_from(self):
        samples = {n: (n // 2 if n % 2 == 0 else 0) for n in range(0, 40)}
        samples[4] = 99  # corrupt one early value
        qp = fit_quasipoly(samples, 2)
        assert qp.valid_from == 5

    def test_non_stabilizing_fails_with_residue(self):
        rng = random.Random(0)
        samples = {n: rng.randint(0, 50) for n in range(0, 40)}
        with pytest.raises(FitError, match=r"^no polynomial stabilization in residue class \d"):
            fit_quasipoly(samples, 2)

    def test_gap_in_samples_rejected(self):
        with pytest.raises(FitError):
            fit_quasipoly({0: 1, 2: 1}, 2)


class TestComplexity:
    def test_group_cohomology(self):
        lf = from_series(parse_series(S4_SERIES), 6, 120)
        assert lf.complexity("positive") == 2

    def test_binomial_family(self):
        for c in (2, 3, 5):
            lf = from_series(parse_series(f"1/(1-t)^{c}"), 2, 60)
            assert lf.complexity("positive") == c

    def test_finite_support(self):
        lf = from_series(parse_series("t^3"), 2, 10)
        assert lf.complexity("positive") == 0
        assert lf.complexity("negative") == 0

    def test_shift_invariance(self):
        lf = xy_fixture(2)
        for k in (-7, -1, 0, 1, 2, 12):
            assert lf.shift(k).complexity("positive") == lf.complexity("positive")


class TestShift:
    def test_shift_zero_is_identity(self):
        lf = xy_fixture(3)
        assert lf.shift(0) == lf

    def test_shift_then_unshift(self):
        lf = from_series(parse_series("1/(1-t)^2"), 2, 30)
        assert lf.shift(1).shift(-1) == lf

    def test_shift_moves_support(self):
        lf = xy_fixture(3)
        shifted = lf.shift(1)
        for n in range(-10, 60):
            assert shifted(n) == lf(n + 1)
        assert shifted(2) == 0  # even degrees now vanish

    def test_shift_by_period_keeps_residues(self):
        lf = from_series(parse_series(S4_SERIES), 6, 120)
        shifted = lf.shift(6)
        for n in range(0, 40):
            assert shifted(n) == lf(n + 6)

    def test_shift_with_negative_tail(self):
        values = tuple((5 if n % 2 == 0 else 2) if n <= 0 else 0 for n in range(-14, 3))
        lf = LengthFunction(
            2,
            -14,
            values,
            None,
            QuasiPolynomial(2, (poly(5), poly(2)), -4),
        )
        for k in (-3, 1, 4):
            shifted = lf.shift(k)
            for n in range(-40, 20):
                assert shifted(n) == lf(n + k)
            assert shifted.shift(-k) == lf


class TestPointwiseSum:
    def test_sum_with_zero(self):
        lf = xy_fixture(2)
        assert lf + zero_fixture() == lf

    def test_constant_supports_add(self):
        total = xy_fixture(1) + xy_fixture(2)
        want = xy_fixture(3)
        for n in range(-10, 40):
            assert total(n) == want(n)
        assert total == want

    def test_finite_support_union(self):
        a = LengthFunction(2, 0, (1,), None, None)
        b = LengthFunction(2, 5, (2,), None, None)
        total = a + b
        assert total(0) == 1 and total(5) == 2 and total(3) == 0

    def test_mismatched_period_rejected(self):
        with pytest.raises(ModelError):
            zero_fixture(2) + zero_fixture(4)


class TestReflect:
    def test_involution(self):
        lf = xy_fixture(3)
        assert lf.reflect().reflect() == lf

    def test_values_mirror(self):
        lf = from_series(parse_series("1/(1-t)^2"), 2, 30)
        mirrored = lf.reflect()
        for n in range(-40, 40):
            assert mirrored(n) == lf(-n)

    def test_two_sided_mirror(self):
        pos = QuasiPolynomial(2, (poly(0, 1), poly()), 0)
        neg = QuasiPolynomial(2, (poly(0, -1), poly()), 0)
        values = tuple(abs(n) // 2 if n % 2 == 0 else 0 for n in range(-14, 15))
        lf = LengthFunction(2, -14, values, pos, neg)
        mirrored = lf.reflect()
        for n in range(-30, 30):
            assert mirrored(n) == lf(-n)


def test_shift_and_reflect_match_validated_construction():
    # shift and reflect build their result without re-validating it; the
    # validating constructor must accept the same fields and give the same
    # function, on one-sided and two-sided inputs.
    rng = random.Random(41)
    for case in range(120):
        d = rng.choice([2, 4, 6])
        lf = random_length_function(rng, d=d)
        if case % 2:
            lf = lf + random_length_function(rng, d=d).reflect().shift(rng.randint(-6, 6))
        for out in (lf.reflect(), lf.shift(rng.randint(-9, 9)), lf.reflect().shift(-3)):
            checked = LengthFunction(
                out.d, out.core_start, out.core_values, out.pos_tail, out.neg_tail
            )
            assert out == checked
            assert out.to_json_dict() == checked.to_json_dict()
            assert repr(out) == repr(checked)


@given(
    st.integers(0, 2**32),
    st.sampled_from([2, 4, 6]),
    st.sampled_from([1, -1]),
    st.integers(-20, 20),
    st.booleans(),
)
@example(seed=0, d=2, sign=-1, b=-7, two_sided=True)
@example(seed=1, d=6, sign=1, b=13, two_sided=False)
def test_one_reindexing_is_the_shift_and_the_reflection(seed, d, sign, b, two_sided):
    # n -> sign * n + b in one body against the two bodies of the oracle
    # composed, field by field and pointwise past both anchors, for |b| up to
    # and beyond the period.
    rng = random.Random(seed)
    lf = random_length_function(rng, d=d)
    if two_sided:
        mirror = oracle.reflect_function(random_length_function(rng, d=d))
        lf = lf + oracle.shift_function(mirror, rng.randint(-6, 6))
    out, want = lf._reindexed(sign, b), oracle.reindexed(lf, sign, b)
    assert out.to_json_dict() == want.to_json_dict()
    for qp in (lf.pos_tail, lf.neg_tail):
        if qp is not None:
            tail = qp._reindexed(sign, b)
            assert tail == oracle.reindexed(qp, sign, b)
            anchor = tail.valid_from
            assert all(tail(n) == qp(sign * n + b) for n in range(anchor - 2 * d, anchor + 2 * d))
    anchors = [out.core_start, out.core_end]
    anchors += [qp.valid_from for qp in (out.pos_tail, out.neg_tail) if qp is not None]
    for n in range(min(anchors) - 3 * d, max(anchors) + 3 * d):
        assert out(n) == lf(sign * n + b)


class TestJson:
    def test_round_trip(self):
        for lf in (
            xy_fixture(3),
            from_series(parse_series(S4_SERIES), 6, 120),
            zero_fixture(),
        ):
            assert LengthFunction.from_json_dict(lf.to_json_dict()) == lf

    def test_documented_shape(self):
        lf = xy_fixture(2)
        data = lf.to_json_dict()
        assert data["core"]["start"] == -2
        assert data["pos_tail"] == {
            "kind": "quasipoly",
            "valid_from": 2,
            "polys": [["2"], []],
        }
        assert data["neg_tail"] == {"kind": "vanishing"}

    def test_unknown_field_rejected(self):
        data = xy_fixture(2).to_json_dict()
        data["extra"] = 1
        with pytest.raises(ModelError):
            LengthFunction.from_json_dict(data)

    def test_unknown_tail_field_rejected(self):
        data = xy_fixture(2).to_json_dict()
        data["pos_tail"]["comment"] = "nope"
        with pytest.raises(ModelError):
            LengthFunction.from_json_dict(data)

    def test_fraction_strings_accepted(self):
        data = {
            "d": 2,
            "core": {"start": 0, "values": [1, 1, 1, 1, 1, 1, 1]},
            "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["1/1"], ["1"]]},
            "neg_tail": {"kind": "vanishing"},
        }
        lf = LengthFunction.from_json_dict(data)
        assert lf(100) == 1
