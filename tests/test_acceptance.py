"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.  Everything here is exact arithmetic except where an
explicit tolerance is stated.
"""

import random
import time
from fractions import Fraction
from math import factorial

from qmult.differences import delta, delta_neg
from qmult.exact import Polynomial, series_coefficients
from qmult.fixtures import random_length_function, run_property_suites
from qmult.koszul import koszul_triangle, reduce_chain
from qmult.lengths import LengthFunction, QuasiPolynomial, from_series
from qmult.multiplicity import (
    euler_characteristic,
    multiplicity_neg,
    multiplicity_pos,
    limit_estimate,
    theta_invariant,
    vanishing_window_check,
)
from qmult.series import parse_series

from exact_oracles import brute_stabilized_delta, delta_neg_recursive, delta_recursive
from worked_examples import hypersurface_fixture, jst_fixture, poly, xy_fixture


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def s4_fixture():
    return from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), 6, 120)


def quantum_ci_fixture(c):
    return from_series(parse_series(f"1/(1-t)^{c}"), 2, 60)


def test_criterion_01_hypersurface():
    lf = hypersurface_fixture()
    assert lf.complexity("positive") == 1
    rep = multiplicity_pos(lf, 1)
    assert rep.e_delta == 0 and rep.e_coeff == 0
    report(1, "hypersurface: cx=1 and e^1=0 under both conventions")


def test_criterion_02_even_support_family():
    for r in (1, 2, 5):
        rep = multiplicity_pos(xy_fixture(r), 1)
        assert rep.e_delta == r and rep.e_coeff == r
        shifted = multiplicity_pos(xy_fixture(r).shift(1), 1)
        assert shifted.e_delta == -r and shifted.e_coeff == -r
    report(2, "even-support family: e^1=r for r in {1,2,5}; shifted gives -r")


def test_criterion_03_convention_split_witness():
    expected = {2: (2, 1), 3: (-4, -1), 4: (8, 1)}
    for c, (coeff, delta_value) in expected.items():
        lf = jst_fixture(c)
        assert lf.complexity("positive") == c
        rep = multiplicity_pos(lf, c)
        assert rep.e_coeff == coeff
        assert rep.e_delta == delta_value
        # independent oracle from raw series coefficients
        raw = [int(x) for x in series_coefficients(parse_series(f"t^{c}/(1-t^2)^{c}"), 400)]
        assert brute_stabilized_delta(raw, 2, c) == delta_value
    report(3, "convention split: coefficient 2,-4,8 vs delta 1,-1,1 for c=2,3,4 (oracle-checked)")


def test_criterion_04_group_cohomology_table():
    lf = s4_fixture()
    assert lf.pos_tail.polys == (
        poly(1, 4),
        poly(1, 4),
        poly(2, 4),
        poly(3, 4),
        poly(3, 4),
        poly(4, 4),
    )
    assert lf.complexity("positive") == 2
    rep = multiplicity_pos(lf, 2)
    assert rep.e_delta == 0 and rep.e_coeff == 0
    report(4, "period-6 cohomology: Hilbert table 4t+1..4t+4 exact, cx=2, e^2=0")


def test_criterion_05_binomial_family():
    for c in (2, 3, 5):
        lf = quantum_ci_fixture(c)
        assert lf.complexity("positive") == c
        rep = multiplicity_pos(lf, c)
        lead = Fraction(2 ** (c - 1), factorial(c - 1))
        assert rep.leading == (lead, lead)
        assert rep.e_delta == 0 and rep.e_coeff == 0
    report(5, "binomial family: leading 2^(c-1)/(c-1)! both classes, cx=c, e^c=0")


def test_criterion_06_limit_estimator():
    grid = [10**3, 10**4, 10**5]
    tol = Fraction(1, 1000)
    start = time.monotonic()
    for r in (1, 2, 5):
        lf = xy_fixture(r)
        errors = [abs(limit_estimate(lf, 1, n, "paper") - r) for n in grid]
        assert all(errors[i + 1] <= errors[i] for i in range(2))
        assert errors[-1] < tol
    targets = {2: (2, 1), 3: (-4, -1), 4: (8, 1)}
    for c, (coeff, delta_value) in targets.items():
        lf = jst_fixture(c)
        paper_err = [abs(limit_estimate(lf, c, n, "paper") - coeff) for n in grid]
        corr_err = [abs(limit_estimate(lf, c, n, "corrected") - delta_value) for n in grid]
        for errs in (paper_err, corr_err):
            assert all(errs[i + 1] <= errs[i] for i in range(2))
            assert errs[-1] < tol
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"estimator too slow: {elapsed:.3f}s"
    report(6, f"limit estimator: monotone error, final < 1e-3, {elapsed * 1000:.0f} ms total")


def test_criterion_07_difference_identities():
    # The binomial moment sum_i (-1)^i C(s,i) (m + d*i)^n is (-1)^s D^s t^n at m,
    # the alternating one its case m = 0, d = 1.
    for s in range(1, 11):
        for n in range(0, s):
            assert delta(lambda x: x**n, s, 1, 0) == 0
            for d in (2, 3, 4, 6):
                for m in range(-5, 6):
                    assert delta(lambda x: x**n, s, d, m) == 0
    rng = random.Random(2024)
    for _ in range(50):
        r = rng.randint(0, 5)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
        f = Polynomial(tuple([Fraction(rng.randint(-5, 5)) for _ in range(r)] + [a]))
        for d in (2, 3, 4, 6):
            n = rng.randint(-10, 10)
            assert delta(f, r, d, n) == a * factorial(r) * d**r
            assert delta(f, r + 1, d, n) == 0
    for s in range(0, 7):
        for d in (2, 4, 6):
            for _ in range(3):
                degree = rng.randint(0, 6)
                f = Polynomial(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(degree + 1))
                )
                for _ in range(3):
                    n = rng.randint(-20, 20)
                    assert delta_recursive(f, s, d, n) == delta(f, s, d, n)
                    assert delta_neg_recursive(f, s, d, n) == delta_neg(f, s, d, n)
                    assert delta_neg(f, s, d, n) == (-1) ** s * delta(f, s, d, n + s)
    report(7, "difference identities: moments vanish exhaustively; closed=recursive; sign-shift law")


def test_criterion_08_reduction_chains():
    cases = (
        [(hypersurface_fixture(), 1, 0)]
        + [(xy_fixture(r), 1, r) for r in (1, 2, 5)]
        + [(jst_fixture(c), c, v) for c, v in ((2, 1), (3, -1), (4, 1))]
        + [(s4_fixture(), 2, 0)]
        + [(quantum_ci_fixture(c), c, 0) for c in (2, 3, 5)]
    )
    for lf, s, expected in cases:
        chain = reduce_chain(lf, s, "positive")
        assert all(v == expected for v in chain.multiplicities)
        assert euler_characteristic(chain.functions[-1]) == expected
        cxs = [f.complexity("positive") for f in chain.functions]
        assert cxs == list(range(s, -1, -1))
    report(8, "reduction chains: delta values constant, terminal Euler sum matches, cx drops by 1")


def test_criterion_09_additivity():
    rng = random.Random(99)
    for _ in range(100):
        d = rng.choice([2, 4])
        a = random_length_function(rng, d=d)
        b = random_length_function(rng, d=d)
        s = max(a.complexity("positive"), b.complexity("positive"))
        total = multiplicity_pos(a + b, s)
        ra, rb = multiplicity_pos(a, s), multiplicity_pos(b, s)
        assert total.e_delta == ra.e_delta + rb.e_delta
        assert total.e_coeff == ra.e_coeff + rb.e_coeff
    for base in (
        hypersurface_fixture(),
        xy_fixture(2),
        jst_fixture(2),
        jst_fixture(3),
        s4_fixture(),
        quantum_ci_fixture(3),
    ):
        t1, t2, t3 = koszul_triangle(base)
        s = max(f.complexity("positive") for f in (t1, t2, t3))
        assert (
            multiplicity_pos(t2, s).e_delta
            == multiplicity_pos(t1, s).e_delta + multiplicity_pos(t3, s).e_delta
        )
    report(9, "additivity: 100 random split triangles and all Koszul triangles, exact")


def test_criterion_10_negative_side():
    for a, b in ((5, 2), (4, 4), (3, 0)):
        values = tuple(a if n % 2 == 0 else b for n in range(0, 17))
        tor = LengthFunction(
            2, 0, values, QuasiPolynomial(2, (poly(a), poly(b)), 0), None
        )
        assert theta_invariant(tor) == a - b
        assert multiplicity_neg(tor.reflect(), 1).e_delta == a - b
    for r in (1, 2, 3):
        values = tuple(r if n % 2 == 0 else 0 for n in range(-10, 11))
        tail = QuasiPolynomial(2, (poly(r), poly()), 0)
        two = LengthFunction(2, -10, values, tail, tail)
        assert multiplicity_pos(two, 1).e_delta == multiplicity_neg(two, 1).e_delta == r
    rng = random.Random(5)
    for _ in range(25):
        values = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8)))
        lf = LengthFunction(2, rng.randint(-6, 6), values, None, None)
        e_pos = multiplicity_pos(lf, 0).e_delta
        e_neg = multiplicity_neg(lf, 0).e_delta
        assert e_pos == e_neg == euler_characteristic(lf)
    report(10, "negative side: theta = a-b = e_1; two-sided e^1 = e_1; e_0 = e^0 on finite support")


def test_criterion_11_vanishing_window():
    zero = LengthFunction(2, 0, (0,), None, None)
    assert vanishing_window_check(zero, 0, "even").status == "confirmed"
    balanced = LengthFunction(
        2, 0, (1, 1, 0, 0, 2, 2, 0, 0, 0, 0), None, None
    )
    assert euler_characteristic(balanced) == 0
    assert vanishing_window_check(balanced, 10, "even").status == "confirmed"
    assert vanishing_window_check(balanced, 6, "odd").status == "confirmed"
    assert vanishing_window_check(s4_fixture(), 0, "even").status == "window_not_found"
    assert vanishing_window_check(s4_fixture(), 0, "odd").status == "window_not_found"
    report(11, "vanishing window: confirmed on constructed data, window_not_found on period-6 fixture")


def test_criterion_12_property_suites():
    results = run_property_suites(seed=12, cases=200)
    failures = [r for r in results if not r.ok]
    assert not failures, failures[:5]
    by_suite = {}
    for r in results:
        by_suite.setdefault(r.fixture, 0)
        by_suite[r.fixture] += 1
    for suite in (
        "fit_roundtrip",
        "series_remultiply",
        "shift_alternation",
        "vanishing_above_complexity",
        "convention_bridge",
    ):
        assert by_suite[suite] == 200
    report(12, "property suites: 200 seeded cases per suite, all green")
