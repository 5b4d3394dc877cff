"""The vanishing-window check against its horizon scan.

``multiplicity.vanishing_window_check`` certifies the runs of zeros on the
negative tail and on the positive tail with the tail-sign certificate, and
looks for one at each degree between the tails;
``kernel_oracles.vanishing_window_check`` scans every degree up to past the
Cauchy horizon of the tail polynomials.  On random length functions with
period 2, 4 or 6, paired residues (so that the top multiplicity is 0), zero
residue polynomials, double-root dips, negative tails with and without runs
on them, and m0 far below, below, inside and above the core, both must give
the same result or the same error.
"""

import random
import time
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import lengths
from qmult.differences import binomial_polynomial
from qmult.exact import Polynomial, nonnegative_on_ray
from qmult.fixtures import random_length_function
from qmult.lengths import LengthFunction, QuasiPolynomial, from_series
from qmult.multiplicity import _first_run, vanishing_window_check
from qmult.series import parse_series

ROUTES = ("looked", "certified", "certified below", "window_not_found", "violated", "confirmed", "error")


def random_tail_poly(rng):
    """Zero, a nonnegative binomial combination, a dip c(t - K)^2 (+1), or
    (t - a)(t - a - 1): each is a nonnegative integer at every block >= 0."""
    kind = rng.choice(["zero", "binomial", "dip", "pair"])
    if kind == "zero":
        return Polynomial()
    if kind == "binomial":
        return sum(
            (binomial_polynomial(k) * rng.randint(0, 3) for k in range(rng.randint(1, 4))),
            Polynomial(),
        )
    t = Polynomial.t()
    if kind == "dip":
        return rng.randint(1, 2) * (t - rng.randint(0, 6)) ** 2 + rng.choice([0, 0, 1])
    a = rng.randint(0, 6)
    return (t - a) * (t - a - 1)


def window_function(rng, d=None):
    """A length function of period d (2, 4 or 6 if not given), vanishing below;
    its even and odd residues mostly hold the same polynomials, so its top
    multiplicity is 0."""
    d = d or rng.choice([2, 4, 6])
    lo = -rng.randint(0, 4)
    zeros = rng.random()  # share of zeros among the core values below the tail
    evens = [random_tail_poly(rng) for _ in range(d // 2)]
    odds = rng.sample(evens, len(evens)) if rng.random() < 0.8 else [
        random_tail_poly(rng) for _ in range(d // 2)
    ]
    polys = tuple(evens[i // 2] if i % 2 == 0 else odds[i // 2] for i in range(d))
    qp = None if rng.random() < 0.15 else QuasiPolynomial(d, polys, d * rng.randint(0, 2))
    if qp is None or qp.is_zero():
        values = [0 if rng.random() < zeros else rng.randint(0, 3) for _ in range(rng.randint(1, 9))]
        # Cancel the Euler characteristic, the top multiplicity here, with one
        # more value at a degree of the right parity.
        chi = sum(-v if (lo + k) % 2 else v for k, v in enumerate(values))
        if chi:
            if (lo + len(values)) % 2 != (chi > 0):
                values.append(0)
            values.append(abs(chi))
        return LengthFunction(d, lo, tuple(values), None, None)
    hi = qp.valid_from + d * (qp.max_degree + 2) + d * rng.randint(0, 2)
    values = [
        int(qp(n)) if n >= qp.valid_from else 0 if rng.random() < zeros else rng.randint(0, 3)
        for n in range(lo, hi + 1)
    ]
    return LengthFunction(d, lo, tuple(values), qp, None)


def window_case(rng):
    lf = window_function(rng)
    other = rng.random()
    if other < 0.2:
        lf = lf + random_length_function(rng, lf.d).reflect().shift(rng.randint(-6, 6))
    elif other < 0.4:
        # A negative tail with dips and zero residues, where runs can lie.
        lf = lf + window_function(rng, lf.d).reflect().shift(rng.randint(-6, 6))
    if rng.random() < 0.1:
        m0 = lf.core_start - rng.randint(2000, 2100)
    else:
        m0 = rng.randint(lf.core_start - 6, lf.core_end + 12)
    return lf, m0, rng.choice(["even", "odd"])


def outcome(check, lf, m0, parity):
    try:
        return check(lf, m0, parity)
    except Exception as err:  # noqa: BLE001 - any difference in kind must show
        return type(err).__name__, str(err)


def routes(lf, result):
    """How the result was reached: where the run was found, and the status."""
    if isinstance(result, tuple):
        return {"error"}
    if result.window_start is None:
        return {result.status}
    qp, neg = lf.pos_tail, lf.neg_tail
    if neg is not None and result.window_start + lf.d - 2 <= neg.valid_from:
        return {result.status, "certified below"}
    on_tail = qp is not None and result.window_start >= qp.valid_from
    return {result.status, "certified" if on_tail else "looked"}


def compare(rng, seen):
    lf, m0, parity = window_case(rng)
    got = outcome(vanishing_window_check, lf, m0, parity)
    assert got == outcome(oracle.vanishing_window_check, lf, m0, parity), (lf.to_json_dict(), m0, parity)
    seen.update(routes(lf, got))


def test_certificate_matches_the_horizon_scan():
    rng = random.Random(15)
    seen = Counter()
    for _ in range(600):
        compare(rng, seen)
    for route in ROUTES:
        assert seen[route], (route, seen)


@given(st.integers(0, 2**32 - 1))
def test_certificate_matches_the_horizon_scan_on_any_seed(seed):
    compare(random.Random(seed), Counter())


def test_run_on_a_tail_past_the_core():
    # The tail is (t - 5)^2 on both residues: lambda is 0 at n = 10 and 11
    # only, past the core [0, 9], so the run is found by the certificate.
    t = Polynomial.t()
    qp = QuasiPolynomial(2, ((t - 5) ** 2, (t - 5) ** 2), 0)
    lf = LengthFunction(2, 0, tuple(int(qp(n)) for n in range(10)), qp, None)
    for parity, start in (("even", 10), ("odd", 11)):
        result = vanishing_window_check(lf, 0, parity)
        assert (result.status, result.window_start, result.violation) == ("violated", start, 0)
        assert result == oracle.vanishing_window_check(lf, 0, parity)


def test_binomial_family_past_the_horizon_scan():
    # The horizon of 1/(1-t)^16 grows like 16!, which the scan never reached.
    lf = from_series(parse_series("1/(1-t)^16"), 2, 84)
    assert vanishing_window_check(lf, 0, "even").status == "window_not_found"


def test_violation_search_skips_a_vanishing_negative_tail():
    # Below the core of a function with a vanishing negative tail every value
    # is 0; the search for a violation used to walk there from m0 one degree
    # at a time, linear in |m0| (0.5 s at m0 = -10^6).
    lf = from_series(parse_series("1/(1-t)^2-1/(1-t^2)"), 2, 80)
    began = time.perf_counter()
    result = vanishing_window_check(lf, -10**9, "even")
    assert time.perf_counter() - began < 0.5
    assert (result.status, result.window_start, result.violation) == ("violated", -10**9, 1)


def two_sided(neg_poly, core):
    """Period 2: neg_poly on both residues up to valid_to = -2, the values of
    core on -1..1, and 1 from valid_from = 2 on; its top multiplicity is 0."""
    neg = QuasiPolynomial(2, (neg_poly, neg_poly), -2)
    pos = QuasiPolynomial(2, (Polynomial.const(1),) * 2, 2)
    values = [int(neg(n)) for n in range(-12, -1)] + list(core) + [1] * 7
    return LengthFunction(2, -12, tuple(values), pos, neg)


def test_run_between_constant_tails_far_below_the_core():
    # The negative tail is 1 everywhere, so the run at 0 or 1 lies between
    # the tails; the search used to look at every degree from m0 up, linear
    # in |m0| (more than 10 s at m0 = -10^9).
    lf = two_sided(Polynomial.const(1), (1, 0, 0))
    for parity, run in (("even", 0), ("odd", 1)):
        began = time.perf_counter()
        result = vanishing_window_check(lf, -10**9, parity)
        assert time.perf_counter() - began < 0.5
        assert (result.status, result.window_start, result.violation) == ("violated", run, -10**9)
        assert vanishing_window_check(lf, -2001, parity) == oracle.vanishing_window_check(lf, -2001, parity)
    assert vanishing_window_check(two_sided(Polynomial.const(1), (1, 1, 1)), -10**9, "even").status == (
        "window_not_found"
    )


def test_run_on_the_negative_tail_far_below_the_core():
    # (t + K)^2 is 0 at block -K only: the run at -2K or -2K + 1 is found on
    # the negative tail by the certificate, not by looking K blocks up.
    K = 10**6
    lf = two_sided((Polynomial.t() + K) ** 2, (1, 1, 1))
    for parity, run in (("even", -2 * K), ("odd", -2 * K + 1)):
        result = vanishing_window_check(lf, -10**9, parity)
        assert (result.status, result.window_start, result.violation) == ("violated", run, -10**9)
        assert vanishing_window_check(lf, run + 1, parity).status == "window_not_found"


def test_run_past_the_negative_tail_is_looked_at():
    # (t + 1)^2 vanishes at block -1, degrees -2 and -1, but the tail holds
    # only up to valid_to = -2: the core holds 1 at -1, so no odd run exists.
    lf = two_sided((Polynomial.t() + 1) ** 2, (1, 1, 1))
    assert vanishing_window_check(lf, -40, "odd").status == "window_not_found"
    assert vanishing_window_check(lf, -40, "even").window_start == -2
    for parity in ("even", "odd"):
        assert vanishing_window_check(lf, -40, parity) == oracle.vanishing_window_check(lf, -40, parity)


def test_run_sum_certified_at_the_wanted_parity_only(monkeypatch):
    # As d is even, a degree has the parity of its residue, so a run of one
    # parity is certified on the d/2 residues of that parity alone.  The tail
    # (t - 5)^2 vanishes on block 5 only, where the runs start at 1200, 1201.
    certified = []

    def counting(p, start):
        if not p.is_zero():
            certified.append(p)
        return nonnegative_on_ray(p, start)

    monkeypatch.setattr(lengths, "nonnegative_on_ray", counting)
    tail = QuasiPolynomial(240, ((Polynomial.t() - 5) ** 2,) * 240, 0)
    for want in (0, 1):
        certified.clear()
        assert _first_run(tail, 0, want) == 1200 + want
        assert len(certified) == 120
