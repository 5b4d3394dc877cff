"""The paper's worked examples as length functions, defined once for the tests.

Each worked example equals the source of its case in the packaged fixture
corpus (``test_fixtures`` checks this), so the unit tests and ``qmult verify``
read the same examples.  ``neg_growth_fixture``, the negative-side model of
the Koszul tests and the CLI golden, is not in the corpus, and neither are
the seeded ``reducible_functions`` on which Koszul steps succeed.
"""

from fractions import Fraction

from qmult.exact import Polynomial
from qmult.lengths import LengthFunction, QuasiPolynomial, from_series
from qmult.series import parse_series


def poly(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


def xy_fixture(r):
    """r in even degrees >= 2, zero elsewhere."""
    values = tuple(r if n >= 2 and n % 2 == 0 else 0 for n in range(-2, 13))
    return LengthFunction(2, -2, values, QuasiPolynomial(2, (poly(r), poly()), 2), None)


def hypersurface_fixture():
    """The hypersurface k[x]/(x^2): 1 in every degree >= 1."""
    values = (0, 0, 0) + (1,) * 12
    return LengthFunction(2, -2, values, QuasiPolynomial(2, (poly(1), poly(1)), 1), None)


def zero_fixture(d=2):
    return LengthFunction(d, 0, (0,), None, None)


def neg_growth_fixture():
    """lambda(2m) = -m for m <= 0, zero elsewhere: negative complexity 2."""
    values = tuple((-n // 2 if n % 2 == 0 and n <= 0 else 0) for n in range(-30, 5))
    return LengthFunction(2, -30, values, None, QuasiPolynomial(2, (poly(0, -1), poly()), -8))


def jst_fixture(c):
    """The intersecting planes: the series t^c / (1 - t^2)^c at d = 2."""
    return from_series(parse_series(f"t^{c}/(1-t^2)^{c}"), 2, 80)


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
