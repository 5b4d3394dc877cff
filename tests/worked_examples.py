"""The paper's worked examples as length functions, defined once for the tests.

Each worked example equals the source of its case in the packaged fixture
corpus (``test_fixtures`` checks this), so the unit tests and ``qmult verify``
read the same examples.  ``neg_growth_fixture``, the negative-side model of
the Koszul tests and the CLI golden, is not in the corpus.
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
