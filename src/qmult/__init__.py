"""Exact multiplicity theory for graded length functions.

The library works with the numerical shadow of a pair of objects in a graded
setting: a total length function on the integers with quasi-polynomial (or
vanishing) tails.  On top of that model it computes Hilbert quasi-polynomials
and complexity, Herbrand differences, positive and negative multiplicities
under both stabilization conventions, Koszul reduction chains, theta and
intersection-multiplicity specializations, and a closed-form limit estimator.
All arithmetic is exact.
"""

from __future__ import annotations

from .differences import delta, delta_neg, faulhaber_sum
from .exact import (
    NotExpandableError,
    Polynomial,
    QmultError,
    RationalFunction,
    format_rational,
    parse_rational,
    series_coefficients,
)
from .koszul import KoszulChain, KoszulError, koszul_triangle, reduce_chain
from .lengths import (
    FitError,
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    fit_quasipoly,
    from_series,
)
from .multiplicity import (
    MultiplicityError,
    MultiplicityReport,
    WindowResult,
    euler_characteristic,
    herbrand,
    limit_estimate,
    multiplicity_neg,
    multiplicity_pos,
    serre_intersection,
    theta_invariant,
    vanishing_window_check,
)
from .series import (
    SeriesSemanticError,
    SeriesSyntaxError,
    parse_series,
)

__version__ = "0.1.0"

__all__ = [
    "FitError",
    "KoszulChain",
    "KoszulError",
    "LengthFunction",
    "ModelError",
    "MultiplicityError",
    "MultiplicityReport",
    "NotExpandableError",
    "Polynomial",
    "QmultError",
    "QuasiPolynomial",
    "RationalFunction",
    "SeriesSemanticError",
    "SeriesSyntaxError",
    "WindowResult",
    "delta",
    "delta_neg",
    "euler_characteristic",
    "faulhaber_sum",
    "fit_quasipoly",
    "format_rational",
    "from_series",
    "herbrand",
    "koszul_triangle",
    "limit_estimate",
    "multiplicity_neg",
    "multiplicity_pos",
    "parse_rational",
    "parse_series",
    "reduce_chain",
    "series_coefficients",
    "serre_intersection",
    "theta_invariant",
    "vanishing_window_check",
]
