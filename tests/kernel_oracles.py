"""Slow, obvious oracles for the integer polynomial kernels.

Each is the plain Fraction computation that the integer kernels must match:
Horner evaluation and Horner composition on the Fraction coefficients, Newton
interpolation of every candidate degree in the fit, the Faulhaber sum
through the summation polynomial, and the residue profiles of the Herbrand
difference with repeated differences for its stabilized constant.  They share
no code with the kernels they check beyond polynomial addition and
multiplication.
"""

from fractions import Fraction
from math import factorial

from qmult.exact import Polynomial
from qmult.lengths import FitError, ModelError, QuasiPolynomial


def horner_eval(g, x):
    """g(x) by Horner's rule on the Fraction coefficients."""
    acc = Fraction(0)
    for c in reversed(g.coeffs):
        acc = acc * x + c
    return acc


def horner_compose_linear(g, a, b):
    """g(a*t + b) by Horner composition: one polynomial product per coefficient."""
    arg = Polynomial((Fraction(b), Fraction(a)))
    acc = Polynomial()
    for c in reversed(g.coeffs):
        acc = acc * arg + c
    return acc


def forward_difference(g):
    """g(t + 1) - g(t)."""
    return horner_compose_linear(g, 1, 1) - g


def binomial_polynomial(k):
    """C(t, k) as the product t(t-1)...(t-k+1)/k!."""
    p = Polynomial.const(Fraction(1, factorial(k)))
    for j in range(k):
        p = p * Polynomial((Fraction(-j), Fraction(1)))
    return p


def newton_interpolate(points):
    """Interpolant through points with consecutive integer abscissas m0, m0+1, ..."""
    m0 = points[0][0]
    row = [Fraction(v) for _, v in points]
    poly = Polynomial()
    for k in range(len(points)):
        poly = poly + horner_compose_linear(binomial_polynomial(k), 1, -m0) * row[0]
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
        if not row:
            break
    return poly


def fit_quasipoly(samples, d):
    """Per residue, interpolate the top r + 1 blocks for r = 0, 1, ... and accept
    the first interpolant that the r + 2 blocks below agree with."""
    if d < 2 or d % 2 != 0:
        raise ModelError(f"period must be an even integer >= 2, got {d}")
    if not samples:
        raise FitError("no samples")
    keys = sorted(samples)
    lo, hi = keys[0], keys[-1]
    if keys != list(range(lo, hi + 1)):
        raise FitError("samples must cover a contiguous window")

    polys = []
    for i in range(d):
        blocks = [(m, Fraction(samples[d * m + i])) for m in range(-(-(lo - i) // d), (hi - i) // d + 1)]
        if len(blocks) < 3:
            raise FitError(
                f"residue class {i} has only {len(blocks)} samples", residue=i, best_degree=None
            )
        fitted = None
        best = -1
        r = 0
        while r + 1 + (r + 2) <= len(blocks):
            best = r
            top = blocks[len(blocks) - (r + 1) :]
            candidate = newton_interpolate(top)
            check = blocks[len(blocks) - (r + 1) - (r + 2) : len(blocks) - (r + 1)]
            if all(horner_eval(candidate, m) == v for m, v in check):
                fitted = candidate
                break
            r += 1
        if fitted is None:
            raise FitError(
                f"no polynomial stabilization in residue class {i} "
                f"(tried degrees up to {best})",
                residue=i,
                best_degree=best,
            )
        polys.append(fitted)

    def value(n):
        return horner_eval(polys[n % d], n // d)

    valid_from = lo
    for n in range(hi, lo - 1, -1):
        if value(n) != Fraction(samples[n]):
            valid_from = n + 1
            break
    return QuasiPolynomial(d, tuple(polys), valid_from)


def faulhaber_sum(g, N, n):
    """sum_{i=N}^{n} g(i) as G(n) - G(N - 1), where G(n) = sum_{i=0}^{n} g(i) is
    built from the Newton coefficients of g: sum_{i=0}^{n} C(i,k) = C(n+1, k+1)."""
    G = Polynomial()
    p, k = g, 0
    while not p.is_zero():
        G = G + horner_compose_linear(binomial_polynomial(k + 1), 1, 1) * horner_eval(p, 0)
        p, k = forward_difference(p), k + 1
    return horner_eval(G, n) - horner_eval(G, N - 1)


def stabilized_constant(profile, s):
    """D^{s-1} of a residue profile by s - 1 unit forward differences; None when
    the result is not a constant."""
    for _ in range(s - 1):
        profile = forward_difference(profile)
    if profile.degree > 0:
        return None
    return horner_eval(profile, 0)


def residue_profiles(polys):
    """Eventual block polynomials of the Herbrand difference, by the direct formula.

    For n = d*m + j in the tail region, h(n) equals
    sum_{k >= j} (-1)^k g_k(m) + sum_{k < j} (-1)^k g_k(m+1)
    as a polynomial in m: the k < j summands spill into the next block.
    """
    spilled = [horner_compose_linear(g, 1, 1) for g in polys]
    return [
        sum(((g if k >= j else spilled[k]) * (-1) ** k for k, g in enumerate(polys)), Polynomial())
        for j in range(len(polys))
    ]
