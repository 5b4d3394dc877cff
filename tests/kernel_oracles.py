"""Slow, obvious oracles that build whole library objects or pin exact text.

Their polynomial arithmetic is the qmult-free one of ``exact_oracles``, on
each polynomial's Fraction coefficients (``.coeffs``), and every polynomial
they hand back is built by the validating ``Polynomial`` constructor, so they
share no arithmetic with the kernels they check: the text of a rational and
of a polynomial read off their Fractions, Newton interpolation of every
candidate degree in the fit, the Faulhaber sum through the summation
polynomial, and the residue profiles of the Herbrand difference with repeated
differences for its stabilized constant.

The multiplicity certificate keeps its first form: the Fraction sum of
the degree s-1 tail coefficients, and a scan that takes the closed-form
difference of the Herbrand difference at one degree at a time, against which
the integer sum and the whole-list differences of h are compared.

The tail check and the sum of two length functions are kept in their
mirrored form, one hand-written branch per side, against which the single
side-parametrized code path is compared.  The sum is built through the
validating constructor, against which the library's sum, built by
construction, is compared.  The Koszul step keeps its reduced tails as
forward differences by Horner composition, negated and shifted by one degree
in the negative regime, and the sign certificate of those tails written out
inline, with its own ceiling and floor ray starts from the window edges,
against which the tail's one certificate method is compared.  Both reflect a
downward ray to the upward ray of g(-t), through Horner composition.  The
Koszul chain is that step taken s times in its own regime, each function's
multiplicity read on its own side, against which the library's one positive
chain of the reflection, mapped back once, is compared.

Translation and reflection keep their two bodies each, on quasi-polynomials
by Horner composition and on length functions through the validating
constructor, against which the one reindexing n -> +-n + b is compared.

The vanishing-window check keeps its scan of every degree up to the Cauchy
horizon of the tail polynomials (``cauchy_horizon``, which the sign
certificate no longer needs), against which the run search by the tail-sign
certificate is compared; ``scan_oracle`` scans one polynomial's ray the same
way, against which the sign certificate and its Newton-table suffixes are
compared.

The certified series model is kept as it was first written, and every series
job is compared with it: one Fraction per expanded coefficient, P = N(1 -
t^d)^k / D decided by an exact division that expands a second Fraction series
and multiplies back, ``valid_from`` found by scanning every expanded degree
back down by Horner's rule, and the model checked again by the validating
constructor, against which the integer expansion through D's (1 - t^j)
factors, by running sums, its tail certified by agreement with the values
already expanded, its boundary at max(0, deg N - deg D + 1) and its
construction without a second check are compared.

The refusal of a series whose tail is not a period-d quasi-polynomial divides
every cyclotomic factor Phi_m (m | d) out of the denominator.  The oracle
builds each Phi_m as a Moebius product of power series and divides it out by
integer long division, and tests the stripped denominator against N by its
own exact division, against which the library's one exact division, by
integer series expansion, and its Phi_m built as quotients are compared.

``fraction_limit_estimate`` adds one ``faulhaber_sum`` Fraction per residue
to a Fraction total, against which the integer sum of the Newton tables read
off the core values is compared.

The input readers and the series parser keep their first form, and stay here
for the exact error texts they pin.  A JSON array is read entry by entry,
each at its own path ``field[i]``, each coefficient as one Fraction and each
polynomial through the validating constructor, against which the one-pass
readers, which name a path only to refuse an entry, are compared.  The tail's
sign certificate is read off its polynomials, a ray down through
``reflect()``, against which the certificate read off the core's values is
compared.  The series parser makes a frozen dataclass per token and folds
every operator into a normalized RationalFunction, against which the fold on
(numerator, denominator) pairs, normalized once, is compared.
"""

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, isqrt, prod

from qmult.differences import delta
from qmult.exact import NotExpandableError, Polynomial, RationalFunction, nonnegative_on_ray, parse_rational
from qmult.koszul import KoszulChain, KoszulError
from qmult.lengths import (
    FitError,
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    _check_period,
    _got,
    _json_int,
    _json_list,
    _json_object,
    _one_of,
    _shown,
    core_window,
)
from qmult.multiplicity import (
    MultiplicityError,
    WindowResult,
    herbrand,
    multiplicity_neg,
    multiplicity_pos,
)
from qmult.series import MAX_NESTING, SeriesSemanticError, SeriesSyntaxError

from exact_oracles import (
    compose_linear,
    divide_out_root,
    exact_quotient,
    forward_difference,
    horner,
    newton_interpolate,
    poly_add,
    poly_mul,
    poly_pow,
    power_series,
)


def cauchy_horizon(p):
    """An integer beyond every real root of a nonconstant p, in absolute value.

    Cauchy's bound puts all real roots in |m| <= 1 + max |c_k / lead|; the
    horizon is its integer part plus one.  The ratios are those of the integer
    numerators, so the horizon is max |n_k| // |n_lead| + 2.
    """
    if p.degree < 1:
        raise ValueError("the Cauchy bound needs a nonconstant polynomial")
    *rest, lead = p.numerators
    return max(abs(c) for c in rest) // abs(lead) + 2


def scan_oracle(p, start, direction):
    """Brute force: evaluate p at every integer from start out to one past the
    Cauchy bound, beyond which p keeps the sign it has there."""
    if p.is_zero():
        return None
    deg, lead = p.degree, p.coeffs[-1]
    if deg == 0:
        return None if lead > 0 else start
    horizon = int(1 + max(abs(c / lead) for c in p.coeffs[:-1])) + 1
    m = start
    while direction * m <= max(direction * start, horizon + 1):
        if p(m) < 0:
            return m
        m += direction
    return None


def format_rational(q):
    """"p/q", or "p" when the denominator is 1, read off Fraction(q)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def polynomial_text(g):
    """``str(g)`` read off the Fraction coefficients, from the top degree down:
    a coefficient of magnitude 1 is left out before a power of t."""
    coeffs = g.coeffs
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if parts:
            sign = " - " if c < 0 else " + "
        else:
            sign = "-" if c < 0 else ""
        mag = abs(c)
        if k == 0:
            body = format_rational(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{format_rational(mag)}*{var}"
        parts.append(sign + body)
    return "".join(parts)


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
            raise FitError(f"residue class {i} has only {len(blocks)} samples")
        fitted = None
        best = -1
        r = 0
        while r + 1 + (r + 2) <= len(blocks):
            best = r
            top = blocks[len(blocks) - (r + 1) :]
            candidate = newton_interpolate(top)
            check = blocks[len(blocks) - (r + 1) - (r + 2) : len(blocks) - (r + 1)]
            if all(horner(candidate, m) == v for m, v in check):
                fitted = Polynomial(candidate)
                break
            r += 1
        if fitted is None:
            raise FitError(
                f"no polynomial stabilization in residue class {i} "
                f"(tried degrees up to {best})"
            )
        polys.append(fitted)
    return QuasiPolynomial(d, tuple(polys), boundary(polys, samples.__getitem__, lo, hi))


def boundary(polys, value, lo, hi):
    """The lowest n >= lo from which the quasi-polynomial of ``polys``,
    evaluated by Horner's rule, agrees with ``value`` on all of [n, hi]: one
    scan down from hi."""
    d = len(polys)
    for n in range(hi, lo - 1, -1):
        if horner(polys[n % d].coeffs, n // d) != Fraction(value(n)):
            return n + 1
    return lo


def faulhaber_sum(g, N, n):
    """sum_{i=N}^{n} g(i) as G(n) - G(N - 1), where G(n) = sum_{i=0}^{n} g(i) is
    built from the Newton coefficients of g: sum_{i=0}^{n} C(i,k) = C(n+1, k+1)."""
    G, p, k = [], g.coeffs, 0
    term = [Fraction(1), Fraction(1)]  # C(t + 1, k + 1)
    while p:
        G = poly_add(G, poly_mul(term, [p[0]]))
        term = poly_mul(term, [Fraction(-k, k + 2), Fraction(1, k + 2)])
        p, k = forward_difference(p), k + 1
    return horner(G, n) - horner(G, N - 1)


def stabilized_constant(profile, s):
    """D^{s-1} of a residue profile by s - 1 unit forward differences; None when
    the result is not a constant."""
    coeffs = profile.coeffs
    for _ in range(s - 1):
        coeffs = forward_difference(coeffs)
    if len(coeffs) > 1:
        return None
    return horner(coeffs, 0)


def residue_profiles(polys):
    """Eventual block polynomials of the Herbrand difference, by the direct formula.

    For n = d*m + j in the tail region, h(n) equals
    sum_{k >= j} (-1)^k g_k(m) + sum_{k < j} (-1)^k g_k(m+1)
    as a polynomial in m: the k < j summands spill into the next block.
    """
    spilled = [compose_linear(g.coeffs, 1, 1) for g in polys]
    profiles = []
    for j in range(len(polys)):
        acc = []
        for k, g in enumerate(polys):
            acc = poly_add(acc, g.coeffs if k >= j else spilled[k], (-1) ** k)
        profiles.append(Polynomial(acc))
    return profiles


def stabilized_report(lf, s, floor):
    """The positive-side (e_delta, e_coeff, stabilization index) as first
    written: the Fraction sum of the degree s-1 coefficients, checked to be an
    integer, and the scan down from v + 3d - 1 that takes one closed-form
    difference ``delta`` of ``herbrand`` per degree."""
    qp = lf.pos_tail
    d, v = lf.d, qp.valid_from
    alternating = sum(
        ((-1) ** i * p.coefficient(s - 1) for i, p in enumerate(qp.polys)), Fraction(0)
    )
    x = factorial(s - 1) * alternating
    if x.denominator != 1:
        raise ModelError(f"stabilized difference is {x}, not an integer")
    e_delta = int(x)
    n = v + 3 * d - 1
    while n >= floor and (got := delta(lambda m: herbrand(lf, m), s - 1, d, n)) == e_delta:
        n -= 1
    if n >= v:
        raise ModelError(f"numeric stabilization check failed at n={n}: {got} != {e_delta}")
    return e_delta, d ** (s - 1) * e_delta, n + 1


def check_tail(lf, qp, side):
    """Validate the "pos" or "neg" tail of lf, one branch per side."""
    if qp is None:
        return
    if qp.d != lf.d:
        raise ModelError(f"{side} tail period {qp.d} != function period {lf.d}")
    need = lf.d * (qp.max_degree + 2)
    if side == "pos":
        lo, hi = qp.valid_from, lf.core_end
        if not (lf.core_start <= qp.valid_from <= lf.core_end - need):
            raise ModelError(
                f"pos tail must overlap the core on {qp.max_degree + 2} blocks per "
                f"residue: need valid_from in [{lf.core_start}, {lf.core_end - need}], "
                f"got {qp.valid_from}"
            )
    else:
        lo, hi = lf.core_start, qp.valid_from
        if not (lf.core_start + need <= qp.valid_from <= lf.core_end):
            raise ModelError(
                f"neg tail must overlap the core on {qp.max_degree + 2} blocks per "
                f"residue: need valid_to in [{lf.core_start + need}, {lf.core_end}], "
                f"got {qp.valid_from}"
            )
    for n in range(lo, hi + 1):
        expected = lf.core_values[n - lf.core_start]
        if qp(n) != expected:
            raise ModelError(
                f"{side} tail disagrees with the core at n={n}: "
                f"tail gives {qp(n)}, core holds {expected}"
            )
    for i, p in enumerate(qp.polys):
        if side == "pos":
            m0 = -((qp.valid_from - i) // -lf.d)  # ceil division
            bad = nonnegative_on_ray(p, m0)
        else:
            m0 = (qp.valid_from - i) // lf.d
            # The ray of blocks <= m0 is the ray of p(-t) from -m0, read back.
            bad = nonnegative_on_ray(Polynomial(compose_linear(p.coeffs, -1, 0)), -m0)
            bad = None if bad is None else -bad
        if bad is not None:
            raise ModelError(
                f"{side} tail polynomial for residue {i} goes negative at block {bad} "
                f"(degree n={lf.d * bad + i})"
            )


def add(a, b):
    """a + b with one hand-written tail combination per side, on a core window
    widened for every tail that is not all zero, through the validating
    constructor."""
    if a.d != b.d:
        raise ModelError(f"cannot add length functions with periods {a.d} and {b.d}")

    def combine(x, y, other_end, side):
        if x is None and y is None:
            return None
        if x is not None and y is not None:
            polys = tuple(Polynomial(poly_add(px.coeffs, py.coeffs)) for px, py in zip(x.polys, y.polys))
            anchor = (
                max(x.valid_from, y.valid_from) if side == "pos" else min(x.valid_from, y.valid_from)
            )
            return QuasiPolynomial(a.d, polys, anchor)
        qp = x if x is not None else y
        # The vanishing side contributes nothing beyond its own core.
        anchor = (
            max(qp.valid_from, other_end + 1) if side == "pos" else min(qp.valid_from, other_end - 1)
        )
        return QuasiPolynomial(a.d, qp.polys, anchor)

    pos = combine(
        a.pos_tail, b.pos_tail, b.core_end if a.pos_tail is not None else a.core_end, "pos"
    )
    neg = combine(
        a.neg_tail, b.neg_tail, b.core_start if a.neg_tail is not None else a.core_start, "neg"
    )
    lo, hi = min(a.core_start, b.core_start), max(a.core_end, b.core_end)
    if pos is not None and not pos.is_zero():
        hi = max(hi, pos.valid_from + a.d * (pos.max_degree + 2))
        lo = min(lo, pos.valid_from)
    if neg is not None and not neg.is_zero():
        lo = min(lo, neg.valid_from - a.d * (neg.max_degree + 2))
        hi = max(hi, neg.valid_from)
    values = tuple(a(n) + b(n) for n in range(lo, hi + 1))
    return LengthFunction(a.d, lo, values, pos, neg)


def reduced_tail(qp, regime, side):
    """The tail of one Koszul step, or None where it vanishes: each g_i goes
    to its forward difference by Horner composition; in the negative regime
    that step is negated and shifted by one degree, so residue i takes
    residue i + 1's polynomial and residue d - 1 takes residue 0's, one block
    on."""
    if qp is None:
        return None
    d = qp.d
    step = [forward_difference(p.coeffs) for p in qp.polys]
    anchor = qp.valid_from if side == "pos" else qp.valid_from - d
    if regime == "negative":
        negated = [poly_add([], p, -1) for p in step]
        step = negated[1:] + [compose_linear(negated[0], 1, 1)]
        anchor -= 1
    if not any(step):
        return None
    return QuasiPolynomial(d, tuple(map(Polynomial, step)), anchor)


def shift_tail(qp, k):
    """The translate n -> qp(n + k), anchored at valid_from - k: residue i
    takes residue r's polynomial at t + q, for (q, r) = divmod(i + k, d)."""
    polys = []
    for i in range(qp.d):
        q, r = divmod(i + k, qp.d)
        polys.append(Polynomial(compose_linear(qp.polys[r].coeffs, 1, q)))
    return QuasiPolynomial(qp.d, tuple(polys), qp.valid_from - k)


def reflect_tail(qp):
    """The reversal n -> qp(-n), anchored at -valid_from: residue 0 takes its
    own polynomial at -t, and residue i > 0 residue d - i's at -t - 1."""
    polys = [Polynomial(compose_linear(qp.polys[0].coeffs, -1, 0))]
    for i in range(1, qp.d):
        polys.append(Polynomial(compose_linear(qp.polys[qp.d - i].coeffs, -1, -1)))
    return QuasiPolynomial(qp.d, tuple(polys), -qp.valid_from)


def shift_function(lf, k):
    """The translate n -> lf(n + k), through the validating constructor."""
    tails = (lf.pos_tail, lf.neg_tail)
    pos, neg = (None if qp is None else shift_tail(qp, k) for qp in tails)
    return LengthFunction(lf.d, lf.core_start - k, lf.core_values, pos, neg)


def reflect_function(lf):
    """The reversal n -> lf(-n), the tails swapped, through the validating
    constructor."""
    pos, neg = (None if qp is None else reflect_tail(qp) for qp in (lf.neg_tail, lf.pos_tail))
    return LengthFunction(lf.d, -lf.core_end, tuple(reversed(lf.core_values)), pos, neg)


def reindexed(x, sign, b):
    """n -> x(sign * n + b) for a quasi-polynomial or a length function x: the
    shift by b, or the reflection shifted by -b when sign = -1."""
    shift, reflect = (
        (shift_tail, reflect_tail) if isinstance(x, QuasiPolynomial)
        else (shift_function, reflect_function)
    )
    return shift(x, b) if sign == 1 else shift(reflect(x), -b)


def koszul_reduce(lf, regime="positive"):
    """One Koszul step: the reduced core scanned on its window, then each
    reduced tail certified residue by residue on the ray past the window."""
    if regime not in ("positive", "negative"):
        raise ValueError("regime must be 'positive' or 'negative'")
    d = lf.d
    ahead, behind = (d, 0) if regime == "positive" else (1, d + 1)
    pos = reduced_tail(lf.pos_tail, regime, "pos")
    neg = reduced_tail(lf.neg_tail, regime, "neg")
    lo, hi = core_window(d, lf.core_start - (d + 1), lf.core_end + (d + 1), pos, neg)
    values = tuple(lf(n + ahead) - lf(n + behind) for n in range(lo, hi + 1))
    violations = [lo + k for k, v in enumerate(values) if v < 0]
    for qp, direction in ((pos, 1), (neg, -1)):
        if qp is None:
            continue
        anchor = hi + 1 if direction == 1 else lo - 1
        for i, p in enumerate(qp.polys):
            if direction == 1:
                m0 = -((anchor - i) // -d)  # ceil division
                bad = nonnegative_on_ray(p, m0)
            else:
                m0 = (anchor - i) // d
                bad = nonnegative_on_ray(Polynomial(compose_linear(p.coeffs, -1, 0)), -m0)
                bad = None if bad is None else -bad
            if bad is not None:
                violations.append(d * bad + i)
    if violations:
        word = "injective" if regime == "positive" else "surjective"
        raise KoszulError(
            f"not eventually {word} in model: reduction goes negative at "
            f"n in {sorted(violations)[:8]}",
            violations=tuple(sorted(violations)),
        )
    return LengthFunction._unchecked(d, lo, values, pos, neg)


def koszul_chain(lf, s, regime="positive"):
    """s steps of ``koszul_reduce`` in the regime, the multiplicity of each
    function by ``multiplicity_pos`` or ``multiplicity_neg`` as the regime's
    side, and the chain's checks: s at or above the complexity, a vanishing
    opposite tail, complexity 0 at the end and a constant invariant."""
    mult = multiplicity_pos if regime == "positive" else multiplicity_neg
    if s < lf.complexity(regime):
        raise MultiplicityError(f"s={s} is below the {regime} complexity {lf.complexity(regime)}")
    if lf.tail("negative" if regime == "positive" else "positive") is not None:
        raise MultiplicityError(f"a {regime} chain needs the opposite tail of the base to vanish")
    functions = [lf]
    values = [mult(lf, s).e_delta]
    for k in range(s):
        functions.append(koszul_reduce(functions[-1], regime))
        values.append(mult(functions[-1], s - k - 1).e_delta)
    if functions[-1].complexity(regime) != 0:
        raise ModelError("chain did not reach complexity 0")
    signs = [1 if regime == "positive" else (-1) ** k for k in range(s + 1)]
    if len({sign * v for sign, v in zip(signs, values)}) > 1:
        raise ModelError(f"chain multiplicities broke the reduction identity: {values}")
    return KoszulChain(regime, s, tuple(functions), tuple(values))


def vanishing_window_check(lf, m0, parity):
    """The vanishing-window check by scanning every degree up to past the
    Cauchy horizon of the tail polynomials, where no zero of a tail lies."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    s = lf.complexity("positive")
    top = multiplicity_pos(lf, s).e_delta
    if top != 0:
        raise MultiplicityError(f"vanishing check needs e^s = 0, got {top}")

    qp = lf.pos_tail
    horizon = 0
    if qp is not None:
        for p in qp.polys:
            if p.degree >= 1:
                horizon = max(horizon, cauchy_horizon(p))
        scan_end = max(m0, lf.core_end, qp.valid_from + lf.d * (horizon + 2)) + 2 * lf.d
    else:
        scan_end = max(m0, lf.core_end) + 2 * lf.d

    want = 0 if parity == "even" else 1
    start = m0 if m0 % 2 == want % 2 else m0 + 1
    run_at = None
    for n in range(start, scan_end + 1, 2):
        if all(lf(n + 2 * j) == 0 for j in range(lf.d // 2)):
            run_at = n
            break
    if run_at is None:
        return WindowResult("window_not_found")

    for k in range(m0, scan_end + 2 * lf.d + 1):
        if lf(k) != 0:
            return WindowResult("violated", window_start=run_at, violation=k)
    if qp is not None:
        # A nonzero tail polynomial would have produced a nonzero value
        # strictly inside the scanned range.
        raise ModelError("tail scan inconsistent with zero values")
    return WindowResult("confirmed", window_start=run_at)


def first_run(tail, start, want, last=None):
    """``multiplicity._first_run`` by a scan: on each residue i of parity
    ``want``, the run sum less one as a polynomial in the block m,
    sum_{j<d/2} tail(dm + i + 2j) - 1, evaluated at every block from the
    first of its degrees at or above start out past its Cauchy horizon
    (:func:`scan_oracle`); the first degree found, if it is <= last."""
    d, polys = tail.d, tail.polys
    runs = []
    for i in range(want, d, 2):
        total = [-1]
        for j in range(d // 2):
            q, r = divmod(i + 2 * j, d)
            total = poly_add(total, compose_linear(polys[r].coeffs, 1, q))
        bad = scan_oracle(Polynomial(total), -((i - start) // d), 1)
        if bad is not None and (last is None or d * bad + i <= last):
            runs.append(d * bad + i)
    return min(runs, default=None)


def strip_cyclotomic(q, d):
    """The integer polynomial q, constant term first and with q(1) != 0, with
    every factor Phi_m (m | d) divided out, each Phi_m built as the power
    series prod (1 - t^(m/e))^mu(e) over the squarefree e | m up to degree
    phi(m) and divided out by integer long division."""
    primes = prime_factors(d)
    small = [m for m in range(2, isqrt(d) + 1) if d % m == 0]
    for m in sorted({*small, *(d // m for m in small), d}):
        ps = [p for p in primes if m % p == 0]
        phi = m
        for p in ps:
            phi = phi // p * (p - 1)
        if phi >= len(q):
            continue
        cyclotomic = [1] + [0] * phi
        for r in range(len(ps) + 1):
            for e in combinations(ps, r):
                a = m // prod(e)
                if r % 2 == 0:  # times 1 - t^a
                    for i in range(phi, a - 1, -1):
                        cyclotomic[i] -= cyclotomic[i - a]
                else:  # times 1 / (1 - t^a)
                    for i in range(a, phi + 1):
                        cyclotomic[i] += cyclotomic[i - a]
        while (quotient := divide_monic(q, cyclotomic)) is not None:
            q = quotient
    return q


def prime_factors(n):
    """The distinct primes dividing n >= 1, by trial division up to sqrt(n)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def divide_monic(a, b):
    """a / b when the monic b divides the integer polynomial a (both constant
    term first), else None, by integer long division."""
    n = len(b) - 1
    if len(a) <= n:
        return None
    rest, quotient = list(a), [0] * (len(a) - n)
    for i in range(len(a) - 1 - n, -1, -1):
        c = quotient[i] = rest[i + n]
        if c:
            for j in range(n + 1):
                rest[i + j] -= c * b[j]
    return None if any(rest[:n]) else tuple(quotient)


def from_series(f, d, probe):
    """The series model as first written: the Fraction recurrence, a length
    check on each Fraction (as far as the library's certificate reads, to
    start + deg D + dk - 1), P = N(1 - t^d)^k / D decided by ``exact_quotient``,
    the refusal classified by ``strip_cyclotomic`` on D's part prime to t - 1,
    each residue's tail interpolated through k blocks past deg N - deg D,
    ``valid_from`` found by the full ``boundary`` scan of the expanded degrees,
    and the model checked again by the validating constructor."""
    _check_period(d)
    if probe < 0:
        raise ModelError(f"probe must be >= 0, got {probe}")
    num, den = f.num.coeffs, f.den.coeffs
    q, k = divide_out_root(list(den), 1)
    start = max(0, f.num.degree - f.den.degree + 1)
    values = []
    n_max = max(probe, start + d * (k + 1), start + f.den.degree + d * k - 1)
    for n, c in enumerate(power_series(num, den, n_max)):
        if c.denominator != 1 or c < 0:
            raise ModelError(f"series coefficient at n={n} is {_shown(c)}; not a length")
        values.append(int(c))
    one_minus_td = [1] + [0] * (d - 1) + [-1]
    if exact_quotient(poly_mul(num, poly_pow(one_minus_td, k)), den) is None:
        stripped = strip_cyclotomic(Polynomial(tuple(q)).numerators, d)
        if exact_quotient(num, stripped) is not None:
            raise ModelError(
                "series coefficients eventually go negative: "
                "a pole at a d-th root of unity other than 1 outranks the pole at t = 1"
            )
        raise ModelError(
            f"not eventually a period-{d} quasi-polynomial: "
            "its poles are not all d-th roots of unity"
        )
    m = -(-start // d)
    polys = tuple(
        Polynomial(newton_interpolate([(m + j, values[d * (m + j) + i]) for j in range(k)]))
        for i in range(d)
    )
    qp = QuasiPolynomial(d, polys, boundary(polys, values.__getitem__, 0, len(values) - 1))
    return LengthFunction.from_values(d, values.__getitem__, 0, probe, qp, None)


def fraction_limit_estimate(lf, s, n, constant="paper"):
    """``multiplicity.limit_estimate`` as first written: a Fraction total, one
    ``faulhaber_sum`` Fraction added per residue, and the factor and n^s
    applied as Fractions."""
    if s < 1:
        raise MultiplicityError("limit estimates need s >= 1")
    if n < 1:
        raise MultiplicityError("limit estimates need n >= 1")
    if constant == "paper":
        factor = Fraction(factorial(s) * lf.d ** (2 * s - 1))
    elif constant == "corrected":
        factor = Fraction(factorial(s) * lf.d**s)
    else:
        raise ValueError(f"unknown constant {constant!r}")
    direct = lf.values(0, min(n, lf.core_end))
    total = Fraction(sum(direct[::2]) - sum(direct[1::2]))
    qp = lf.pos_tail
    if n > lf.core_end and qp is not None:
        start = max(lf.core_end + 1, 0)
        for i, g in enumerate(qp.polys):
            if g.is_zero():
                continue
            m_lo = -((start - i) // -lf.d)
            m_hi = (n - i) // lf.d
            if m_hi >= m_lo:
                total += (-1) ** i * faulhaber_sum(g, m_lo, m_hi)
    return factor * total / Fraction(n) ** s


def array_of(parse, nonempty=False):
    """The JSON array reader as first written: each entry read at its path
    ``field[i]``, formatted for every entry.  Kept for the error texts it
    pins, which name each refused entry by that path."""

    def parse_array(value, field):
        if nonempty and value == []:
            raise ModelError(f"{field} must be a nonempty array")
        return [parse(v, f"{field}[{i}]") for i, v in enumerate(_json_list(value, field))]

    return parse_array


def json_rational(value, field):
    """One Fraction per entry.  An int is read as the integer it is; the first
    form wrote it out with ``str`` first, which fails past the interpreter's
    limit on decimal digits."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(f'{field} must be an integer or a "p/q" string, got {_got(value)}')
    if isinstance(value, int):
        return Fraction(value)
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"{field} is not a rational: {_got(value)}") from None


def json_poly(value, field):
    return Polynomial(array_of(json_rational)(value, field))


def json_tail(value, field, anchor):
    kind = value.get("kind") if isinstance(value, dict) else None
    parsers = {"kind": _one_of("vanishing", "quasipoly")}
    if kind != "vanishing":
        parsers.update({"polys": array_of(json_poly), anchor: _json_int})
    tail = _json_object(value, field, parsers, parsers if kind == "quasipoly" else ("kind",))
    return None if tail["kind"] == "vanishing" else (tuple(tail["polys"]), tail[anchor])


def from_json_dict(data):
    """``LengthFunction.from_json_dict`` with the readers above: every entry
    parsed on its own, at its own path, and validated by the constructor.  A d
    past the interpreter's digit limit is written by ``_shown``, as the
    library writes it; the first form raised a bare ValueError there.  Kept
    for the exact error text of every refused file."""
    core = {"start": _json_int, "values": array_of(_json_int)}
    parsers = {
        "d": _json_int,
        "core": lambda value, field: _json_object(value, field, core, core),
        "pos_tail": lambda value, field: json_tail(value, field, "valid_from"),
        "neg_tail": lambda value, field: json_tail(value, field, "valid_to"),
    }
    lf = _json_object(data, "", parsers, parsers, what="length function")
    d = lf["d"]
    _check_period(d)
    for side in ("pos_tail", "neg_tail"):
        count = None if lf[side] is None else len(lf[side][0])
        if count not in (None, d):
            raise ModelError(f"{side}.polys must hold d = {_shown(d)} polynomials, got {count}")
    pos, neg = (
        None if tail is None else QuasiPolynomial(d, *tail) for tail in (lf["pos_tail"], lf["neg_tail"])
    )
    return LengthFunction(d, lf["core"]["start"], tuple(lf["core"]["values"]), pos, neg)


def check_sign(qp, side):
    """The tail's sign certificate as first written, from its polynomials: a
    ray down is the ray up of ``qp.reflect()``, its witnesses negated, and
    the refusal names the lowest residue, not the first one met."""
    sign, up = (1, qp) if side == "pos" else (-1, qp.reflect())
    witnesses = (sign * n for n in up.negative_degrees(up.valid_from))
    bad = min(witnesses, key=lambda n: n % qp.d, default=None)
    if bad is not None:
        raise ModelError(
            f"{side} tail polynomial for residue {bad % qp.d} goes negative at block "
            f"{bad // qp.d} (degree n={bad})"
        )


# The series parser as first written: a frozen dataclass per token, and a fold
# into a normalized RationalFunction at every operator.

_TOKEN_NAMES = {c: f"'{c}'" for c in "+-*/^()"}


@dataclass(frozen=True)
class Token:
    kind: str
    offset: int
    value: int = 0
    end: int = -1

    @property
    def display(self):
        if self.kind == "int":
            return f"integer {self.value}"
        if self.kind == "eof":
            return "end of input"
        return _TOKEN_NAMES.get(self.kind, repr(self.kind))


def tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if not ch.isascii():
            raise SeriesSyntaxError(i, repr(ch), ("ASCII input",))
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise SeriesSyntaxError(
                    i,
                    f"an integer of {j - i} digits",
                    (f"an integer of at most {sys.get_int_max_str_digits()} digits",),
                ) from None
            tokens.append(Token("int", i, value, j))
            i = j
            continue
        if ch == "t" or ch in _TOKEN_NAMES:
            tokens.append(Token(ch, i, 0, i + 1))
            i += 1
            continue
        raise SeriesSyntaxError(i, repr(ch), ("integer", "'t'", "operator", "'('", "')'"))
    tokens.append(Token("eof", len(text), 0, len(text)))
    return tokens


class SeriesParser:
    def __init__(self, text, tokens, fold):
        self.text, self.tokens, self.fold = text, tokens, fold
        self.pos = self.depth = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def fail(self, expected):
        return SeriesSyntaxError(self.current.offset, self.current.display, expected)

    def eat(self, kind):
        tok = self.current
        if tok.kind != kind:
            raise self.fail((_TOKEN_NAMES.get(kind, kind),))
        self.pos += 1
        return tok

    def apply(self, op, *operands):
        return op(*operands) if self.fold else None

    def nested(self, parse, tok):
        if self.depth == MAX_NESTING:
            expected = f"at most {MAX_NESTING} nested parentheses and unary minus signs"
            raise SeriesSyntaxError(tok.offset, "an expression nested too deeply", (expected,))
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        if self.current.kind != "eof":
            raise self.fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return value

    def expr(self):
        value = self.term()
        while self.current.kind in ("+", "-"):
            op = operator.add if self.eat(self.current.kind).kind == "+" else operator.sub
            value = self.apply(op, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while self.current.kind in ("*", "/"):
            op = operator.mul if self.eat(self.current.kind).kind == "*" else operator.truediv
            start = self.current.offset
            try:
                value = self.apply(op, value, self.unary())
            except NotExpandableError:
                end = self.tokens[self.pos - 1].end
                raise SeriesSemanticError(
                    "denominator has zero constant term", start, end, self.text[start:end]
                ) from None
        return value

    def unary(self):
        if self.current.kind == "-":
            tok = self.eat("-")
            return self.apply(operator.neg, self.nested(self.unary, tok))
        return self.power()

    def power(self):
        value = self.atom()
        while self.current.kind == "^":
            self.eat("^")
            if self.current.kind != "int":
                raise self.fail(("nonnegative integer exponent",))
            value = self.apply(operator.pow, value, self.eat("int").value)
        return value

    def atom(self):
        tok = self.current
        if tok.kind in ("int", "t"):
            self.eat(tok.kind)
            p = Polynomial((0, 1) if tok.kind == "t" else (tok.value,))
            return self.apply(RationalFunction.from_polynomial, p)
        if tok.kind == "(":
            self.eat("(")
            value = self.nested(self.expr, tok)
            self.eat(")")
            return value
        raise self.fail(("integer", "'t'", "'-'", "'('"))


def parse_series(text):
    """``series.parse_series`` as first written: the syntax checked by one
    pass, then every operator folded into a normalized RationalFunction.  Kept
    for the exact syntax and semantic error texts, offsets included."""
    tokens = tokenize(text)
    SeriesParser(text, tokens, fold=False).parse()
    return SeriesParser(text, tokens, fold=True).parse()
