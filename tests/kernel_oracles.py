"""Slow, obvious oracles for the integer polynomial kernels and the tail checks.

Each is the plain Fraction computation that the integer kernels must match:
the text of a rational read off its Fraction, schoolbook sums and products
on the Fraction coefficients, the Fraction series recurrence, Horner
evaluation and Horner composition, Newton interpolation of every candidate
degree in the fit, the Faulhaber sum through the summation polynomial, and
the residue profiles of the Herbrand difference with repeated differences
for its stabilized constant.  Every polynomial sum
and product here is one of the schoolbook loops below, and every polynomial
is built by the validating ``Polynomial`` constructor, so they share no
arithmetic with the kernels they check.

The multiplicity certificate keeps its first form: the Fraction sum of
the degree s-1 tail coefficients, and a scan that takes the closed-form
difference of the Herbrand difference at one degree at a time, against which
the integer sum and the whole-list differences of h are compared.

The tail check and the sum of two length functions are kept in their
mirrored form, one hand-written branch per side, against which the single
side-parametrized code path is compared.  The Koszul step keeps the sign
certificate of its reduced tails written out inline, with its own ceiling and
floor ray starts from the window edges, against which the tail's one
certificate method is compared.  Both reflect a downward ray to the upward
ray of g(-t), through Horner composition.

The vanishing-window check keeps its scan of every degree up to the Cauchy
horizon of the tail polynomials, against which the run search by the
tail-sign certificate is compared.

The multiplicities of a Hilbert series f are also read off its poles, with no
expansion and no tail: the complexity is the order of f's pole at t = 1, and
for s >= cx the delta multiplicity is d^s times the value of (1 + t)^s f(t)
at t = -1, which is 0 when the pole at -1 has order below s.  This is the
paper's reading of the multiplicity as a leading coefficient of the Hilbert
quasi-polynomials, through f(-t) = sum (-1)^n lambda(n) t^n.

The certified series model is kept as it was first written: one Fraction
per expanded coefficient, P = N(1 - t^d)^k / D decided by an exact division
that expands a second series, and ``valid_from`` found by scanning every
expanded degree back down, against which the single integer expansion, its
tail certified by agreement with the values already expanded and its boundary
at max(0, deg N - deg D + 1) are compared.

The refusal of a series whose tail is not a period-d quasi-polynomial divides
every cyclotomic factor Phi_m (m | d) out of the denominator.  The oracle
builds each Phi_m as a Moebius product of power series and divides it out by
integer long division, against which the library's one exact division, by
series expansion, and its Phi_m built as quotients are compared.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, isqrt, prod

from qmult.differences import delta
from qmult.exact import Polynomial, cauchy_horizon, nonnegative_on_ray
from qmult.koszul import KoszulError, _reduced_tail
from qmult.lengths import (
    FitError,
    LengthFunction,
    ModelError,
    QuasiPolynomial,
    _anchored,
    _check_period,
    _quotient,
    _shown,
    _strip_cyclotomic,
    core_window,
)
from qmult.multiplicity import MultiplicityError, WindowResult, herbrand, multiplicity_pos


def const(c):
    return Polynomial((Fraction(c),))


def format_rational(q):
    """"p/q", or "p" when the denominator is 1, read off Fraction(q)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_sum(g, h, sign=1):
    """g + sign * h, coefficient by coefficient on Fractions."""
    n = max(len(g.coeffs), len(h.coeffs))
    a = list(g.coeffs) + [Fraction(0)] * (n - len(g.coeffs))
    b = list(h.coeffs) + [Fraction(0)] * (n - len(h.coeffs))
    return Polynomial(tuple(x + sign * y for x, y in zip(a, b)))


def fraction_product(g, h):
    """g * h by the schoolbook double loop on Fractions."""
    out = [Fraction(0)] * max(len(g.coeffs) + len(h.coeffs) - 1, 0)
    for i, a in enumerate(g.coeffs):
        for j, b in enumerate(h.coeffs):
            out[i + j] += a * b
    return Polynomial(tuple(out))


def fraction_power(g, n):
    """g ** n as n successive products."""
    acc = const(1)
    for _ in range(n):
        acc = fraction_product(acc, g)
    return acc


def fraction_series(num, den, n_max):
    """c_0..c_n_max of num/den at t = 0 by the Fraction recurrence
    q_0 c_n = p_n - sum_{k>=1} q_k c_{n-k}, for den(0) != 0."""
    p, q = num.coeffs, den.coeffs
    out = []
    for n in range(n_max + 1):
        acc = p[n] if n < len(p) else Fraction(0)
        for k in range(1, min(n, len(q) - 1) + 1):
            acc -= q[k] * out[n - k]
        out.append(acc / q[0])
    return out


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
        acc = fraction_sum(fraction_product(acc, arg), const(c))
    return acc


def forward_difference(g):
    """g(t + 1) - g(t)."""
    return fraction_sum(horner_compose_linear(g, 1, 1), g, -1)


def binomial_polynomial(k):
    """C(t, k) as the product t(t-1)...(t-k+1)/k!."""
    p = const(Fraction(1, factorial(k)))
    for j in range(k):
        p = fraction_product(p, Polynomial((Fraction(-j), Fraction(1))))
    return p


def newton_interpolate(points):
    """Interpolant through points with consecutive integer abscissas m0, m0+1, ..."""
    m0 = points[0][0]
    row = [Fraction(v) for _, v in points]
    poly = Polynomial()
    for k in range(len(points)):
        term = horner_compose_linear(binomial_polynomial(k), 1, -m0)
        poly = fraction_sum(poly, fraction_product(term, const(row[0])))
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
            raise FitError(f"residue class {i} has only {len(blocks)} samples")
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
                f"(tried degrees up to {best})"
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
        term = horner_compose_linear(binomial_polynomial(k + 1), 1, 1)
        G = fraction_sum(G, fraction_product(term, const(horner_eval(p, 0))))
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
    profiles = []
    for j in range(len(polys)):
        acc = Polynomial()
        for k, g in enumerate(polys):
            acc = fraction_sum(acc, g if k >= j else spilled[k], (-1) ** k)
        profiles.append(acc)
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
            bad = nonnegative_on_ray(horner_compose_linear(p, -1, 0), -m0)
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
            polys = tuple(fraction_sum(px, py) for px, py in zip(x.polys, y.polys))
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


def koszul_reduce(lf, regime="positive"):
    """One Koszul step: the reduced core scanned on its window, then each
    reduced tail certified residue by residue on the ray past the window."""
    if regime not in ("positive", "negative"):
        raise ValueError("regime must be 'positive' or 'negative'")
    d = lf.d
    ahead, behind = (d, 0) if regime == "positive" else (1, d + 1)
    pos = _reduced_tail(lf.pos_tail, regime, "pos")
    neg = _reduced_tail(lf.neg_tail, regime, "neg")
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
                bad = nonnegative_on_ray(horner_compose_linear(p, -1, 0), -m0)
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


def divide_out_root(coeffs, root):
    """(q, m): the Fraction coefficients of p / (t - root)^m, with m the
    order of p's zero at root, by repeated synthetic division."""
    m = 0
    while any(coeffs) and horner_eval(Polynomial(tuple(coeffs)), root) == 0:
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs[1:]):
            acc = acc * root + c
            quotient.append(acc)
        coeffs, m = quotient[::-1], m + 1
    return coeffs, m


def pole_order(f, root):
    """(order, num, den): the order of f = num / den's pole at root, negative
    at a zero of f, and num and den with their zeros at root divided out."""
    num, a = divide_out_root(list(f.num.coeffs), root)
    den, b = divide_out_root(list(f.den.coeffs), root)
    return b - a, num, den


def laurent_complexity(f):
    """cx of the series f: the order of its pole at t = 1 (0 where none)."""
    return max(pole_order(f, 1)[0], 0)


def laurent_e_delta(f, d, s):
    """e_delta(s) of the series f for s >= cx: d^s * [(1 + t)^s f(t)] at t = -1."""
    order, num, den = pole_order(f, -1)
    if order > s:
        raise ValueError(f"the pole at -1 has order {order} > s = {s}")
    if order < s:
        return 0
    return d**s * horner_eval(Polynomial(tuple(num)), -1) / horner_eval(Polynomial(tuple(den)), -1)


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
    start + deg D + dk - 1), P = N(1 - t^d)^k / D decided by ``_quotient``, the
    refusal classified by stripping D's Phi_m (m | d), each residue's tail
    interpolated through k blocks past deg N - deg D, and ``valid_from`` found
    by the full ``_anchored`` scan of the expanded degrees."""
    _check_period(d)
    if probe < 0:
        raise ModelError(f"probe must be >= 0, got {probe}")
    q, k = divide_out_root(list(f.den.coeffs), 1)
    start = max(0, f.num.degree - f.den.degree + 1)
    values = []
    n_max = max(probe, start + d * (k + 1), start + f.den.degree + d * k - 1)
    for n, c in enumerate(fraction_series(f.num, f.den, n_max)):
        if c.denominator != 1 or c < 0:
            raise ModelError(f"series coefficient at n={n} is {_shown(c)}; not a length")
        values.append(int(c))
    one_minus_td = Polynomial((1,) + (0,) * (d - 1) + (-1,))
    if _quotient(fraction_product(f.num, fraction_power(one_minus_td, k)), f.den) is None:
        if _quotient(f.num, _strip_cyclotomic(Polynomial(tuple(q)), d)) is not None:
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
        newton_interpolate([(m + j, values[d * (m + j) + i]) for j in range(k)])
        if k
        else Polynomial()
        for i in range(d)
    )
    qp = _anchored(d, polys, values.__getitem__, 0, len(values) - 1)
    return LengthFunction.from_values(d, values.__getitem__, 0, probe, qp, None)
