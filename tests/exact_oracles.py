"""Slow, obvious oracles that import nothing from qmult.

They read plain integers, Fractions, functions and coefficient lists
(constant term first), so they share no code with the library they check and
import with qmult absent.

The closed-form difference operators: the recursive oracles unfold the
operator's defining recursion literally, which costs 2^s evaluations; the
binomial ones evaluate the closed forms with a fresh ``math.comb`` for every
term.  The library evaluates the closed forms with one running row of
binomials instead.

The multiplicities of a Hilbert series f are also read off its poles, with no
expansion and no tail: the complexity is the order of f's pole at t = 1, and
for s >= cx the delta multiplicity is d^s times the value of (1 + t)^s f(t)
at t = -1, which is 0 when the pole at -1 has order below s.  This is the
paper's reading of the multiplicity as a leading coefficient of the Hilbert
quasi-polynomials, through f(-t) = sum (-1)^n lambda(n) t^n.

Polynomial arithmetic is written from its definitions, on lists of Fractions
(or integers), constant term first, with no trailing zeros in what a routine
returns: sums and products by the schoolbook loops, a power as n products,
composition with a t + b by Horner's rule, the forward difference g(t + 1) -
g(t), Newton interpolation through consecutive integer abscissas in the basis
C(t - m0, k), the power series of num / den by q_0 c_n = p_n - sum q_k
c_{n-k} over the nonzero q_k, the exact quotient by that series multiplied
back, and a coefficient of P(t) / (1 + t)^c as one binomial sum.  The
differential tests check the library's kernels, and the oracles of
``kernel_oracles`` that build whole library objects, on these.
"""

from fractions import Fraction
from math import comb


def delta_recursive(f, s, d, n):
    """D^s f(n) by D^s = D(D^{s-1}), with D f(n) = f(n+d) - f(n)."""
    if s == 0:
        return Fraction(f(n))
    return delta_recursive(f, s - 1, d, n + d) - delta_recursive(f, s - 1, d, n)


def delta_neg_recursive(f, s, d, n):
    """D-^s f(n) by D-^s = D-(D-^{s-1}), with D- f(n) = f(n+1) - f(n+d+1)."""
    if s == 0:
        return Fraction(f(n))
    return delta_neg_recursive(f, s - 1, d, n + 1) - delta_neg_recursive(f, s - 1, d, n + d + 1)


def delta_binomial(f, s, d, n):
    """D^s f(n) = sum_i (-1)^i C(s,i) f(n + (s-i)d), one comb per term."""
    return Fraction(sum((-1) ** i * comb(s, i) * f(n + (s - i) * d) for i in range(s + 1)))


def delta_neg_binomial(f, s, d, n):
    """D-^s f(n) = sum_i (-1)^i C(s,i) f(n + d*i + s), one comb per term."""
    return Fraction(sum((-1) ** i * comb(s, i) * f(n + d * i + s) for i in range(s + 1)))


def brute_stabilized_delta(values, d, s):
    """Independent oracle: stabilized D^{s-1} h from raw coefficients alone.

    Works on a plain list of lambda(0..N) with no tail or quasi-polynomial
    machinery involved: builds h pointwise, applies the closed-form
    difference, and insists the result is constant across a window before
    returning it.
    """

    def h(n):
        return sum((1 if (n + i) % 2 == 0 else -1) * values[n + i] for i in range(d))

    def diff(n):
        return sum((-1) ** i * comb(s - 1, i) * h(n + (s - 1 - i) * d) for i in range(s))

    reach = (s - 1) * d + d
    window = [diff(n) for n in range(len(values) - reach - 3 * d, len(values) - reach)]
    assert len(set(window)) == 1, f"no stabilization: {window}"
    return window[0]


def horner(coeffs, x):
    """p(x) by Horner's rule on p's coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divide_out_root(coeffs, root):
    """(q, m): the Fraction coefficients of p / (t - root)^m, with m the
    order of p's zero at root, by repeated synthetic division."""
    m = 0
    while any(coeffs) and horner(coeffs, root) == 0:
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs[1:]):
            acc = acc * root + c
            quotient.append(acc)
        coeffs, m = quotient[::-1], m + 1
    return coeffs, m


def pole_order(num, den, root):
    """(order, num, den): the order of num / den's pole at root, negative
    at a zero, and num and den with their zeros at root divided out."""
    num, a = divide_out_root(list(num), root)
    den, b = divide_out_root(list(den), root)
    return b - a, num, den


def laurent_complexity(num, den):
    """cx of the series num / den: the order of its pole at t = 1 (0 where none)."""
    return max(pole_order(num, den, 1)[0], 0)


def laurent_e_delta(num, den, d, s):
    """e_delta(s) of the series f = num / den for s >= cx: d^s * [(1 + t)^s f(t)] at t = -1."""
    order, num, den = pole_order(num, den, -1)
    if order > s:
        raise ValueError(f"the pole at -1 has order {order} > s = {s}")
    if order < s:
        return 0
    return d**s * horner(num, -1) / horner(den, -1)


def trim(p):
    """p without its trailing zeros."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p, q, sign=1):
    """p + sign * q, coefficient by coefficient."""
    n = max(len(p), len(q))
    p, q = list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q))
    return trim(Fraction(a) + sign * b for a, b in zip(p, q))


def poly_mul(p, q):
    """p * q by the schoolbook double loop."""
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_pow(p, n):
    """p ** n as n successive products."""
    acc = [Fraction(1)]
    for _ in range(n):
        acc = poly_mul(acc, p)
    return acc


def compose_linear(p, a, b):
    """p(a*t + b) by Horner composition: one product by a*t + b per coefficient."""
    acc = []
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, [b, a]), [c])
    return acc


def forward_difference(p):
    """p(t + 1) - p(t)."""
    return poly_add(compose_linear(p, 1, 1), p, -1)


def newton_interpolate(points):
    """The polynomial through points (m0, v0), (m0 + 1, v1), ...: the sum of
    Delta^k v(m0) * C(t - m0, k), each C(t - m0, k + 1) built as C(t - m0, k)
    * (t - m0 - k) / (k + 1)."""
    row = [Fraction(v) for _, v in points]
    poly, basis = [], [Fraction(1)]
    for k, (m, _) in enumerate(points):
        poly = poly_add(poly, poly_mul(basis, [row[0]]))
        basis = poly_mul(basis, [Fraction(-m, k + 1), Fraction(1, k + 1)])
        row = [b - a for a, b in zip(row, row[1:])]
    return poly


def power_series(num, den, n_max):
    """c_0..c_n_max of num / den at t = 0, for den[0] != 0, by the recurrence
    q_0 c_n = p_n - sum_{k>=1} q_k c_{n-k} over the nonzero q_k."""
    terms = [(k, q) for k, q in enumerate(den) if k and q]
    out = []
    for n in range(n_max + 1):
        acc = Fraction(num[n]) if n < len(num) else Fraction(0)
        for k, q in terms:
            if k > n:
                break
            acc -= q * out[n - k]
        out.append(acc / den[0])
    return out


def exact_quotient(num, den):
    """num / den when it is a polynomial, else None, for den[0] != 0: the
    series of num / den up to degree len(num) - len(den), times den, gives num
    back exactly when den divides num."""
    num, den = trim(num), trim(den)
    quotient = trim(power_series(num, den, max(len(num) - len(den), 0)))
    return quotient if poly_mul(quotient, den) == num else None


def coefficient_over_one_plus_t(p, c, n):
    """[t^n] p(t) / (1 + t)^c for c >= 1, by the one binomial sum
    sum_i p_i (-1)^(n-i) C(n - i + c - 1, c - 1) over i <= n, from
    1 / (1 + t)^c = sum_j (-1)^j C(j + c - 1, c - 1) t^j."""
    return sum(a * (-1) ** (n - i) * comb(n - i + c - 1, c - 1) for i, a in enumerate(p) if i <= n)
