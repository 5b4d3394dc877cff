"""From a Hilbert series to Hilbert quasi-polynomials and complexity.

A length function is total on the integers: an explicit core window plus a
declared tail on each side, which is a QuasiPolynomial or None (vanishing).
Fitting a series produces the core from the expansion and detects the
eventual quasi-polynomial by Newton forward differences per residue class,
reporting the honest stabilization boundary.
"""

from qmult import from_series, parse_series

# The mod-2 cohomology ring of the symmetric group on 4 letters is
# F2[x,y,z]/(xz) with |x|=1, |y|=2, |z|=3, whose Hilbert series is
# (1-t^4)/((1-t)(1-t^2)(1-t^3)).  Regrade in degree 6 blocks:
lf = from_series(parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))"), d=6, probe=120)

print("first values :", [lf(n) for n in range(14)])
qp = lf.pos_tail  # a QuasiPolynomial: the tail toward +infinity
for i, g in enumerate(qp.polys):
    print(f"g_{i}(t) = {g}")
print("valid from n =", qp.valid_from)
print("complexity   =", lf.complexity("positive"))  # 1 + max degree = 2

# The quasi-polynomial really is the function: block-evaluate anywhere.
n = 97
print(f"lambda({n})  =", lf(n), "= g_1(16) since 97 = 6*16 + 1")

# A series that is secretly a polynomial has finite support and a vanishing
# tail (None); its complexity is 0.
spike = from_series(parse_series("t^3"), d=2, probe=10)
print("t^3 support  =", spike.support(), "cx =", spike.complexity("positive"))
print("t^3 tail     =", spike.pos_tail)

# Total functions also evaluate below the core (vanishing tail here).
print("lambda(-5)   =", lf(-5))
