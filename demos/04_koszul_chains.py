"""Koszul reduction chains and additivity.

Reducing a length function replaces lambda(n) by lambda(n+d) - lambda(n),
modeling a degree-d element acting injectively in every degree; the input is
rejected with witnesses when that difference goes negative anywhere.  Each
step drops the complexity by exactly one and (in the delta convention)
preserves the multiplicity, all the way down to a plain Euler characteristic.
"""

from qmult import euler_characteristic, from_series, multiplicity_pos, parse_series
from qmult.koszul import koszul_triangle, reduce, reduce_chain

lf = from_series(parse_series("t^2/(1-t^2)^2"), d=2, probe=80)

step = reduce(lf, "positive")
print("after one step :", [step(n) for n in range(10)], "cx =", step.complexity("positive"))

chain = reduce_chain(lf, 2, "positive")
print("chain values   :", chain.multiplicities)  # constant: e^2 = e^1 = e^0
print("complexities   :", [f.complexity("positive") for f in chain.functions])
print("terminal Euler :", euler_characteristic(chain.functions[-1]))

# The triangle (Y, Y shifted by d, reduced Y) is additive in multiplicity.
a, b, c = koszul_triangle(lf)
s = max(f.complexity("positive") for f in (a, b, c))
print(
    "additivity     :",
    multiplicity_pos(b, s).e_delta,
    "=",
    multiplicity_pos(a, s).e_delta,
    "+",
    multiplicity_pos(c, s).e_delta,
)

# The delta convention keeps its value across one reduction step, as the
# multiplicity axioms ask (it also vanishes above the complexity and is the
# alternating sum at complexity 0).  The coefficient convention loses the
# factor d^(s-1) on the same step, which is exactly the convention split.
before, after = multiplicity_pos(lf, 2), multiplicity_pos(step, 1)
print("delta e^2, e^1 :", before.e_delta, "->", after.e_delta)
print("coeff e^2, e^1 :", before.e_coeff, "->", after.e_coeff)
