"""Koszul reduction of length functions and iterated reduction chains.

The positive-regime reduction replaces lambda by

    lambda'(n) = lambda(n + d) - lambda(n)        (everywhere)

modeling a degree-d element acting injectively in every degree; the
negative-regime mirror is lambda'(n) = lambda(n + 1) - lambda(n + d + 1).
Either formula is applied globally and the input is rejected (with the
violating degrees) when the difference goes negative anywhere, since then no
globally injective (resp. surjective) action is consistent with the data.
Tail polynomials transform exactly: g_i -> g_i(t+1) - g_i(t) in the positive
regime, so the complexity drops by exactly one per step while it is positive.
The negative step is the positive step mu' of the reflection mu(n) = lambda(-n),
reflected back and shifted by d + 1; a violation m of mu' is degree -m - d - 1.

Along a positive chain the delta-convention multiplicities
e^s, e^{s-1}, ..., e^0 are equal, ending in the Euler characteristic of the
fully reduced function.  Along a negative chain each step negates the value
(the backward operator satisfies D-^{s-1} h' = -D-^s h), so the recorded
invariant is (-1)^k * value_k; both the raw values and the invariant are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

# nonnegative_on_ray is unused since QuasiPolynomial.negative_degrees certifies
# the reduced tails; the name stays because perfbench/test_perfbench.py looks it
# up on this module, until a change to the benchmark drops that lookup.
from .exact import QmultError, nonnegative_on_ray  # noqa: F401
from .lengths import LengthFunction, ModelError, QuasiPolynomial, core_window
from .multiplicity import MultiplicityError, multiplicity_neg, multiplicity_pos


class KoszulError(QmultError):
    """The reduction would produce a negative length somewhere."""

    def __init__(self, message: str, violations: tuple[int, ...] = ()):
        self.violations = violations
        super().__init__(message)


def _reduced_tail(qp: QuasiPolynomial | None, lag: int) -> QuasiPolynomial | None:
    """qp's step g_i -> g_i(t+1) - g_i(t) from lag degrees below its anchor (d for
    a negative tail, which reaches n + d only there), or None where it vanishes."""
    if qp is None:
        return None
    step = tuple(p.forward_difference() for p in qp.polys)
    reduced = QuasiPolynomial(qp.d, step, qp.valid_from - lag)
    return None if reduced.is_zero() else reduced


def _step(lf: LengthFunction, lo: int, hi: int) -> tuple[LengthFunction, list[int]]:
    """lambda(n + d) - lambda(n) on [lo, hi] widened to meet its tails, and its violations."""
    d = lf.d
    pos, neg = _reduced_tail(lf.pos_tail, 0), _reduced_tail(lf.neg_tail, d)
    lo, hi = core_window(d, lo, hi, pos, neg)
    lam = lf.values(lo, hi + d)
    values = tuple(map(sub, lam[d:], lam))
    violations = [lo + k for k, v in enumerate(values) if v < 0]
    # Beyond the window the reduced tails govern; certify their sign exactly.
    if pos is not None:
        violations += pos.negative_degrees(hi + 1)
    if neg is not None:
        violations += (-n for n in neg.reflect().negative_degrees(1 - lo))
    # Valid by construction when nothing is violated: the window meets the
    # overlap that validation asks for, the reduced tails agree with the values
    # on it (both are the same difference of lf), and every sign is certified.
    return LengthFunction._unchecked(d, lo, values, pos, neg), violations


def reduce(lf: LengthFunction, regime: str = "positive") -> LengthFunction:
    """One Koszul reduction step.

    Raises :class:`KoszulError` listing the violating degrees when the
    globally applied difference formula goes negative, i.e. when the data is
    not consistent with an everywhere-injective (or -surjective) action.
    """
    if regime not in ("positive", "negative"):
        raise ValueError("regime must be 'positive' or 'negative'")
    d = lf.d
    if regime == "positive":
        reduced, violations = _step(lf, lf.core_start - (d + 1), lf.core_end + (d + 1))
    else:
        # The positive step of the reflection at m = -n - d - 1, on the mirrored window.
        step, bad = _step(lf.reflect(), -lf.core_end - 2 * (d + 1), -lf.core_start)
        reduced, violations = step.reflect().shift(d + 1), [-m - d - 1 for m in bad]
    if violations:
        word = "injective" if regime == "positive" else "surjective"
        raise KoszulError(
            f"not eventually {word} in model: reduction goes negative at "
            f"n in {sorted(violations)[:8]}",
            violations=tuple(sorted(violations)),
        )
    return reduced


@dataclass(frozen=True)
class KoszulChain:
    """An iterated reduction with its per-step multiplicities.

    ``functions[0]`` is the input and ``functions[k]`` its k-th reduction;
    ``multiplicities[k]`` is the delta-convention multiplicity of index s-k of
    the k-th function (ending in the Euler characteristic when the chain runs
    all the way down).  ``invariant_values`` rewrites them with the sign
    (+1 positive regime, (-1)^k negative regime) under which the chain is
    constant; ``reduce_chain`` enforces that constancy.
    """

    regime: str
    s: int
    functions: tuple[LengthFunction, ...]
    multiplicities: tuple[int, ...]

    @property
    def invariant_values(self) -> tuple[int, ...]:
        if self.regime == "positive":
            return self.multiplicities
        return tuple((-1) ** k * v for k, v in enumerate(self.multiplicities))

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "s": self.s,
            "functions": [f.to_json_dict() for f in self.functions],
            "multiplicities": list(self.multiplicities),
            "invariant_values": list(self.invariant_values),
        }


def reduce_chain(lf: LengthFunction, s: int, regime: str = "positive") -> KoszulChain:
    """Apply ``reduce`` s times, recording multiplicities along the way.

    Requires s at or above the relevant complexity, so the final function has
    complexity 0 and its recorded multiplicity is the plain Euler
    characteristic.  Positive chains must be constant; negative chains must
    alternate in sign; either failure is a model inconsistency.
    """
    mult = multiplicity_pos if regime == "positive" else multiplicity_neg
    if s < lf.complexity(regime):
        raise MultiplicityError(
            f"s={s} is below the {regime} complexity {lf.complexity(regime)}"
        )
    # The terminal value is an Euler characteristic, which compares to the
    # chain only when the opposite tail of the base vanishes.
    if lf.tail("negative" if regime == "positive" else "positive") is not None:
        raise MultiplicityError(
            f"a {regime} chain needs the opposite tail of the base to vanish"
        )
    functions = [lf]
    values = [mult(lf, s).e_delta]
    for k in range(s):
        functions.append(reduce(functions[-1], regime))
        values.append(mult(functions[-1], s - k - 1).e_delta)
    if functions[-1].complexity(regime) != 0:
        raise ModelError("chain did not reach complexity 0")
    chain = KoszulChain(regime, s, tuple(functions), tuple(values))
    if len(set(chain.invariant_values)) > 1:
        raise ModelError(f"chain multiplicities broke the reduction identity: {values}")
    return chain


def koszul_triangle(
    lf: LengthFunction,
) -> tuple[LengthFunction, LengthFunction, LengthFunction]:
    """The triangle-realizable triple (lf, lf shifted by d, reduced lf)."""
    return (lf, lf.shift(lf.d), reduce(lf, "positive"))

