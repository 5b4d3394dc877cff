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
The negative regime's difference lambda(n + 1) - lambda(n + d + 1) is minus
the positive one at n + 1, so its tails are the positive step negated and
shifted by one.

Along a positive chain the delta-convention multiplicities
e^s, e^{s-1}, ..., e^0 are equal, ending in the Euler characteristic of the
fully reduced function.  Along a negative chain each step negates the value
(the backward operator satisfies D-^{s-1} h' = -D-^s h), so the recorded
invariant is (-1)^k * value_k; both the raw values and the invariant are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

# nonnegative_on_ray is unused since QuasiPolynomial.negative_degrees certifies
# the reduced tails; the name stays because perfbench/test_perfbench.py looks it
# up on this module.
from .exact import QmultError, nonnegative_on_ray  # noqa: F401
from .lengths import LengthFunction, ModelError, QuasiPolynomial, core_window
from .multiplicity import (
    MultiplicityError,
    euler_characteristic,
    multiplicity_neg,
    multiplicity_pos,
)


class KoszulError(QmultError):
    """The reduction would produce a negative length somewhere."""

    def __init__(self, message: str, violations: tuple[int, ...] = ()):
        self.violations = violations
        super().__init__(message)


def _reduced_tail(qp: QuasiPolynomial | None, regime: str, side: str) -> QuasiPolynomial | None:
    """The reduced tail, or ``None`` where it vanishes (a constant tail steps
    to all-zero polynomials).  The positive step is g_i -> g_i(t+1) - g_i(t);
    the negative one, lambda(n + 1) - lambda(n + d + 1), is minus the positive
    step at n + 1."""
    if qp is None:
        return None
    anchor = qp.valid_from if side == "pos" else qp.valid_from - qp.d
    step = tuple(p.forward_difference() for p in qp.polys)
    if regime == "positive":
        reduced = QuasiPolynomial(qp.d, step, anchor)
    else:
        reduced = QuasiPolynomial(qp.d, tuple(-p for p in step), anchor).shift(1)
    return None if reduced.is_zero() else reduced


def reduce(lf: LengthFunction, regime: str = "positive") -> LengthFunction:
    """One Koszul reduction step.

    Raises :class:`KoszulError` listing the violating degrees when the
    globally applied difference formula goes negative, i.e. when the data is
    not consistent with an everywhere-injective (or -surjective) action.
    """
    if regime not in ("positive", "negative"):
        raise ValueError("regime must be 'positive' or 'negative'")
    d = lf.d
    ahead, behind = (d, 0) if regime == "positive" else (1, d + 1)
    fn: Callable[[int], int] = lambda n: lf(n + ahead) - lf(n + behind)  # noqa: E731

    pos = _reduced_tail(lf.pos_tail, regime, "pos")
    neg = _reduced_tail(lf.neg_tail, regime, "neg")

    # The reduced core, evaluated once; scan it for negativity before
    # construction so the failure comes back as a Koszul rejection with
    # witnesses.
    lo, hi = core_window(d, lf.core_start - (d + 1), lf.core_end + (d + 1), pos, neg)
    values = tuple(fn(n) for n in range(lo, hi + 1))
    violations = [lo + k for k, v in enumerate(values) if v < 0]

    # Beyond the window the reduced tails govern; certify their sign exactly.
    for qp, anchor, direction in ((pos, hi + 1, 1), (neg, lo - 1, -1)):
        if qp is not None:
            violations += qp.negative_degrees(anchor, direction)
    if violations:
        word = "injective" if regime == "positive" else "surjective"
        raise KoszulError(
            f"not eventually {word} in model: reduction goes negative at "
            f"n in {sorted(violations)[:8]}",
            violations=tuple(sorted(violations)),
        )

    # Valid by construction: the window meets the overlap that validation
    # asks for, the reduced tails agree with the values on it (both are the
    # same difference of lf), and the scan above certified every sign.
    return LengthFunction._unchecked(d, lo, values, pos, neg)


@dataclass(frozen=True)
class KoszulChain:
    """An iterated reduction with its per-step multiplicities.

    ``functions[0]`` is the input and ``functions[k]`` its k-th reduction;
    ``multiplicities[k]`` is the delta-convention multiplicity of index s-k of
    the k-th function (ending in the Euler characteristic when the chain runs
    all the way down).  ``invariant_values`` rewrites them with the sign
    (+1 positive regime, (-1)^k negative regime) under which the chain is
    constant; constancy is enforced at construction time.
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
    expected_sign = 1 if regime == "positive" else -1
    for k in range(1, len(values)):
        if values[k] != expected_sign * values[k - 1]:
            raise ModelError(
                f"chain multiplicities broke the reduction identity: {values}"
            )
    return KoszulChain(regime, s, tuple(functions), tuple(values))


def koszul_triangle(
    lf: LengthFunction,
) -> tuple[LengthFunction, LengthFunction, LengthFunction]:
    """The triangle-realizable triple (lf, lf shifted by d, reduced lf)."""
    return (lf, lf.shift(lf.d), reduce(lf, "positive"))


@dataclass(frozen=True)
class AxiomsReport:
    """Outcome of checking the multiplicity axioms over a fixture set."""

    entries: tuple[tuple[str, str, bool, str], ...]  # fixture, axiom, ok, detail

    @property
    def ok(self) -> bool:
        return all(entry[2] for entry in self.entries)

    def failures(self) -> list[tuple[str, str, str]]:
        return [(f, a, detail) for f, a, ok, detail in self.entries if not ok]


def axioms_check(
    f: Callable[[LengthFunction, int], int],
    fixtures: Mapping[str, LengthFunction],
) -> AxiomsReport:
    """Check that f behaves like the multiplicity on every fixture.

    The three axioms: (1) f vanishes above the complexity; (2) at complexity 0
    f is the alternating sum; (3) one reduction step lowers the index by one
    without changing the value.  Any function satisfying all three is pinned
    down by structural recursion, so the report also compares f against that
    recursion's value.
    """
    entries: list[tuple[str, str, bool, str]] = []

    def axiom_value(lf: LengthFunction, s: int) -> int:
        cx = lf.complexity("positive")
        if s > cx:
            return 0
        if cx == 0:
            return euler_characteristic(lf)
        return axiom_value(reduce(lf, "positive"), s - 1)

    def record(axiom: str, check: Callable[[], tuple[bool, str]]) -> None:
        """Append check()'s outcome for ``name``, the loop's current fixture."""
        try:
            ok, detail = check()
        except Exception as err:  # record, never abort the report
            ok, detail = False, str(err)
        entries.append((name, axiom, ok, detail))

    def versus(got: int, want: int) -> tuple[bool, str]:
        """Called with keywords, which are evaluated in the order written: that
        order picks the error recorded when both sides raise."""
        return got == want, f"{got} vs {want}"

    for name, lf in sorted(fixtures.items()):
        cx = lf.complexity("positive")
        record(
            "vanishing above complexity",
            lambda: (f(lf, cx + 1) == 0 and f(lf, cx + 2) == 0, f"cx={cx}"),
        )
        if cx == 0:
            record(
                "alternating sum at complexity 0",
                lambda: versus(want=euler_characteristic(lf), got=f(lf, 0)),
            )
        else:
            record(
                "reduction step",
                lambda: versus(got=f(lf, cx), want=f(reduce(lf, "positive"), cx - 1)),
            )
        record("uniqueness", lambda: versus(want=axiom_value(lf, cx), got=f(lf, cx)))
    return AxiomsReport(tuple(entries))
