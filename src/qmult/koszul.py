"""Koszul reduction of length functions and iterated reduction chains.

The positive-regime reduction replaces lambda by

    lambda'(n) = lambda(n + d) - lambda(n)        (everywhere)

modeling a degree-d element acting injectively in every degree; the
negative-regime mirror is lambda'(n) = lambda(n + 1) - lambda(n + d + 1).
Either formula is applied globally and the input is rejected (with the
violating degrees) when the difference goes negative anywhere, since then no
globally injective (resp. surjective) action is consistent with the data.
Tail polynomials transform exactly: g_i -> g_i(t+1) - g_i(t) in the positive
regime, so the complexity drops by exactly one per step while it is positive;
on the tail's columns that is one difference of all d residues at once.
A negative chain is the positive chain of mu(n) = lambda(-n) mapped back once:
function k by the one reindexing n -> -n - k(d + 1), and a violation m of
step k to degree -m - k(d + 1).

A chain certifies its positive tails in its frame from one Newton table per
residue at the frame's anchor, each read off one block table of the core:
step k's polynomial Delta^k g has the suffix from entry k of g's table there,
so it needs a certificate of its own only while that suffix has a negative
entry.  Its multiplicities come from one list of the frame's D^{s-1} h,
which, as d is even, is D^{s-k-1} of step k's Herbrand difference: each
step's value is read from its own tail and confirmed on its own 3d window of
that list.

Along a positive chain the delta-convention multiplicities
e^s, e^{s-1}, ..., e^0 are equal, ending in the Euler characteristic of the
fully reduced function.  Along a negative chain each step negates the value
(the backward operator satisfies D-^{s-1} h' = -D-^s h), so the recorded
invariant is (-1)^k * value_k; both the raw values and the invariant are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .exact import (
    Polynomial,
    QmultError,
    _block_table,
    _difference_columns,
    _reduced_columns,
    nonnegative_on_ray,
)
from .lengths import LengthFunction, ModelError, QuasiPolynomial, core_window
from .multiplicity import MultiplicityError, _chain_values


class KoszulError(QmultError):
    """The reduction would produce a negative length somewhere."""

    def __init__(self, message: str, violations: tuple[int, ...] = ()):
        self.violations = violations
        super().__init__(message)


def _reduced_tail(qp: QuasiPolynomial | None, lag: int) -> QuasiPolynomial | None:
    """qp's step g_i -> g_i(t+1) - g_i(t) from lag degrees below its anchor (d for
    a negative tail, which reaches n + d only there), or None where it vanishes:
    one difference of the columns (:func:`_difference_columns`), additions only."""
    if qp is None:
        return None
    columns, den = _reduced_columns(_difference_columns(qp.columns), qp.denominator)
    reduced = QuasiPolynomial._from_columns(qp.d, columns, den, qp.valid_from - lag)
    return None if reduced.is_zero() else reduced


def _reductions(lf: LengthFunction, count: int, regime: str) -> list[LengthFunction]:
    """The frame and its ``count`` steps lambda(n + d) - lambda(n), each on
    [core_start - (d+1), core_end + (d+1)] widened to meet its tails.  In the
    negative regime the frame is lf.reflect() and the window is mirrored to
    [core_start - 2(d+1), core_end].  The first violated step raises, with
    every violation in its window and the first negative degree past it of
    each residue of its tails."""
    d, positive = lf.d, regime == "positive"
    frame, below, above = (lf, d + 1, d + 1) if positive else (lf.reflect(), 2 * (d + 1), 0)
    # Step k's positive tail polynomial of residue i is Delta^k g_i, anchored where
    # g_i is, and its Newton table at the anchor's block is the suffix table[k:] of
    # g_i's.  Each step's ray starts at or above that block, so residue i needs a
    # certificate of its own only at the steps k up to its table's last negative
    # entry.  The tables are the block table of the frame's core at the anchor,
    # where the tail equals the core: residue i is entry (i - anchor) mod d.
    tail, certify = frame.pos_tail, [0] * d
    if tail is not None:
        at = tail.valid_from - frame.core_start
        table = _block_table(list(frame.core_values[at : at + d * len(tail.columns)]), d)
        for i in range(d):
            entries = table[(i - tail.valid_from) % d :: d]
            certify[i] = max((j + 1 for j, e in enumerate(entries) if e < 0), default=0)
    functions = [frame]
    for k in range(1, count + 1):
        f = functions[-1]
        pos, neg = _reduced_tail(f.pos_tail, 0), _reduced_tail(f.neg_tail, d)
        lo, hi = core_window(d, f.core_start - below, f.core_end + above, pos, neg)
        lam = f.values(lo, hi + d)
        values = tuple(map(sub, lam[d:], lam))
        # A valid step pays one C-level pass; only a violated one is scanned.
        violations = [lo + i for i, v in enumerate(values) if v < 0] if min(values) < 0 else []
        # Beyond the window the reduced tails govern; certify their sign exactly.
        for i in range(d) if pos is not None else ():
            if k < certify[i]:
                g = Polynomial._from_integers([c[i] for c in pos.columns], pos.denominator)
                block = nonnegative_on_ray(g, -((i - hi - 1) // d))
                if block is not None:
                    violations.append(d * block + i)
        if neg is not None:
            violations += (-n for n in neg.reflect().negative_degrees(1 - lo))
        if violations:
            bad = sorted(violations if positive else (-m - k * (d + 1) for m in violations))
            word = "injective" if positive else "surjective"
            message = f"not eventually {word} in model: reduction goes negative at n in {bad[:8]}"
            raise KoszulError(message, violations=tuple(bad))
        # Valid by construction: the window meets the overlap that validation asks for,
        # the tails agree with the values on it (one difference of f), every sign is certified.
        functions.append(LengthFunction._unchecked(d, lo, values, pos, neg))
    return functions


def reduce(lf: LengthFunction, regime: str = "positive") -> LengthFunction:
    """One Koszul reduction step.

    Raises :class:`KoszulError` listing the violating degrees when the
    globally applied difference formula goes negative, i.e. when the data is
    not consistent with an everywhere-injective (or -surjective) action.
    """
    if regime not in ("positive", "negative"):
        raise ValueError("regime must be 'positive' or 'negative'")
    reduced = _reductions(lf, 1, regime)[1]
    return reduced if regime == "positive" else reduced._reindexed(-1, -(lf.d + 1))


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


def reduce_chain(lf: LengthFunction, s: int | None = None, regime: str = "positive") -> KoszulChain:
    """Reduce s times in one frame, recording multiplicities along the way.  A
    negative chain is the positive chain of the reflection, mapped back once.
    Each function's multiplicity is what ``multiplicity_pos`` gives in the
    frame, read off one Herbrand list of the frame (``_chain_values``).

    Requires s at or above the relevant complexity, which s defaults to and
    which is computed once, so the final function has complexity 0 and its
    recorded multiplicity is the plain Euler characteristic.  Positive chains
    must be constant; negative chains must alternate in sign; either failure
    is a model inconsistency.
    """
    cx = lf.complexity(regime)
    if s is None:
        s = cx
    if s < cx:
        raise MultiplicityError(f"s={s} is below the {regime} complexity {cx}")
    # The terminal value is an Euler characteristic, which compares to the
    # chain only when the opposite tail of the base vanishes.
    if lf.tail("negative" if regime == "positive" else "positive") is not None:
        raise MultiplicityError(
            f"a {regime} chain needs the opposite tail of the base to vanish"
        )
    frames = _reductions(lf, s, regime)
    values = _chain_values(frames, s)
    if regime == "negative":
        # Function k is frame k at n -> -n - k(d + 1), a shift by k(d + 1) of
        # its reflection, odd for odd k as d is even, which negates its
        # multiplicity.
        values = [(-1) ** k * v for k, v in enumerate(values)]
        frames = [lf] + [f._reindexed(-1, -k * (lf.d + 1)) for k, f in enumerate(frames[1:], 1)]
    chain = KoszulChain(regime, s, tuple(frames), tuple(values))
    if len(set(chain.invariant_values)) > 1:
        raise ModelError(f"chain multiplicities broke the reduction identity: {values}")
    return chain


def koszul_triangle(
    lf: LengthFunction,
) -> tuple[LengthFunction, LengthFunction, LengthFunction]:
    """The triangle-realizable triple (lf, lf shifted by d, reduced lf)."""
    return (lf, lf.shift(lf.d), reduce(lf, "positive"))

