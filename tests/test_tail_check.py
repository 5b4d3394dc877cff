"""The one-path tail check and tail sum against their mirrored oracles.

``lengths._check_tail`` and ``LengthFunction.__add__`` run one code path for
both sides; ``kernel_oracles.check_tail`` and ``kernel_oracles.add`` keep one
hand-written branch per side.  On one-sided, two-sided, reflected and shifted
functions, corrupted in their anchors, tail polynomials, core values, core
window and period, both checks must give the same outcome with the same
message word for word, and both sums the same JSON.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult.exact import Polynomial
from qmult.fixtures import random_length_function
from qmult.lengths import LengthFunction, ModelError, QuasiPolynomial, _check_tail

KINDS = ("one-sided", "two-sided", "reflected", "shifted")
CORRUPTIONS = ("none", "anchor", "poly", "negative", "core", "window", "period")


def base_function(rng, d=None):
    """A valid length function of a random kind with period d (or a random one)."""
    d = d if d is not None else rng.choice([2, 4, 6])
    kind = rng.choice(KINDS)
    lf = random_length_function(rng, d)
    if kind == "two-sided":
        lf = lf + random_length_function(rng, d).reflect().shift(rng.randint(-9, 9))
    elif kind == "reflected":
        lf = lf.reflect()
    elif kind == "shifted":
        lf = lf.shift(rng.randint(-9, 9))
    return kind, lf


def vanishing_on_overlap(lf, qp, side, i):
    """-prod (t - m) over the blocks m of residue i in qp's overlap with the core:
    zero wherever the tail is checked against the core."""
    lo, hi = (qp.valid_from, lf.core_end) if side == "pos" else (lf.core_start, qp.valid_from)
    q = Polynomial.const(-1)
    for m in range(-(-(lo - i) // lf.d), (hi - i) // lf.d + 1):
        q = q * (Polynomial.t() - m)
    return q


def corrupt(rng, lf, what):
    """lf with one part changed, built without validation."""
    d, start, values = lf.d, lf.core_start, list(lf.core_values)
    tails = {"pos": lf.pos_tail, "neg": lf.neg_tail}
    sides = [side for side, qp in tails.items() if qp is not None]
    if what == "core":
        values[rng.randrange(len(values))] += rng.choice([-1, 1])
    elif what == "window" and len(values) > 1:
        cut = rng.randint(1, max(1, len(values) // 3))
        if rng.random() < 0.5:
            values, start = values[cut:], start + cut
        else:
            values = values[:-cut]
    elif what in ("anchor", "poly", "negative", "period") and sides:
        side = rng.choice(sides)
        qp = tails[side]
        polys, anchor = list(qp.polys), qp.valid_from
        i = rng.randrange(d)
        if what == "anchor":
            anchor += rng.choice([-1, 1]) * rng.randint(1, 2 * d)
        elif what == "poly":
            polys[i] = polys[i] + rng.choice(
                [Polynomial.const(rng.choice([-1, 1, Fraction(1, 2)])), -2 * polys[i], -Polynomial.t()]
            )
        elif what == "negative":
            # Agrees with the core on the overlap but may go negative beyond
            # it; the core is widened with the new tail's own values so the
            # overlap stays long enough for the raised degree.
            polys[i] = polys[i] + rng.randint(1, 3) * vanishing_on_overlap(lf, qp, side, i)
            grown = QuasiPolynomial(d, tuple(polys), anchor)
            need = d * (grown.max_degree + 2)
            if side == "pos":
                end = max(lf.core_end, anchor + need)
                values += [int(grown(n)) for n in range(lf.core_end + 1, end + 1)]
            else:
                first = min(start, anchor - need)
                values = [int(grown(n)) for n in range(first, start)] + values
                start = first
        if what == "period":
            tails[side] = QuasiPolynomial(2 * d, tuple(polys) * 2, anchor)
        else:
            tails[side] = QuasiPolynomial(d, tuple(polys), anchor)
    return LengthFunction._unchecked(d, start, tuple(values), tails["pos"], tails["neg"])


def outcome(check, lf, qp, side):
    try:
        check(lf, qp, side)
    except Exception as err:  # noqa: BLE001 - any difference in kind must show
        return type(err).__name__, str(err)
    return None


def message_kind(result):
    if result is None:
        return "ok"
    for kind in ("period", "must overlap", "disagrees", "goes negative"):
        if kind in result[1]:
            return kind
    return result[1]


def compare_checks(rng, lf, seen):
    for what in CORRUPTIONS:
        bad = corrupt(rng, lf, what)
        for side, qp in (("pos", bad.pos_tail), ("neg", bad.neg_tail)):
            got = outcome(_check_tail, bad, qp, side)
            assert got == outcome(oracle.check_tail, bad, qp, side), (what, side)
            if qp is not None:
                seen[side, message_kind(got)] += 1


def sum_json(a, b):
    try:
        return (a + b).to_json_dict()
    except ModelError as err:
        return str(err)


def oracle_sum_json(a, b):
    try:
        return oracle.add(a, b).to_json_dict()
    except ModelError as err:
        return str(err)


def compare_sums(rng, seen):
    d = rng.choice([2, 4, 6])
    _, a = base_function(rng, d)
    _, b = base_function(rng, d if rng.random() < 0.9 else 2 * d)
    got = sum_json(a, b)
    assert got == oracle_sum_json(a, b)
    if not isinstance(got, str):
        assert a + b == oracle.add(a, b)
        assert b + a == a + b
    seen["sum", "error" if isinstance(got, str) else "ok"] += 1


def test_one_path_matches_the_mirrored_oracles():
    rng = random.Random(91)
    seen = Counter()
    kinds = Counter()
    for _ in range(300):
        kind, lf = base_function(rng)
        kinds[kind] += 1
        compare_checks(rng, lf, seen)
        compare_sums(rng, seen)
    assert set(kinds) == set(KINDS)
    for side in ("pos", "neg"):
        for kind in ("ok", "period", "must overlap", "disagrees", "goes negative"):
            assert seen[side, kind], (side, kind)
    assert seen["sum", "ok"] and seen["sum", "error"]


@given(st.integers(0, 2**32 - 1))
def test_one_path_matches_the_mirrored_oracles_on_any_seed(seed):
    rng = random.Random(seed)
    _, lf = base_function(rng)
    compare_checks(rng, lf, Counter())
    compare_sums(rng, Counter())


def test_neg_tail_refusal_names_the_lowest_residue():
    # Residues 1 and 2 (t + 5 and t + 3) go negative below blocks -5 and -3.
    # The reflected ray meets residue 2 first, at n = -14; the refusal still
    # names residue 1, at its first violation.
    t = Polynomial.t()
    qp = QuasiPolynomial(4, (Polynomial.const(1), t + 5, t + 3, Polynomial.const(1)), 0)
    values = tuple(int(qp(n)) for n in range(-12, 1))
    with pytest.raises(ModelError) as info:
        LengthFunction(4, -12, values, None, qp)
    assert str(info.value) == (
        "neg tail polynomial for residue 1 goes negative at block -6 (degree n=-23)"
    )
