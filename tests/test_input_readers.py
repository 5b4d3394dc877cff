"""The input readers against their first form, and what they no longer do.

The JSON readers check an array's types in one pass and format an entry's
path only to refuse it; ``kernel_oracles`` reads every entry on its own, at
its own path.  The tail's sign certificate reads its Newton tables off the
core's values; the oracle reads them off the tail's polynomials, a ray down
through ``reflect()``.  The series parser folds on (numerator, denominator)
pairs and normalizes once; the oracle folds into a RationalFunction at every
operator.  Each pair must give the same value, or refuse with the same
message, word for word.  The counting tests pin, exactly and without timing,
the work that the first forms did and these do not.
"""

import copy
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernel_oracles as oracle
from qmult import exact, lengths, series
from qmult.cli import main
from qmult.fixtures import _parse_check
from qmult.exact import Polynomial
from qmult.lengths import (
    LengthFunction,
    ModelError,
    _array_of,
    _check_tail,
    _json_int,
    _json_ints,
    _json_poly,
    _json_rational,
    from_series,
)
from qmult.series import parse_series
from test_tail_check import base_function, corrupt


def outcome(read, *args):
    """What ``read(*args)`` gives: its value, or the kind and text of its error."""
    try:
        return "ok", read(*args)
    except Exception as err:  # noqa: BLE001 - any difference in kind must show
        return type(err).__name__, str(err)


# -- JSON readers -------------------------------------------------------------

# One-field mutations: each a value that some reader refuses, or an encoding
# that the one-pass check must read as the first form does.
MUTATIONS = {
    "bool": True,
    "float": 1.0,
    "space": " 1",
    "plus": "+1",
    "zero denominator": "1/0",
    "non-ASCII digits": "١٢",
    "nested list": [1],
    "huge int": 10**5000,
    "huge string": "7" * 5000,
    "unreduced": "-6/4",
    "negative zero": "-0",
}


def encoded(c, rng):
    """A JSON coefficient for the rational c: an int, "p", or "p/q" with p/q
    unreduced by a random factor."""
    if c.denominator == 1 and rng.random() < 0.3:
        return c.numerator
    k = rng.choice([1, 1, 2, 3])
    if c.denominator == 1 and k == 1:
        return str(c.numerator)
    return f"{c.numerator * k}/{c.denominator * k}"


def random_document(rng):
    """A valid length-function document with random coefficient encodings,
    and the paths of its fields that hold a number."""
    _, lf = base_function(rng)
    doc = lf.to_json_dict()
    paths = [("d",), ("core", "start")] + [("core", "values", k) for k in range(len(lf.core_values))]
    for side, qp, anchor in (("pos_tail", lf.pos_tail, "valid_from"), ("neg_tail", lf.neg_tail, "valid_to")):
        if qp is None:
            continue
        doc[side]["polys"] = [[encoded(c, rng) for c in p.coeffs] for p in qp.polys]
        paths.append((side, anchor))
        paths += [(side, "polys", i, k) for i, p in enumerate(qp.polys) for k in range(p.degree + 1)]
    return doc, paths


def mutated(rng, doc, paths):
    """doc with one numeric field replaced by a mutation, and that mutation's name."""
    name = rng.choice(sorted(MUTATIONS))
    doc = copy.deepcopy(doc)
    *head, last = rng.choice(paths)
    target = doc
    for key in head:
        target = target[key]
    target[last] = MUTATIONS[name]
    return doc, name


def read_json_dict(read, doc):
    got = outcome(read, doc)
    return ("ok", got[1].to_json_dict()) if got[0] == "ok" else got


def compare_documents(rng, seen):
    doc, paths = random_document(rng)
    assert read_json_dict(LengthFunction.from_json_dict, doc) == read_json_dict(oracle.from_json_dict, doc)
    bad, name = mutated(rng, doc, paths)
    got = read_json_dict(LengthFunction.from_json_dict, bad)
    assert got == read_json_dict(oracle.from_json_dict, bad), name
    seen[name, got[0]] += 1


def test_documents_read_as_their_first_form_reads_them():
    rng = random.Random(36)
    seen = Counter()
    for _ in range(300):
        compare_documents(rng, seen)
    for name in MUTATIONS:
        assert seen[name, "ModelError"] or seen[name, "ok"], name
    assert seen["huge int", "ok"] and seen["float", "ModelError"]


@given(st.integers(0, 2**32 - 1))
def test_documents_read_as_their_first_form_reads_them_on_any_seed(seed):
    compare_documents(random.Random(seed), Counter())


def mutation(name):
    return MUTATIONS[name]  # named, so that no huge int is written out in a strategy's repr


rational_texts = st.builds(
    lambda p, q, form: form.format(p=p, q=q),
    st.integers(-(10**6), 10**6),
    st.integers(0, 50),
    st.sampled_from(["{p}", "{p}/{q}", " {p}", "+{q}", "{p}/-{q}", "{p}.0", "{p}_0", "0x{q}"]),
)
entries = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    rational_texts,
    st.text(max_size=4),
    st.sampled_from(sorted(MUTATIONS)).map(mutation),
)
json_values = st.recursive(entries, lambda inner: st.lists(inner, max_size=4), max_leaves=12)

READERS = {
    "ints": (_json_ints, oracle.array_of(_json_int)),
    "int array": (_array_of(_json_int, nonempty=True), oracle.array_of(_json_int, nonempty=True)),
    "rational array": (_array_of(_json_rational), oracle.array_of(oracle.json_rational)),
    "poly": (_json_poly, oracle.json_poly),
    "poly array": (_array_of(_json_poly), oracle.array_of(oracle.json_poly)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@given(value=json_values)
def test_each_reader_matches_its_first_form(reader, value):
    read, first = READERS[reader]
    assert outcome(read, value, "pos_tail.polys") == outcome(first, value, "pos_tail.polys")


def test_a_huge_int_coefficient_is_read_as_the_integer_it_is():
    # Writing a Python int past the interpreter's digit limit raises a bare
    # ValueError; the reader takes the int as it is.
    big = 10**5000
    doc = {
        "d": 2,
        "core": {"start": 0, "values": [big, 0] * 4},
        "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [[big], [0]]},
        "neg_tail": {"kind": "vanishing"},
    }
    lf = LengthFunction.from_json_dict(doc)
    assert lf.pos_tail.polys[0] == Polynomial.const(big) and lf(10**6) == big
    doc["core"]["values"] = [1] * 8
    with pytest.raises(ModelError) as info:
        LengthFunction.from_json_dict(doc)
    assert str(info.value) == (
        "pos tail disagrees with the core at n=0: "
        "tail gives a positive integer of 5001 digits, core holds 1"
    )
    # The entry-by-entry reader, which a fixture's rationals and the refusal
    # branch of a polynomial take, reads it the same way.
    assert _json_rational(big, "target") == big
    with pytest.raises(ModelError) as info:
        _json_poly([big, 1.5], "pos_tail.polys[0]")
    assert str(info.value) == 'pos_tail.polys[0][1] must be an integer or a "p/q" string, got 1.5'


BIG = 10**5000


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("d", BIG + 1, "period must be an even integer >= 2, got a positive integer of 5001 digits"),
        ("d", BIG - 1, "period must be an even integer >= 2, got a positive integer of 5000 digits"),
        ("d", BIG, "pos_tail.polys must hold d = a positive integer of 5001 digits polynomials, got 2"),
        (
            "core.start",
            BIG,
            "pos tail must overlap the core on 2 blocks per residue: need valid_from in "
            "[a positive integer of 5001 digits, a positive integer of 5001 digits], got 0",
        ),
        (
            "pos_tail.valid_from",
            BIG,
            "pos tail must overlap the core on 2 blocks per residue: need valid_from in "
            "[0, 3], got a positive integer of 5001 digits",
        ),
        (
            "pos_tail.valid_from",
            -BIG,
            "pos tail must overlap the core on 2 blocks per residue: need valid_from in "
            "[0, 3], got a negative integer of 5001 digits",
        ),
    ],
    ids=["odd d above", "odd d below", "even d", "core start", "anchor above", "anchor below"],
)
def test_a_huge_int_field_is_refused_by_name(path, value, message):
    # Each message writes the int by its sign and digit count: str() of an int
    # past the interpreter's digit limit raises a bare ValueError.
    doc = {
        "d": 2,
        "core": {"start": 0, "values": [1] * 8},
        "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [[1], [1]]},
        "neg_tail": {"kind": "vanishing"},
    }
    *outer, key = path.split(".")
    target = doc
    for name in outer:
        target = target[name]
    target[key] = value
    with pytest.raises(ModelError) as info:
        LengthFunction.from_json_dict(doc)
    assert str(info.value) == message


# -- the tail's sign certificate ----------------------------------------------


def compare_signs(rng, seen):
    _, lf = base_function(rng)
    for what in ("none", "negative", "negative"):
        bad = corrupt(rng, lf, what)
        for side, qp in (("pos", bad.pos_tail), ("neg", bad.neg_tail)):
            if qp is None:
                continue
            got = outcome(_check_tail, bad, qp, side)
            # The sign comes last: a tail that reaches it agrees with the core.
            if got[0] == "ok" or "goes negative" in got[1]:
                assert got == outcome(lambda: oracle.check_sign(qp, side) or None), side
                seen[side, got[0]] += 1


def test_the_sign_certificate_from_the_core_matches_the_reflection():
    rng = random.Random(37)
    seen = Counter()
    for _ in range(300):
        compare_signs(rng, seen)
    for side in ("pos", "neg"):
        assert seen[side, "ok"] and seen[side, "ModelError"], side


@given(st.integers(0, 2**32 - 1))
def test_the_sign_certificate_from_the_core_matches_the_reflection_on_any_seed(seed):
    compare_signs(random.Random(seed), Counter())


# -- the series fold ----------------------------------------------------------


def _join(parts):
    left, op, right = parts
    return f"{left}{op}{right}"


atoms = st.one_of(st.just("t"), st.integers(0, 12).map(str), st.sampled_from(["(1-t)", "(2+t^2)"]))
expressions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " * ", "/"]), inner).map(_join),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"-{text}"),
        st.tuples(inner, st.integers(0, 4)).map(lambda x: f"({x[0]})^{x[1]}"),
    ),
    max_leaves=8,
)
# One or two characters put in, or one taken out, so that some texts are refused.
edits = st.tuples(st.integers(0, 40), st.sampled_from(["", "(", ")", "^", "/", "*", "t", "9", "é", "\t", "^-"]))


def series_outcome(parse, text):
    got = outcome(parse, text)
    if got[0] == "ok":
        return "ok", got[1].num, got[1].den
    return got


@given(expressions, edits)
def test_the_pair_fold_matches_the_rational_function_fold(text, edit):
    at, ch = edit
    at = min(at, len(text))
    for candidate in (text, text[:at] + ch + text[at + (ch == "") :]):
        assert series_outcome(parse_series, candidate) == series_outcome(oracle.parse_series, candidate)


@pytest.mark.parametrize(
    "text",
    [
        "1/(t*(1-t))",
        "t/t/0",
        "1/0+(",
        "(1-t)^3+(",
        "2/(2-t)^2-3/(1+t)",
        "-(-(t))^0/(3*t+4)",
        "(t/(2+t))^3*(1-t)-(1/(1-t))^2",
        "t^9999" + "9" * 4400,
    ],
)
def test_the_pair_fold_matches_on_worked_texts(text):
    assert series_outcome(parse_series, text) == series_outcome(oracle.parse_series, text)


# -- counted work -------------------------------------------------------------


def count_calls(monkeypatch, owner, name, calls=None):
    calls = Counter() if calls is None else calls
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_series_fold_forms_no_product_by_a_unit_denominator(monkeypatch):
    # Powers by Miller's recurrence form no product, so the one left is
    # t^3 * (1+t)^5; square-and-multiply made 9 more for the three powers, and
    # the fold into a normalized RationalFunction at every operator made 34.
    # The fold on coefficient lists builds no Polynomial product at all.  One
    # counter reads the one list product, where exact defines it and where the
    # parser imports it, and Polynomial's product.
    calls = Counter()
    for owner in (exact, series):
        count_calls(monkeypatch, owner, "_product", calls)
    count_calls(monkeypatch, Polynomial, "__mul__", calls)
    parse_series("t^3*(1+t)^5/(1-t)^7")
    assert calls == {"_product": 1}


def test_validating_a_negative_tail_composes_no_polynomial(monkeypatch):
    lf = from_series(parse_series("1/(1-t^2)^3"), 6, 0).reflect()
    calls = count_calls(monkeypatch, Polynomial, "compose_linear")
    again = LengthFunction(lf.d, lf.core_start, lf.core_values, lf.pos_tail, lf.neg_tail)
    assert again.neg_tail is lf.neg_tail and calls["compose_linear"] == 0


@pytest.mark.parametrize("expr", ["1/(1-t)^2", "1/(1-t^2)^3"])
def test_a_well_formed_file_reads_no_coefficient_on_its_own(monkeypatch, tmp_path, capsys, expr):
    doc = from_series(parse_series(expr), 2, 0).to_json_dict()
    coefficients = [c for p in doc["pos_tail"]["polys"] for c in p]
    assert all(type(c) is str for c in coefficients)
    assert any("/" in c for c in coefficients) == (expr == "1/(1-t^2)^3")
    path = tmp_path / "lf.json"
    path.write_text(json.dumps(doc))
    calls = count_calls(monkeypatch, lengths, "_json_rational")
    count_calls(monkeypatch, lengths, "parse_rational", calls)
    assert main(["cx", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == str(from_series(parse_series(expr), 2, 0).complexity())
    assert sum(calls.values()) == 0


def test_a_refused_entry_is_named_by_its_path(tmp_path, capsys):
    # Every entry of polys[0] before the bad one is read twice; its path is
    # formatted only on the refusal.
    doc = from_series(parse_series("1/(1-t)^3"), 2, 0).to_json_dict()
    doc["pos_tail"]["polys"][1][2] = "1/0"
    path = tmp_path / "lf.json"
    path.write_text(json.dumps(doc))
    assert main(["cx", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: pos_tail.polys[1][2] is not a rational: '1/0'\n"


def test_a_check_of_unknown_kind_is_named_by_its_kind():
    # Every field parser applies to it, so a field of another kind is no
    # unknown field; its "check" field, read first, refuses it.
    check = {"check": "cxx", "s": 2, "polys": [], "provenance": "trivial"}
    with pytest.raises(ModelError) as info:
        _parse_check(check, "cases[0].expected[0]")
    assert str(info.value).startswith("cases[0].expected[0].check must be one of ('cx', ")
    assert str(info.value).endswith(", got 'cxx'")
