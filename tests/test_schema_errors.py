"""Every JSON object of both file formats is read by one reader, so each schema
error has one wording and names its file and its field path.

For each object kind (a length function, its ``core``, a vanishing and a
quasi-polynomial tail; a fixture, a case, a source and a check) and each
fault (not an object, an unknown key, a missing key, a malformed field) the
command exits 1 with stdout empty and the one stderr line
``error: <file>: <message>``.  A length function is read with ``cx --input``,
a fixture with ``verify --suite paper``.
"""

import copy
import json

import pytest

from qmult.cli import main

DROP = object()

LENGTH_FUNCTION = {
    "d": 2,
    "core": {"start": 0, "values": [1] * 7},
    "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["1"], ["1"]]},
    "neg_tail": {"kind": "vanishing"},
}

FIXTURE = {
    "name": "x",
    "cases": [
        {
            "label": "a",
            "source": {"series": "1/(1-t)"},
            "expected": [{"check": "cx", "value": 1, "provenance": "trivial"}],
        }
    ],
}

FAULTS = ("not_an_object", "unknown_key", "missing_key", "malformed_field")

# object kind -> for each of FAULTS: (path to the edited value, its new value
# or DROP, message).
LENGTH_FUNCTION_ERRORS = {
    "length_function": [
        ((), [], "length function must be a JSON object, got []"),
        (("extra",), 1, "unknown fields in length function: ['extra']"),
        (("neg_tail",), DROP, "missing fields in length function: ['neg_tail']"),
        (("d",), "2", "d must be an integer, got '2'"),
    ],
    "core": [
        (("core",), 5, "core must be a JSON object, got 5"),
        (("core", "end"), 6, "unknown fields in core: ['end']"),
        (("core", "start"), DROP, "missing fields in core: ['start']"),
        (("core", "values", 2), 1.0, "core.values[2] must be an integer, got 1.0"),
    ],
    "vanishing_tail": [
        (("neg_tail",), "vanishing", "neg_tail must be a JSON object, got 'vanishing'"),
        (("neg_tail", "valid_to"), 0, "unknown fields in neg_tail: ['valid_to']"),
        (("neg_tail", "kind"), DROP, "missing fields in neg_tail: ['kind']"),
        (
            ("neg_tail", "kind"),
            "vanish",
            "neg_tail.kind must be one of ('vanishing', 'quasipoly'), got 'vanish'",
        ),
    ],
    "quasipoly_tail": [
        (("pos_tail",), None, "pos_tail must be a JSON object, got None"),
        (("pos_tail", "valid_to"), 0, "unknown fields in pos_tail: ['valid_to']"),
        (("pos_tail", "valid_from"), DROP, "missing fields in pos_tail: ['valid_from']"),
        (
            ("pos_tail", "polys", 1, 0),
            1.5,
            'pos_tail.polys[1][0] must be an integer or a "p/q" string, got 1.5',
        ),
    ],
}

CHECK = ("cases", 0, "expected", 0)

FIXTURE_ERRORS = {
    "fixture": [
        ((), [], "fixture must be a JSON object, got []"),
        (("notes",), "", "unknown fields in fixture: ['notes']"),
        (("name",), DROP, "missing fields in fixture: ['name']"),
        (("cases",), 5, "cases must be an array, got 5"),
    ],
    "case": [
        (("cases", 0), 5, "cases[0] must be a JSON object, got 5"),
        # Before: "case needs label/[source]/expected, got ['expected', 'extra', 'label']".
        (("cases", 0, "extra"), 1, "unknown fields in cases[0]: ['extra']"),
        (("cases", 0, "label"), DROP, "missing fields in cases[0]: ['label']"),
        (("cases", 0, "label"), 1, "cases[0].label must be a string, got 1"),
    ],
    "source": [
        (("cases", 0, "source"), "1/(1-t)", "cases[0].source must be a JSON object, got '1/(1-t)'"),
        (("cases", 0, "source", "prob"), 9, "unknown fields in cases[0].source: ['prob']"),
        # A source needs exactly one of two keys, so that is how a missing one is named.
        (
            ("cases", 0, "source", "series"),
            DROP,
            "cases[0].source must have exactly one of series/length_function, got []",
        ),
        (("cases", 0, "source", "probe"), "8", "cases[0].source.probe must be an integer, got '8'"),
    ],
    "check": [
        (CHECK, "cx", "cases[0].expected[0] must be a JSON object, got 'cx'"),
        # Before: "unknown keys ['s'] in check 'cx'".
        ((*CHECK, "s"), 1, "unknown fields in cases[0].expected[0]: ['s']"),
        # Before: "check 'cx' needs a provenance tag from ('published', 'derived', 'trivial')".
        ((*CHECK, "provenance"), DROP, "missing fields in cases[0].expected[0]: ['provenance']"),
        # Before: "unknown check kind 'cxx'".
        (
            (*CHECK, "check"),
            "cxx",
            "cases[0].expected[0].check must be one of ('cx', 'cx_neg', 'multiplicity', "
            "'g_table', 'leading', 'evaluate', 'herbrand', 'euler', 'shift_multiplicity', "
            "'chain', 'limit', 'theta', 'serre', 'window'), got 'cxx'",
        ),
    ],
}


def table(errors):
    return [
        pytest.param(*row, id=f"{kind}-{fault}")
        for kind, rows in errors.items()
        for fault, row in zip(FAULTS, rows, strict=True)
    ]


def edited(document, path, value):
    """A deep copy of document with the value at path replaced, or removed
    where value is DROP; the empty path replaces the whole document."""
    if not path:
        return value
    document = copy.deepcopy(document)
    *parents, last = path
    obj = document
    for key in parents:
        obj = obj[key]
    if value is DROP:
        del obj[last]
    else:
        obj[last] = value
    return document


def test_valid_documents_are_accepted(tmp_path, monkeypatch, capsys):
    path = tmp_path / "lf.json"
    path.write_text(json.dumps(LENGTH_FUNCTION))
    assert main(["cx", "--input", str(path)]) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.json").write_text(json.dumps(FIXTURE))
    monkeypatch.setenv("MULT_FIXTURE_DIR", str(corpus))
    assert main(["verify", "--suite", "paper"]) == 0
    assert capsys.readouterr() == ("1\nPASS paper/x/a/cx\npassed 1 of 1\n", "")


@pytest.mark.parametrize("path, value, message", table(LENGTH_FUNCTION_ERRORS))
def test_length_function_error_names_file_and_field(tmp_path, capsys, path, value, message):
    input_file = tmp_path / "lf.json"
    input_file.write_text(json.dumps(edited(LENGTH_FUNCTION, path, value)))
    assert main(["cx", "--input", str(input_file)]) == 1
    assert capsys.readouterr() == ("", f"error: {input_file}: {message}\n")


@pytest.mark.parametrize("path, value, message", table(FIXTURE_ERRORS))
def test_fixture_error_names_file_and_field(tmp_path, monkeypatch, capsys, path, value, message):
    (tmp_path / "bad.json").write_text(json.dumps(edited(FIXTURE, path, value)))
    monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
    assert main(["verify", "--suite", "paper"]) == 1
    assert capsys.readouterr() == ("", f"error: bad.json: {message}\n")


def test_length_function_in_a_source_names_both_fields(tmp_path, monkeypatch, capsys):
    # The same reader reads it; the message names the source's field, then
    # the field inside the length function.
    source = {"length_function": dict(LENGTH_FUNCTION, core={"values": [1]})}
    (tmp_path / "bad.json").write_text(json.dumps(edited(FIXTURE, ("cases", 0, "source"), source)))
    monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
    assert main(["verify", "--suite", "paper"]) == 1
    message = "cases[0].source.length_function: missing fields in core: ['start']"
    assert capsys.readouterr() == ("", f"error: bad.json: {message}\n")


@pytest.mark.parametrize(
    "tail, message",
    [
        # Unknown keys are named before any field is parsed.
        ({"kind": "quasipoly", "polys": "x", "note": 1}, "unknown fields in pos_tail: ['note']"),
        # Fields parse in file order, and before missing keys are named.
        ({"valid_from": 0.0, "kind": "quasi"}, "pos_tail.valid_from must be an integer, got 0.0"),
        ({"kind": "quasipoly", "polys": "x"}, "pos_tail.polys must be an array, got 'x'"),
        ({"kind": "quasipoly", "polys": [[], []]}, "missing fields in pos_tail: ['valid_from']"),
        # A tail without a known kind is named by its "kind" field.
        (
            {"kind": "quasi", "polys": [[], []]},
            "pos_tail.kind must be one of ('vanishing', 'quasipoly'), got 'quasi'",
        ),
        ({"polys": [[], []], "valid_from": 0}, "missing fields in pos_tail: ['kind']"),
    ],
)
def test_check_order(tmp_path, capsys, tail, message):
    input_file = tmp_path / "lf.json"
    input_file.write_text(json.dumps(dict(LENGTH_FUNCTION, pos_tail=tail)))
    assert main(["cx", "--input", str(input_file)]) == 1
    assert capsys.readouterr() == ("", f"error: {input_file}: {message}\n")


def test_long_value_is_cut_short(tmp_path, capsys):
    # The message shows the value it refuses, cut short: written out whole, a
    # 100 000-entry array made a 300 kB line.
    input_file = tmp_path / "lf.json"
    input_file.write_text(json.dumps(dict(LENGTH_FUNCTION, core=[7] * 100_000)))
    assert main(["cx", "--input", str(input_file)]) == 1
    shown = "[" + "7, " * 25 + " ..."
    assert capsys.readouterr() == ("", f"error: {input_file}: core must be a JSON object, got {shown}\n")
