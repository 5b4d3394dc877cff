"""Fixture corpus loading, strictness, and the seeded property suites."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qmult.cli import main
from qmult.fixtures import (
    CHECKS,
    FixtureError,
    fixture_dir,
    load_corpus,
    run_corpus,
    run_property_suites,
)


SRC = Path(__file__).resolve().parent.parent / "src"

# A well-formed value for every check field.
VALID_FIELDS = {
    "value": 1,
    "s": 1,
    "n": 0,
    "k": 1,
    "m0": 0,
    "ns": [1],
    "tor": [1],
    "target": 1,
    "max_error": 1,
    "values": [],
    "polys": [],
    "constant": "paper",
    "parity": "even",
    "result": "confirmed",
}

VANISHING_LF = {
    "d": 2,
    "core": {"start": 0, "values": [1]},
    "pos_tail": {"kind": "vanishing"},
    "neg_tail": {"kind": "vanishing"},
}


SERIES = {"series": "1/(1-t)"}

EMPTY_NS = {
    "check": "limit",
    "provenance": "trivial",
    "s": 1,
    "ns": [],
    "constant": "paper",
    "target": 1,
    "max_error": 1,
}


def write_case(directory, case):
    (directory / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))


class TestCorpus:
    def test_loads(self):
        corpus = load_corpus()
        names = {fixture["name"] for fixture in corpus}
        assert {
            "hypersurface",
            "xy_r",
            "jst_intersecting_planes",
            "s4_group_cohomology",
            "quantum_ci",
            "theta",
            "serre",
            "two_sided",
        } <= names

    def test_all_checks_pass(self):
        results = run_corpus()
        failures = [r for r in results if not r.ok]
        assert not failures, failures

    def test_every_check_is_tagged(self):
        for fixture in load_corpus():
            for case in fixture["cases"]:
                for check in case["expected"]:
                    assert check["provenance"] in ("published", "derived", "trivial")

    def test_unknown_check_kind_rejected(self, tmp_path):
        bad = {
            "name": "bad",
            "cases": [
                {
                    "label": "x",
                    "expected": [{"check": "frobnicate", "provenance": "trivial"}],
                }
            ],
        }
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(FixtureError):
            load_corpus(tmp_path)

    def test_missing_provenance_rejected(self, tmp_path):
        bad = {
            "name": "bad",
            "cases": [{"label": "x", "expected": [{"check": "cx", "value": 1}]}],
        }
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(FixtureError):
            load_corpus(tmp_path)

    def test_unknown_expectation_key_rejected(self, tmp_path):
        bad = {
            "name": "bad",
            "cases": [
                {
                    "label": "x",
                    "expected": [
                        {"check": "cx", "value": 1, "provenance": "trivial", "oops": 2}
                    ],
                }
            ],
        }
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(FixtureError):
            load_corpus(tmp_path)

    def test_unknown_top_level_field_rejected(self, tmp_path):
        bad = {"name": "bad", "cases": [], "notes": "nope"}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(FixtureError):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "fixture, field",
        [
            ({"name": "x", "cases": 5}, "cases"),
            ({"name": "x", "cases": [5]}, "cases[0]"),
            ({"name": "x", "cases": [{"label": "a", "expected": [5]}]}, "cases[0].expected[0]"),
            ([], "fixture"),
        ],
    )
    def test_non_object_structure_rejected(self, tmp_path, fixture, field):
        (tmp_path / "bad.json").write_text(json.dumps(fixture))
        with pytest.raises(FixtureError, match=re.escape(f"bad.json: {field} must be")):
            load_corpus(tmp_path)

    def test_non_object_structure_exits_one(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": 5}))
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        assert capsys.readouterr().err == "error: bad.json: cases must be an array, got 5\n"

    def test_too_many_digits_names_the_file(self, tmp_path, monkeypatch, capsys):
        # json.load raises a plain ValueError past the interpreter's 4300 digits.
        (tmp_path / "big.json").write_text('{"name": "x", "d": 1%s, "cases": []}' % ("0" * 5000))
        with pytest.raises(FixtureError, match="^big.json: a JSON integer has more than 4300 digits$"):
            load_corpus(tmp_path)
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        assert capsys.readouterr().err == "error: big.json: a JSON integer has more than 4300 digits\n"

    @pytest.mark.parametrize(
        "source, check, field",
        [
            ({"d": 2.5}, {}, "cases[0].source.d"),
            ({"probe": "80"}, {}, "cases[0].source.probe"),
            ({"series": 5}, {}, "cases[0].source.series"),
            ({}, {"value": True}, "cases[0].expected[0].value"),
            ({}, {"value": 1.0}, "cases[0].expected[0].value"),
        ],
    )
    def test_non_integer_field_rejected(self, tmp_path, source, check, field):
        # Coercion would truncate d = 2.5 to 2 and let the cx check pass.
        case = {
            "label": "a",
            "source": {"series": "1/(1-t)", **source},
            "expected": [{"check": "cx", "value": 1, "provenance": "trivial", **check}],
        }
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))
        with pytest.raises(FixtureError, match=re.escape(f"bad.json: {field} must be")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("key, values", [("ns", [10, 1.5]), ("tor", [1, "2"]), ("tor", 3)])
    def test_non_integer_array_rejected(self, tmp_path, key, values):
        kind = "limit" if key == "ns" else "serre"
        check = {"check": kind, "provenance": "trivial", key: values}
        case = {"label": "a", "expected": [check]}
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))
        with pytest.raises(FixtureError, match=re.escape(f"bad.json: cases[0].expected[0].{key}")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("multiplicity", "side", "postive"),
            ("multiplicity", "convention", "Delta"),
            ("chain", "regime", "sideways"),
            ("limit", "constant", "exact"),
            ("window", "parity", 0),
            ("window", "result", "confirmd"),
        ],
    )
    def test_value_outside_closed_set_rejected(self, tmp_path, kind, key, value):
        # Before, the runner read a misspelt side as "negative" and any
        # unknown convention as "both", so the check ran as another check.
        check = {"check": kind, "provenance": "trivial", key: value}
        case = {"label": "a", "expected": [check]}
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))
        field = f"bad.json: cases[0].expected[0].{key} must be one of"
        with pytest.raises(FixtureError, match=re.escape(field)):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "kind, key, value, field",
        [
            ("leading", "values", ["1_0"], "values[0]"),
            ("leading", "values", "1", "values"),
            ("limit", "target", " 2", "target"),
            ("limit", "max_error", 0.5, "max_error"),
            ("limit", "max_error", "1/1000.", "max_error"),
            ("g_table", "polys", [["1"], ["+1"]], "polys[1][0]"),
            ("g_table", "polys", [["\u0661"]], "polys[0][0]"),
        ],
    )
    def test_malformed_rational_rejected(self, tmp_path, kind, key, value, field):
        # Before, these were parsed while the check ran: "1_0" read as 10,
        # and a value int() refused failed the check instead of the file.
        check = {"check": kind, "provenance": "trivial", key: value}
        case = {"label": "a", "expected": [check]}
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))
        with pytest.raises(FixtureError, match=re.escape(f"bad.json: cases[0].expected[0].{field} ")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "kind, key", [(kind, key) for kind, spec in CHECKS.items() for key in spec.required]
    )
    def test_missing_required_field_rejected(self, tmp_path, monkeypatch, capsys, kind, key):
        # Unchecked, the check would load and then fail with a bare KeyError
        # detail such as "error: 's'".
        check = {"check": kind, "provenance": "trivial"}
        check.update((k, VALID_FIELDS[k]) for k in CHECKS[kind].required if k != key)
        write_case(tmp_path, {"label": "a", "source": {"series": "1/(1-t)"}, "expected": [check]})
        message = f"bad.json: cases[0].expected[0]: check {kind!r} needs keys [{key!r}]"
        with pytest.raises(FixtureError, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path)
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_check_without_source_rejected(self, tmp_path):
        # Caught by an assert while the check runs, this would read
        # "'NoneType' object has no attribute 'complexity'" under python -O.
        serre = {"check": "serre", "provenance": "trivial", "tor": [1], "value": 1}
        cx = {"check": "cx", "provenance": "trivial", "value": 1}
        write_case(tmp_path, {"label": "a", "expected": [serre]})
        assert load_corpus(tmp_path)[0]["cases"][0]["source"] is None
        write_case(tmp_path, {"label": "a", "expected": [serre, cx]})
        message = "bad.json: cases[0].expected[1]: check 'cx' needs a case source"
        with pytest.raises(FixtureError, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path)

    def test_check_without_source_rejected_without_asserts(self, tmp_path):
        cx = {"check": "cx", "provenance": "trivial", "value": 1}
        write_case(tmp_path, {"label": "a", "expected": [cx]})
        env = dict(os.environ, MULT_FIXTURE_DIR=str(tmp_path), PYTHONPATH=str(SRC))
        argv = [sys.executable, "-O", "-m", "qmult.cli", "verify", "--suite", "paper"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        message = "bad.json: cases[0].expected[0]: check 'cx' needs a case source"
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                {"d": 2},
                "cases[0].source must have exactly one of series/length_function, got ['d']",
            ),
            (
                {"series": "1", "length_function": VANISHING_LF},
                "cases[0].source must have exactly one of series/length_function, "
                "got ['length_function', 'series']",
            ),
            (
                {"length_function": {"d": 2}},
                "cases[0].source.length_function: missing fields in length function: "
                "['core', 'neg_tail', 'pos_tail']",
            ),
            (
                {"length_function": dict(VANISHING_LF, core={"start": 0, "values": [-1]})},
                "cases[0].source.length_function: length values must be nonnegative",
            ),
            (
                {"series": "1/(1-t"},
                "cases[0].source.series: syntax error at offset 6: "
                "found end of input, expected ')'",
            ),
            (
                {"series": "1/0"},
                "cases[0].source.series: denominator has zero constant term in subexpression '0' "
                "at offsets 2..3",
            ),
            (
                {"series": "(" * 900 + "t" + ")" * 900},
                "cases[0].source.series: syntax error at offset 100: found an expression "
                "nested too deeply, expected at most 100 nested parentheses and unary minus signs",
            ),
        ],
        ids=[
            "no_kind",
            "both_kinds",
            "lf_fields",
            "lf_values",
            "series_syntax",
            "series_semantic",
            "series_nested",
        ],
    )
    def test_malformed_source_names_the_file(self, tmp_path, monkeypatch, capsys, source, message):
        # Parsed while the case runs, these would abort verify without the file name.
        write_case(tmp_path, {"label": "a", "source": source, "expected": []})
        with pytest.raises(FixtureError, match=f"^{re.escape('bad.json: ' + message)}$"):
            load_corpus(tmp_path)
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        assert capsys.readouterr() == ("", f"error: bad.json: {message}\n")

    @pytest.mark.parametrize(
        "fixture, message",
        [
            (
                {"name": "x", "cases": [{"label": "a", "source": SERIES, "expected": [EMPTY_NS]}]},
                "cases[0].expected[0].ns must be a nonempty array",
            ),
            (
                {"name": "x", "cases": [{"label": {"a": 1}, "expected": []}]},
                "cases[0].label must be a string, got {'a': 1}",
            ),
            ({"name": 5, "cases": []}, "name must be a string, got 5"),
        ],
        ids=["empty_ns", "label", "name"],
    )
    def test_bad_field_names_the_file(self, tmp_path, monkeypatch, capsys, fixture, message):
        # Before, an empty ns loaded and failed with "error: list index out of
        # range", and a label or name that is not a string was printed as its repr.
        (tmp_path / "bad.json").write_text(json.dumps(fixture))
        with pytest.raises(FixtureError, match=f"^{re.escape('bad.json: ' + message)}$"):
            load_corpus(tmp_path)
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        assert capsys.readouterr() == ("", f"error: bad.json: {message}\n")

    def test_unfit_series_fails_each_check_of_its_case(self, tmp_path, monkeypatch, capsys):
        # Before, the fit ran outside the per-check try: its error aborted
        # verify without the file or the case, and no other check was reported.
        cx = {"check": "cx", "provenance": "trivial", "value": 1}
        mult = {"check": "multiplicity", "provenance": "trivial", "s": 1, "value": 1}
        fixture = {
            "name": "x",
            "cases": [
                {"label": "unfit", "source": {"series": "1/(1-t^3)", "d": 2}, "expected": [cx, mult]},
                {"label": "fit", "source": {"series": "1/(1-t)"}, "expected": [cx]},
            ],
        }
        (tmp_path / "bad.json").write_text(json.dumps(fixture))
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert main(["verify", "--suite", "paper"]) == 1
        error = (
            "error: increase probe: no polynomial stabilization in residue class 0 "
            "(tried degrees up to 19)"
        )
        assert capsys.readouterr() == (
            "PASS paper/x/fit/cx\n"
            f"FAIL paper/x/unfit/cx -- {error}\n"
            f"FAIL paper/x/unfit/multiplicity(s=1) -- {error}\n"
            "passed 1 of 3\n",
            "",
        )

    def test_unknown_source_key_rejected(self, tmp_path):
        case = {"label": "a", "source": {"series": "1", "prob": 200}, "expected": []}
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x", "cases": [case]}))
        with pytest.raises(FixtureError, match="prob"):
            load_corpus(tmp_path)

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
        assert fixture_dir() == tmp_path
        with pytest.raises(FixtureError):
            load_corpus()  # empty directory


class TestPropertySuites:
    def test_seeded_run_passes(self):
        results = run_property_suites(1, cases=40)
        failures = [r for r in results if not r.ok]
        assert not failures, failures[:5]

    def test_deterministic_for_fixed_seed(self):
        a = run_property_suites(7, cases=10)
        b = run_property_suites(7, cases=10)
        assert [(r.key, r.ok) for r in a] == [(r.key, r.ok) for r in b]

    def test_expected_suites_present(self):
        results = run_property_suites(3, cases=5)
        suites = {r.fixture for r in results}
        assert suites == {
            "fit_roundtrip",
            "series_remultiply",
            "shift_alternation",
            "vanishing_above_complexity",
            "convention_bridge",
            "split_additivity",
            "reflection_duality",
        }
