"""Fixture corpus loading, strictness, and the seeded property suites."""

import json
import re

import pytest

from qmult.cli import main
from qmult.fixtures import (
    FixtureError,
    fixture_dir,
    load_corpus,
    run_corpus,
    run_property_suites,
)


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
