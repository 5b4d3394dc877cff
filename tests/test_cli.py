"""Command-line interface: outputs, exit codes, golden files."""

import argparse
import gc
import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import OrderedDict
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmult
from qmult import cli
from qmult.cli import main
from qmult.exact import QmultError, format_rational
from qmult.fixtures import random_length_function
from qmult.koszul import KoszulError, reduce
from qmult.lengths import QuasiPolynomial, from_series
from qmult.multiplicity import limit_estimate
from qmult.series import parse_series

from worked_examples import neg_growth_fixture

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str, got: str):
    path = GOLDEN / name
    want = path.read_text()
    assert got == want, f"output drifted from {path}"


def two_sided_input():
    return {
        "d": 2,
        "core": {"start": -10, "values": [3, 0] * 10 + [3]},
        "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["3"], []]},
        "neg_tail": {"kind": "quasipoly", "valid_to": 0, "polys": [["3"], []]},
    }


class TestExpand:
    def test_binomials(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "1/(1-t)^3", "--n", "4")
        assert code == 0
        assert out == "1 3 6 10 15\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "0", "--n", "3")
        assert code == 0
        assert out == "0 0 0 0\n"

    def test_even_support(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "t^2/(1-t^2)^2", "--n", "6")
        assert code == 0
        assert out == "0 0 1 0 2 0 3\n"

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "1/(1-t)", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"expr": "1/(1-t)", "coefficients": ["1", "1", "1"]}

    def test_syntax_error_exit_code(self, capsys):
        code, out, err = run(capsys, "expand", "--expr", "1/(t", "--n", "3")
        assert code == 1
        assert "offset 4" in err

    def test_too_many_digits_is_syntax_error(self, capsys):
        # int() refuses more than 4300 digits with a plain ValueError.
        code, out, err = run(capsys, "expand", "--expr", "t^1" + "0" * 5000, "--n", "2")
        assert (code, out) == (1, "")
        assert err == (
            "error: syntax error at offset 2: found an integer of 5001 digits, "
            "expected an integer of at most 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "expr_flag",
        [["--expr", "(" * 900 + "t" + ")" * 900], ["--expr=" + "-" * 5000 + "t"]],
        ids=["parentheses", "minus_signs"],
    )
    def test_deep_nesting_is_syntax_error(self, capsys, expr_flag):
        # The recursive descent raised RecursionError with a traceback.
        code, out, err = run(capsys, "expand", *expr_flag, "--n", "0")
        assert (code, out) == (1, "")
        assert err == (
            "error: syntax error at offset 100: found an expression nested too deeply, "
            "expected at most 100 nested parentheses and unary minus signs\n"
        )

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["expand", "--expr", "1/(1-t)", "--n", "-1"])
        assert info.value.code == 2
        assert "--n" in capsys.readouterr().err


class TestReportCommands:
    def test_e_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "e",
            "--expr",
            "t^2/(1-t^2)^2",
            "--d",
            "2",
            "--s",
            "2",
            "--limit-n",
            "100000",
        )
        assert code == 0
        check_golden("e_jst2.txt", out)

    def test_e_defaults_to_complexity(self, capsys):
        code, out, _ = run(capsys, "e", "--expr", "1/(1-t)^3", "--d", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == payload["cx"] == 3
        assert payload["e_delta"] == 0

    def test_e_neg_on_two_sided_input(self, capsys, tmp_path):
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(two_sided_input()))
        code, out, _ = run(capsys, "e-neg", "--input", str(path), "--s", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["side"] == "negative"
        assert payload["e_delta"] == 3

    @pytest.mark.parametrize("s", ["1", "2", "3"])
    @pytest.mark.parametrize("command, cx_key", [("e", "cx"), ("e-neg", "cx_neg")])
    def test_above_index_zero_at_complexity_zero(self, capsys, tmp_path, command, cx_key, s):
        # Only the index-0 value is an Euler characteristic, which the tail on
        # the other side leaves undefined.
        lf = from_series(parse_series("1/(1-t^2)"), 2, 24)
        path = tmp_path / "lf.json"
        path.write_text(json.dumps((lf.reflect() if command == "e" else lf).to_json_dict()))
        code, out, err = run(capsys, command, "--input", str(path), "--s", s, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload[cx_key] == 0 and payload["e_delta"] == payload["e_coeff"] == 0

    def test_e_neg_rejects_limit_n(self, capsys, tmp_path):
        # The limit estimate is positive-side only, so the flag is not accepted.
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(two_sided_input()))
        with pytest.raises(SystemExit) as info:
            main(["e-neg", "--input", str(path), "--s", "1", "--limit-n", "1000"])
        assert info.value.code == 2
        assert "--limit-n" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(8))
    def test_e_limits_are_the_estimates_with_each_constant(self, capsys, tmp_path, seed):
        # The corrected limit is the paper one over d^(s-1); both must be what
        # limit_estimate gives with its own constant.
        rng = random.Random(seed)
        lf = random_length_function(rng, d=rng.choice([2, 4, 6]), min_cx=1)
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(lf.to_json_dict()))
        s = lf.complexity() + rng.randint(0, 2)
        n = rng.choice([1, 7, 1000, 10**12])
        code, out, _ = run(
            capsys, "e", "--input", str(path), "--s", str(s), "--limit-n", str(n), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        for constant in ("paper", "corrected"):
            want = format_rational(limit_estimate(lf, s, n, constant))
            assert payload[f"limit_{constant}"] == want

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_limit_n_at_s_zero_is_error(self, capsys, json_flag):
        # Text and --json share one rule: the limit estimates need s >= 1.
        code, out, err = run(
            capsys, "e", "--expr", "1+t", "--d", "2", "--s", "0", "--limit-n", "100", *json_flag
        )
        assert code == 1
        assert out == ""
        assert err == "error: limit estimates need s >= 1\n"

    def test_s_below_complexity_is_error(self, capsys):
        code, _, err = run(capsys, "e", "--expr", "t^2/(1-t^2)^2", "--d", "2", "--s", "1")
        assert code == 1
        assert "below the complexity" in err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_an_e_job_walks_the_tail_degrees_twice(self, capsys, monkeypatch, json_flag):
        # Once to size the core of the series (core_window), once for the
        # report's complexity.  An e job walked all d polynomials four times:
        # the handler, the domain check and both report fields read it.
        walks = []
        walk = QuasiPolynomial.max_degree.fget
        counted = property(lambda qp: walks.append(qp.d) or walk(qp))
        monkeypatch.setattr(QuasiPolynomial, "max_degree", counted)
        argv = ("e", "--expr", "t^7/((1-t^2)*(1-t^120))", "--d", "120", "--probe", "840")
        code, out, _ = run(capsys, *argv, *json_flag)
        assert code == 0 and ("cx             2" in out or '"cx": 2' in out)
        assert walks == [120, 120]

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["e", "--s", "1"])
        assert info.value.code == 2


class TestFitAndCx:
    def test_fit_round_trips_through_cli_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit", "--expr", "1/(1-t)^2", "--d", "2", "--probe", "20")
        assert code == 0
        payload = json.loads(out)
        path = tmp_path / "lf.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "cx", "--input", str(path))
        assert code == 0
        assert out2 == "2\n"
        assert payload["pos_tail"]["polys"] == [["1", "2"], ["2", "2"]]

    def test_cx_of_series(self, capsys):
        code, out, _ = run(
            capsys,
            "cx",
            "--expr",
            "(1-t^4)/((1-t)*(1-t^2)*(1-t^3))",
            "--d",
            "6",
            "--probe",
            "120",
        )
        assert code == 0
        assert out == "2\n"

    def test_series_off_the_period_is_refused(self, capsys):
        # A fit to the coefficients 0..80 printed 0 and exited 0.
        code, out, err = run(capsys, "cx", "--expr", "1/(1-t^100)", "--d", "2")
        assert (code, out) == (1, "")
        assert err == (
            "error: not eventually a period-2 quasi-polynomial: "
            "its poles are not all d-th roots of unity\n"
        )

    def test_outranking_pole_is_refused_by_name(self, capsys):
        # The poles are at +-1, so the off-period reason this was refused with
        # misled: the pole at -1 has order 2, and coefficient n=101 is -2.
        code, out, err = run(capsys, "cx", "--expr", "100/(1-t)+1/(1+t)^2", "--d", "2")
        assert (code, out) == (1, "")
        assert err == (
            "error: series coefficients eventually go negative: "
            "a pole at a d-th root of unity other than 1 outranks the pole at t = 1\n"
        )


class TestStrictJsonInput:
    def test_valid_input_accepted(self, capsys, tmp_path):
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(two_sided_input()))
        assert run(capsys, "cx", "--input", str(path)) == (0, "1\n", "")

    def test_coerced_core_values_rejected(self, capsys, tmp_path):
        lf = {
            "d": 2,
            "core": {"start": 0, "values": [1.5, True, 3]},
            "pos_tail": {"kind": "vanishing"},
            "neg_tail": {"kind": "vanishing"},
        }
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(lf))
        code, out, err = run(capsys, "cx", "--input", str(path))
        assert (code, out) == (1, "")
        assert "core.values[0] must be an integer, got 1.5" in err

    def test_undecodable_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "lf.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "cx", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not valid JSON: 'utf-8' codec can't decode")

    ENCODED = {
        "note.json": (
            lambda text: text.replace('"d": 2', '"note": "caf\u00e9", "d": 2').encode("utf-8"),
            "unknown fields in length function: ['note']",
        ),
        "bom.json": (
            lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
            "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        "utf16.json": (
            lambda text: text.encode("utf-16"),
            "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    }

    def encoded_files(self, tmp_path):
        text = json.dumps(
            {
                "d": 2,
                "core": {"start": 0, "values": [1, 1, 1, 1, 1]},
                "pos_tail": {"kind": "vanishing"},
                "neg_tail": {"kind": "vanishing"},
            }
        )
        for name, (encode, message) in self.ENCODED.items():
            path = tmp_path / name
            path.write_bytes(encode(text))
            yield path, f"error: {path}: {message}\n"

    def test_a_file_is_read_as_utf8(self, capsys, tmp_path):
        for path, want in self.encoded_files(tmp_path):
            assert run(capsys, "cx", "--input", str(path)) == (1, "", want)

    def test_a_file_is_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        # Under the C locale with UTF-8 mode off, open() would decode as ASCII.
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = str(Path(qmult.__file__).parents[1])
        for path, want in self.encoded_files(tmp_path):
            argv = [sys.executable, "-m", "qmult.cli", "cx", "--input", str(path)]
            done = subprocess.run(argv, env=env, capture_output=True, check=False)
            assert (done.returncode, done.stdout, done.stderr.decode("ascii")) == (1, b"", want)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (["d"], 2.0, "d"),
            (["d"], True, "d"),
            (["core", "start"], -10.0, "core.start"),
            (["core", "start"], False, "core.start"),
            (["core", "values", 4], True, "core.values[4]"),
            (["core", "values", 4], 3.0, "core.values[4]"),
            (["core", "values"], "30303", "core.values"),
            (["pos_tail", "valid_from"], 0.0, "pos_tail.valid_from"),
            (["pos_tail", "valid_from"], True, "pos_tail.valid_from"),
            (["neg_tail", "valid_to"], 0.5, "neg_tail.valid_to"),
            (["neg_tail", "valid_to"], False, "neg_tail.valid_to"),
            (["pos_tail", "polys", 0, 0], "x", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "3/0", "pos_tail.polys[0][0]"),
            (["neg_tail", "polys", 0, 0], 3.0, "neg_tail.polys[0][0]"),
            (["neg_tail", "polys", 0, 0], True, "neg_tail.polys[0][0]"),
            (["neg_tail", "polys", 1], "0", "neg_tail.polys[1]"),
            (["pos_tail", "polys", 0, 0], " 3", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "+3", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "0_3", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "\u0663", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "6/+2", "pos_tail.polys[0][0]"),
            (["pos_tail", "polys", 0, 0], "-6/-2", "pos_tail.polys[0][0]"),
        ],
    )
    def test_malformed_field_is_named(self, capsys, tmp_path, path, value, field):
        lf = two_sided_input()
        *parents, last = path
        obj = lf
        for key in parents:
            obj = obj[key]
        obj[last] = value
        input_file = tmp_path / "lf.json"
        input_file.write_text(json.dumps(lf))
        code, out, err = run(capsys, "cx", "--input", str(input_file))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {input_file}: {field} ")


    @pytest.mark.parametrize("command", ["fit", "theta"])
    def test_too_many_digits_is_named_error(self, capsys, tmp_path, command):
        # json.load raises a plain ValueError past the interpreter's 4300 digits.
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(two_sided_input()).replace('"d": 2', '"d": 1' + "0" * 5000))
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: a JSON integer has more than 4300 digits\n"

    @pytest.mark.parametrize("command", ["cx", "verify"])
    def test_deep_nesting_is_named_error(self, capsys, tmp_path, monkeypatch, command):
        # json.load raises RecursionError on arrays nested past the recursion limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        if command == "cx":
            code, out, err = run(capsys, "cx", "--input", str(path))
            shown = path
        else:
            monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
            code, out, err = run(capsys, "verify", "--suite", "paper")
            shown = path.name
        assert (code, out) == (1, "")
        assert err == f"error: {shown}: JSON arrays or objects are nested too deeply\n"

    @pytest.mark.parametrize("command", ["cx", "verify"])
    def test_truncated_file_names_it(self, capsys, tmp_path, monkeypatch, command):
        # json.JSONDecodeError reached the user without the file's name.
        path = tmp_path / "cut.json"
        path.write_text('{"d": 2, "core": {"start": ')
        if command == "cx":
            code, out, err = run(capsys, "cx", "--input", str(path))
            shown = path
        else:
            monkeypatch.setenv("MULT_FIXTURE_DIR", str(tmp_path))
            code, out, err = run(capsys, "verify", "--suite", "paper")
            shown = path.name
        assert (code, out) == (1, "")
        assert err == f"error: {shown}: not valid JSON: Expecting value: line 1 column 28 (char 27)\n"

    def test_underscored_and_non_ascii_rationals_rejected(self, capsys, tmp_path):
        # int() reads "1_0" and Arabic-Indic "10" as 10, so this ran as a
        # valid function with a constant tail of 10 and exited 0.
        lf = {
            "d": 2,
            "core": {"start": 0, "values": [10] * 8},
            "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["1_0"], ["\u0661\u0660"]]},
            "neg_tail": {"kind": "vanishing"},
        }
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(lf))
        code, out, err = run(capsys, "cx", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: pos_tail.polys[0][0] is not a rational: '1_0'\n"
        lf["pos_tail"]["polys"][0] = ["10"]
        path.write_text(json.dumps(lf))
        code, out, err = run(capsys, "cx", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: pos_tail.polys[1][0] is not a rational: '\u0661\u0660'\n"
        lf["pos_tail"]["polys"][1] = ["10"]
        path.write_text(json.dumps(lf))
        assert run(capsys, "cx", "--input", str(path)) == (0, "1\n", "")


BIG = "9" * 2200  # squared, past the interpreter's 4300 digits of decimal text


class TestOutputDigitLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--expr", f"{BIG}*{BIG}", "--n", "0"],
            ["e", "--expr", f"{BIG}^2/(1-t^2)"],
            ["e", "--expr", f"{BIG}^2/(1-t^2)", "--json"],
            ["fit", "--expr", f"{BIG}^2/(1-t^2)"],
        ],
        ids=["expand", "e", "e_json", "fit"],
    )
    def test_too_long_output_integer_is_named_error(self, capsys, argv):
        # str() refuses more than 4300 digits with a plain ValueError; the
        # text report had printed its first lines before it.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: an output integer has more than 4300 digits\n"

    def test_too_long_value_in_an_error_does_not_hide_it(self, capsys):
        # The message names the negative coefficient by its sign and digit count.
        code, out, err = run(capsys, "cx", f"--expr=-{BIG}*{BIG}")
        assert (code, out) == (1, "")
        assert err == "error: series coefficient at n=0 is a negative integer of 4400 digits; not a length\n"

    def test_other_value_errors_are_not_caught(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("math domain error")

        help_text, flags, _ = cli._COMMANDS["serre"]
        monkeypatch.setitem(cli._COMMANDS, "serre", (help_text, flags, broken))
        with pytest.raises(ValueError, match="math domain error"):
            main(["serre", "--tor", "1"])


class TestKoszulCommand:
    def test_chain_json(self, capsys):
        code, out, _ = run(capsys, "koszul", "--expr", "t^2/(1-t^2)^2", "--d", "2", "--s", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicities"] == [1, 1, 1]
        assert payload["invariant_values"] == [1, 1, 1]
        assert len(payload["functions"]) == 3

    def test_positive_chain_golden(self, capsys):
        code, out, _ = run(capsys, "koszul", "--expr", "t^3*(1+t)^5/(1-t)^7")
        assert code == 0
        check_golden("koszul_c7.json", out)

    def test_a_koszul_job_reads_the_complexity_once(self, capsys, monkeypatch):
        # Once to size the core of the series (core_window), once for the
        # chain's default s and domain check, once for its first step's window.
        # The handler read the complexity for the default s, and the chain
        # read it again for its check.
        walks = []
        walk = QuasiPolynomial.max_degree.fget
        counted = property(lambda qp: walks.append(qp.d) or walk(qp))
        monkeypatch.setattr(QuasiPolynomial, "max_degree", counted)
        argv = ("koszul", "--expr", "t^7/((1-t^2)*(1-t^120))", "--d", "120", "--probe", "840")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["s"] == 2
        assert walks == [120, 120, 120]

    def test_s_below_the_complexity_is_named(self, capsys):
        code, _, err = run(capsys, "koszul", "--expr", "t^3*(1+t)^5/(1-t)^7", "--s", "1")
        assert code == 1
        assert err.strip() == "error: s=1 is below the positive complexity 7"

    def test_chain_failure_exit_code(self, capsys, tmp_path):
        lf = {
            "d": 2,
            "core": {"start": 0, "values": [1]},
            "pos_tail": {"kind": "vanishing"},
            "neg_tail": {"kind": "vanishing"},
        }
        path = tmp_path / "spike.json"
        path.write_text(json.dumps(lf))
        code, _, err = run(capsys, "koszul", "--input", str(path), "--s", "1")
        assert code == 1
        assert "injective" in err


class TestNegativeSideGoldens:
    """The negative side is derived from the positive one by reflection;
    these pin the stabilization index, the reduced windows and anchors, and
    the rejection witnesses, none of which the reflection may move."""

    def test_e_neg_two_sided_golden(self, capsys, tmp_path):
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(two_sided_input()))
        code, out, _ = run(capsys, "e-neg", "--input", str(path), "--s", "2")
        assert code == 0
        check_golden("e_neg_two_sided_s2.txt", out)

    def test_koszul_negative_golden(self, capsys, tmp_path):
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(neg_growth_fixture().to_json_dict()))
        code, out, _ = run(capsys, "koszul", "--input", str(path), "--regime", "negative")
        assert code == 0
        check_golden("koszul_neg_growth.json", out)

    def test_negative_reduction_violations_golden(self):
        lf = from_series(parse_series("t^2/(1-t^2)^2"), 2, 80)
        with pytest.raises(KoszulError) as info:
            reduce(lf, "negative")
        check_golden("reduce_neg_jst2_violations.json", json.dumps(list(info.value.violations)) + "\n")


class TestLimitThetaSerre:
    def test_limit_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "limit",
            "--expr",
            "t^2/(1-t^2)^2",
            "--d",
            "2",
            "--s",
            "2",
            "--n",
            "100000",
            "--constant",
            "corrected",
        )
        assert code == 0
        assert out == "50001/50000 (~ 1.000020)\n"

    # 1/(1-t) at s = 200, n = 2: the estimates 200! 2^199 (paper) and 200!
    # (corrected) lie past the largest float, where float() raised OverflowError.
    BEYOND_FLOAT = ("--expr", "1/(1-t)", "--d", "2", "--s", "200")

    def test_limit_beyond_float_range(self, capsys):
        exact = factorial(200) * 2**199
        code, out, _ = run(capsys, "limit", *self.BEYOND_FLOAT, "--n", "2")
        assert (code, out) == (0, f"{exact} (~ 6.336622e+434)\n")
        code, out, _ = run(capsys, "limit", *self.BEYOND_FLOAT, "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["estimate"] == str(exact)

    def test_e_limit_beyond_float_range(self, capsys):
        code, out, _ = run(capsys, "e", *self.BEYOND_FLOAT, "--limit-n", "2")
        assert code == 0
        lines = out.splitlines()
        assert f"limit_paper(n=2)      {factorial(200) * 2**199} (~ 6.336622e+434)" in lines
        assert f"limit_corrected(n=2)  {factorial(200)} (~ 7.886579e+374)" in lines

    def test_theta(self, capsys, tmp_path):
        lf = {
            "d": 2,
            "core": {"start": 0, "values": [5, 2] * 8},
            "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["5"], ["2"]]},
            "neg_tail": {"kind": "vanishing"},
        }
        path = tmp_path / "tor.json"
        path.write_text(json.dumps(lf))
        code, out, _ = run(capsys, "theta", "--input", str(path))
        assert code == 0
        assert out == "3\n"

    def test_theta_far_negative_start(self, capsys, tmp_path):
        # Zeros that reach far below 0 are read from the core, not walked.
        lf = {
            "d": 2,
            "core": {"start": -(10**12), "values": [0]},
            "pos_tail": {"kind": "vanishing"},
            "neg_tail": {"kind": "vanishing"},
        }
        path = tmp_path / "tor.json"
        path.write_text(json.dumps(lf))
        assert run(capsys, "theta", "--input", str(path)) == (0, "0\n", "")

    def test_serre(self, capsys):
        code, out, _ = run(capsys, "serre", "--tor", "3,1")
        assert code == 0
        assert out == "2\n"

    def test_serre_json(self, capsys):
        code, out, _ = run(capsys, "serre", "--tor", "2,2", "--json")
        assert code == 0
        assert json.loads(out) == {"serre": 0}


def tor_input():
    """Tor lengths 5, 2, 5, 2, ...: theta = 5 - 2 = 3."""
    return {
        "d": 2,
        "core": {"start": 0, "values": [5, 2] * 8},
        "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["5"], ["2"]]},
        "neg_tail": {"kind": "vanishing"},
    }


JST2 = ["--expr", "t^2/(1-t^2)^2", "--d", "2"]
EXPAND = ["expand", "--expr", "(1+t)^3/(2-t)", "--n", "8"]
LIMIT = ["limit", *JST2, "--s", "2", "--n", "100000", "--constant", "corrected"]
TOR = "tor.json"  # written by the test into its working directory
NEG_D24 = "neg_d24.json"  # likewise


def neg_d24_input():
    """A d = 24 function with a negative tail: the reflection of the series
    model of t^7/((1-t^2)*(1-t^24)), the shape of the benchmark's e-neg jobs."""
    lf = from_series(parse_series("t^7/((1-t^2)*(1-t^24))"), 24, 168)
    return lf.reflect().to_json_dict()


def golden_inputs(directory: Path) -> None:
    """The input files that OUTPUT_GOLDENS name."""
    (directory / TOR).write_text(json.dumps(tor_input()))
    (directory / NEG_D24).write_text(json.dumps(neg_d24_input()))

# golden file -> argv: each command's text form and, where it has one, its JSON form.
OUTPUT_GOLDENS = {
    "expand_rational.txt": EXPAND,
    "expand_rational.json": [*EXPAND, "--json"],
    "fit_jst2.json": ["fit", *JST2, "--probe", "20"],
    "fit_scaled_series.json": ["fit", "--expr", "t^5*(2+t)/((2+t)*(1-t)^2)", "--d", "2", "--probe", "12"],
    "cx_d6.txt": ["cx", "--expr", "(1-t^4)/((1-t)*(1-t^2)*(1-t^3))", "--d", "6", "--probe", "120"],
    "e_t200.txt": ["e", "--expr", "t^200", "--d", "2"],
    # Rational tail coefficients and both limit strings.
    "e_limit_rational_d6.json": [
        "e", "--json", "--limit-n", "1000000000000", "--expr", "1/((1-t^2)^3*(1-t^3))", "--d", "6"
    ],
    # Negative rational tail terms in the text report.
    "e_text_rational_d6.txt": [
        "e", "--expr", "t^9/((1-t^2)^3*(1-t^3))", "--d", "6", "--limit-n", "1000000000000"
    ],
    "koszul_t7_d12.json": ["koszul", "--expr", "t^7/((1-t)*(1-t^12))", "--d", "12", "--probe", "84"],
    # Long int arrays at depth 4.
    "koszul_t7_d24.json": ["koszul", "--expr", "t^7/((1-t^2)*(1-t^24))", "--d", "24", "--probe", "168"],
    # Long periods: a negative tail read from JSON, a limit at d = 120, a text report at d = 24.
    "e_neg_d24.json": ["e-neg", "--json", "--input", NEG_D24],
    "e_limit_d120.json": [
        "e", "--json", "--limit-n", "1000000000000", "--expr", "t^7/((1-t^2)*(1-t^120))",
        "--d", "120", "--probe", "840",
    ],
    "e_text_d24.txt": ["e", "--expr", "t^7/((1-t^2)*(1-t^24))", "--d", "24", "--probe", "168"],
    "limit_jst2_corrected.txt": LIMIT,
    "limit_jst2_corrected.json": [*LIMIT, "--json"],
    "theta_tor_5_2.txt": ["theta", "--input", TOR],
    "theta_tor_5_2.json": ["theta", "--input", TOR, "--json"],
    "serre_3_1.txt": ["serre", "--tor", "3,1"],
    "serre_3_1.json": ["serre", "--tor", "3,1", "--json"],
}


class TestOutputGoldens:
    @pytest.mark.parametrize("name", OUTPUT_GOLDENS)
    def test_stdout_matches_golden(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)
        golden_inputs(tmp_path)
        code, out, err = run(capsys, *OUTPUT_GOLDENS[name])
        assert (code, err) == (0, "")
        check_golden(name, out)


# One run of every handler, in each output form it has.
HANDLER_RUNS = [
    *OUTPUT_GOLDENS.values(),
    ["e", *JST2, "--s", "2", "--limit-n", "1000"],
    ["e", *JST2, "--json"],
    ["e-neg", "--input", "lf.json", "--s", "2"],
    ["e-neg", "--input", "lf.json", "--s", "2", "--json"],
    ["koszul", *JST2, "--s", "2"],
    ["verify", "--suite", "paper"],
    ["verify", "--suite", "paper", "--json"],
]


class TestHandlersReturn:
    """Handlers return (exit code, JSON payload, text) and print nothing;
    ``main`` alone renders and prints."""

    def test_every_command_is_run(self):
        assert {argv[0] for argv in HANDLER_RUNS} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", HANDLER_RUNS, ids=" ".join)
    def test_handler_returns_without_printing(self, capsys, monkeypatch, tmp_path, argv):
        def no_print(*args, **kwargs):
            raise AssertionError("a handler printed")

        monkeypatch.chdir(tmp_path)
        golden_inputs(tmp_path)
        (tmp_path / "lf.json").write_text(json.dumps(two_sided_input()))
        args = cli._parse(argv)
        monkeypatch.setattr("builtins.print", no_print)
        code, payload, text = cli._COMMANDS[args.command][2](args)
        assert code == 0
        assert payload is not None or text is not None
        assert capsys.readouterr() == ("", "")


class TestVerify:
    def test_paper_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        assert "passed" in out.splitlines()[-1]
        assert "FAIL" not in out

    def test_verify_json_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["results"])

    def test_all_suites_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        check_golden("verify_all_seed0.txt", out)

    def test_properties_seed1_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "properties", "--seed", "1")
        assert code == 0
        check_golden("verify_properties_seed1.txt", out)

    def test_paper_json_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper", "--json")
        assert code == 0
        check_golden("verify_paper.json", out)

    def test_output_is_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "paper")
        _, out2, _ = run(capsys, "verify", "--suite", "paper")
        assert out1 == out2


class TestNamedRefusals:
    """Valid flags, refused request: exit 1 and exactly one named stderr line."""

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (
                ["theta", "--input", "{path}"],
                two_sided_input(),
                "homological input must vanish in negative degrees",
            ),
            (
                # The tail vanishes, but the core does not at n = -2.
                ["theta", "--input", "{path}"],
                {
                    "d": 2,
                    "core": {"start": -2, "values": [7, 7, 5, 2, 5, 2, 5, 2, 5, 2]},
                    "pos_tail": {"kind": "quasipoly", "valid_from": 0, "polys": [["5"], ["2"]]},
                    "neg_tail": {"kind": "vanishing"},
                },
                "homological input must vanish in negative degrees, but degree -2 has length 7",
            ),
            (
                # A constant tail anchored far below 0 is refused at its anchor.
                ["theta", "--input", "{path}"],
                {
                    "d": 2,
                    "core": {"start": -(10**12), "values": [5, 2, 5, 2, 5]},
                    "pos_tail": {
                        "kind": "quasipoly",
                        "valid_from": -(10**12),
                        "polys": [["5"], ["2"]],
                    },
                    "neg_tail": {"kind": "vanishing"},
                },
                "homological input must vanish in negative degrees, "
                "but degree -1000000000000 has length 5",
            ),
            (
                ["cx", "--input", "{path}"],
                {
                    "d": 2,
                    "core": {"start": 0, "values": []},
                    "pos_tail": {"kind": "vanishing"},
                    "neg_tail": {"kind": "vanishing"},
                },
                "{path}: core window must be nonempty",
            ),
            (
                ["expand", "--expr", "2x", "--n", "2"],
                None,
                "syntax error at offset 1: found 'x', expected integer, 't', operator, '(', ')'",
            ),
            (
                ["limit", "--expr", "1/(1-t)^2", "--s", "1", "--n", "0"],
                None,
                "limit estimates need n >= 1",
            ),
            (
                # --s defaults to the negative complexity, 0 here.
                ["e-neg", "--expr", "1/(1-t^2)", "--d", "2"],
                None,
                "negative complexity 0 with a non-vanishing positive tail: "
                "the Euler characteristic is undefined",
            ),
        ],
        ids=[
            "theta_two_sided",
            "theta_negative_core",
            "theta_far_negative_tail",
            "empty_core",
            "expand_stray_letter",
            "limit_n_zero",
            "e_neg_index_zero_positive_tail",
        ],
    )
    def test_refusal_is_named(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "lf.json"
        if data is not None:
            path.write_text(json.dumps(data))
        argv = [arg.format(path=path) for arg in argv]
        assert run(capsys, *argv) == (1, "", f"error: {message.format(path=path)}\n")


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["expand", "--expr", "1", "--n", "2", "--bogus"])
        assert info.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["nonsense"])
        assert info.value.code == 2


def exception_classes():
    """Every exception class defined in a qmult module."""
    found = []
    for info in pkgutil.iter_modules(qmult.__path__):
        module = importlib.import_module(f"qmult.{info.name}")
        found += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    return found


class NewError(QmultError):
    """An error class no module of the command line names."""


class TestErrorBase:
    """Every qmult error derives from one base, which ``main`` reports."""

    def test_every_exception_class_derives_from_qmult_error(self):
        classes = exception_classes()
        assert len(classes) >= 9
        assert [cls.__name__ for cls in classes if not issubclass(cls, QmultError)] == []

    @pytest.mark.parametrize(
        "cls", [*exception_classes(), NewError], ids=lambda cls: cls.__name__
    )
    def test_raised_in_a_command_exits_1_with_one_line(self, capsys, monkeypatch, cls):
        err = cls.__new__(cls)
        Exception.__init__(err, "refused")  # each class's own arguments differ

        def handler(args):
            raise err

        help_text, add_flags, _ = cli._COMMANDS["serre"]
        monkeypatch.setitem(cli._COMMANDS, "serre", (help_text, add_flags, handler))
        assert run(capsys, "serre", "--tor", "3,1") == (1, "", "error: refused\n")


class TestIntegerFlags:
    """Integer flags and --tor entries take ASCII -?[0-9]+ only; int() would
    accept non-ASCII digits, underscores, whitespace and a '+' sign."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["e", "--expr", "1/(1-t)^2", "--s", "٢"], "argument --s"),
            (["expand", "--expr", "1/(1-t)", "--n", "1_0"], "argument --n"),
            (["serre", "--tor", "1_0,2"], "--tor"),
            (["serre", "--tor", "1,,2"], "--tor"),
            (["serre", "--tor", "1, 2"], "--tor"),
            (["serre", "--tor", ""], "--tor"),
            (["fit", "--expr", "1/(1-t)^2", "--d", " 2"], "argument --d"),
            (["cx", "--expr", "1/(1-t)^2", "--probe", "+80"], "argument --probe"),
            (["e", "--expr", "1/(1-t)^2", "--limit-n", "1e3"], "argument --limit-n"),
            (["e-neg", "--expr", "1/(1-t)^2", "--s", "2 "], "argument --s"),
            (["koszul", "--expr", "1/(1-t)^2", "--s", "１"], "argument --s"),
            (["limit", "--expr", "1/(1-t)^2", "--s", "2", "--n", "1_000"], "argument --n"),
            (["verify", "--seed", "٠"], "argument --seed"),
            # int() refuses more than 4300 digits with a ValueError.
            (["serre", "--tor", "1," + "9" * 5000], "--tor"),
            (["e", "--expr", "1/(1-t)^2", "--s", "-" + "9" * 5000], "argument --s: invalid int"),
        ],
    )
    def test_malformed_integer_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_negative_probe_is_usage_error(self, capsys):
        # --probe sizes the core window shown; a size below 0 is refused, not read as 0.
        with pytest.raises(SystemExit) as info:
            main(["cx", "--expr", "1/(1-t)^2", "--probe", "-1"])
        assert info.value.code == 2
        assert "argument --probe: must be >= 0, got -1" in capsys.readouterr().err

    def test_ascii_integers_still_accepted(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "1/(1-t)", "--n", "3")
        assert (code, out) == (0, "1 1 1 1\n")
        code, out, _ = run(capsys, "serre", "--tor", "3,1,-0")
        assert (code, out) == (0, "2\n")

    def test_negative_tor_entry_fails_in_serre(self, capsys):
        code, _, err = run(capsys, "serre", "--tor", "1,-2")
        assert code == 1
        assert err.startswith("error: ")


# argv edge cases for _parse; "lf.json" need not exist.
PARSE_CORPUS = [
    *([name, "-h"] for name in cli._COMMANDS),
    ["e", "--expr", "1/(1-t)^2", "--help"],
    # missing required flags
    ["expand", "--expr", "1/(1-t)"],
    ["limit", "--expr", "1/(1-t)^2", "--s", "1"],
    ["theta"],
    ["serre", "--json"],
    # bad choices
    ["cx", "--expr", "1/(1-t)^2", "--side", "up"],
    ["e", "--expr", "1/(1-t)^2", "--convention", "neither"],
    ["koszul", "--expr", "1/(1-t)^2", "--regime", "sideways"],
    ["limit", "--expr", "1/(1-t)^2", "--s", "2", "--n", "9", "--constant", "both"],
    ["verify", "--suite", "none"],
    # bad integers
    ["expand", "--expr", "1/(1-t)", "--n", "-1"],
    ["e", "--expr", "1/(1-t)^2", "--s", "1_0"],
    ["fit", "--expr", "1/(1-t)^2", "--d", "two"],
    ["verify", "--seed"],
    # unknown flags and leftover arguments
    ["expand", "--expr", "1", "--n", "2", "--bogus"],
    ["e-neg", "--expr", "1/(1-t)^2", "--limit-n", "5"],
    ["serre", "--tor", "3,1", "extra"],
    ["e", "--expr", "1/(1-t)^2", "--json=1"],
    ["e", "--", "--expr", "1/(1-t)^2"],
    # abbreviations and the --flag=value form
    ["e", "--ex", "1/(1-t)^3", "--json"],
    ["e", "--expr", "t^2/(1-t^2)^2", "--s", "2", "--conv", "delta"],
    ["expand", "--expr=1/(1-t)^3", "--n=4"],
    ["e-neg", "--ex", "1/(1-t)^2", "--s=2"],  # argparse's Namespace has no limit_n
    # no subcommand at argv[0]
    ["--", "e", "--expr", "1/(1-t)^3"],
    [],
    ["-h"],
    ["--help"],
    ["nonsense"],
    ["--json", "e", "--expr", "1/(1-t)^3"],
    # the handlers' own usage errors
    ["cx", "--expr", "1/(1-t)^2", "--input", "lf.json"],
    ["e"],
    ["serre", "--tor", "1,,2"],
    # runs that succeed or fail with exit 1
    ["expand", "--expr", "1/(1-t)^3", "--n", "4", "--json"],
    ["e", "--expr", "t^2/(1-t^2)^2", "--s", "2", "--limit-n", "1000"],
    ["e-neg", "--expr", "1/(1-t)^2", "--json"],
    ["serre", "--tor", "3,1"],
    ["serre", "--tor", "1,-2"],
    ["theta", "--input", "lf.json"],
    ["expand", "--expr", "1/(t", "--n", "2"],
]


def outcome(capsys, call, argv):
    """(return value, stdout, stderr, exit code) of ``call(argv)``."""
    try:
        result, code = call(list(argv)), None
    except SystemExit as info:
        result, code = None, info.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err, code


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


class TestPerCommandParse:
    """``_parse`` reads a fully spelled argv from the flag table and leaves
    every other argv to the full parser; its output, exit code and Namespace,
    and those of ``main``, must be the full parser's."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_matches_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        assert outcome(capsys, cli._parse, argv) == outcome(capsys, full_parse, argv)
        got = outcome(capsys, main, argv)
        monkeypatch.setattr(cli, "_parse", full_parse)
        assert got == outcome(capsys, main, argv)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cx", "--expr", "1", "--input", "lf.json"], "provide exactly one of --expr or --input"),
            (["e"], "provide exactly one of --expr or --input"),
            (["serre", "--tor", "1,,2"], "--tor must be a comma-separated list of integers"),
            (["e-neg", "--expr", "1/(1-t)^2", "--limit-n", "5"], "unrecognized arguments: --limit-n 5"),
        ],
    )
    def test_usage_errors_carry_the_full_usage(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        usage = cli.build_parser().format_usage()
        assert outcome(capsys, main, argv) == (None, "", f"{usage}qmult: error: {message}\n", 2)

    @pytest.mark.parametrize("argv", [["e", "-h"], ["limit", "--expr", "1/(1-t)^2", "--s", "1"]], ids=" ".join)
    def test_help_and_usage_follow_the_terminal_width(self, capsys, monkeypatch, argv):
        """The full parser reads the terminal width each time it is built."""
        got = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            got.append(outcome(capsys, main, argv))
            assert got[-1] == outcome(capsys, full_parse, argv)
        assert got[0] != got[1]

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["qmult", "serre", "--tor", "3,1"])
        assert outcome(capsys, lambda _: main(), []) == (0, "2\n", "", None)
        monkeypatch.setattr(sys, "argv", ["qmult", "e-neg", "--expr", "1/(1-t)^2", "--limit-n", "5"])
        _, out, err, code = outcome(capsys, lambda _: main(), [])
        assert (out, code) == ("", 2)
        assert err.endswith("qmult: error: unrecognized arguments: --limit-n 5\n")


# Flag values: the first three of each list are valid, the others are not.
INT_VALUES = ["0", "2", "7", "-1", "-12", "1_0", "two", "", "-"]
TEXT_VALUES = ["1/(1-t)^2", "lf.json", "3,1", "-t", "--json", "", "-"]


@st.composite
def table_argv(draw):
    """An argv for one subcommand, built from its flag table: mostly full
    options with valid values, mixed with refused values, options left without
    a value, abbreviations, ``--opt=value``, repeats, ``--``, ``-h`` and stray
    words."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [name]
    for _ in range(draw(st.integers(0, 6))):
        option, keywords = draw(st.sampled_from(cli._COMMANDS[name][1]))
        values = keywords.get("choices", INT_VALUES if "type" in keywords else TEXT_VALUES)
        any_value = draw(st.integers(0, 3)) == 0
        value = draw(st.sampled_from([*values, *INT_VALUES, *TEXT_VALUES, "x"] if any_value else values[:3]))
        form = draw(st.integers(0, 9))
        if form < 6:
            argv += [option] if "action" in keywords else [option, value]
        elif form == 6:
            argv.append(option)
        elif form == 7:
            argv += [option[: draw(st.integers(3, len(option)))], value]
        elif form == 8:
            argv.append(f"{option}={value}")
        else:
            argv.append(draw(st.sampled_from(["--", "-h", "--help", "stray", name, "--bogus"])))
    return argv


LONG_PERIOD_FLAGS = ["--expr", "t^7/((1-t)*(1-t^12))", "--d", "12", "--probe", "84"]


class TestFlagTable:
    """``_parse`` reads a fully spelled argv from the flag table without
    argparse; every other argv goes to the argparse parser built from the
    same table."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table_argv())
    @example(["e", "--expr", "-t"])
    @example(["e", "--expr", "--json"])
    @example(["e", "--expr", "1/(1-t)^2", "--s", "-1"])
    @example(["e", "--d", "2", "--expr"])
    @example(["cx", "--expr", "1/(1-t)^2", "--side", "up"])
    @example(["limit", "--expr", "1/(1-t)^2", "--s", "1"])
    @example(["serre", "--tor", "3,1", "--json", "--tor", "1", "--json"])
    def test_matches_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert outcome(capsys, cli._parse, argv) == outcome(capsys, full_parse, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["e", "--json", "--limit-n", "1000000000000", "--expr", "t^3*(1+t)^5/(1-t)^7"],
            ["e", "--json", "--limit-n", "1000000000000", *LONG_PERIOD_FLAGS],
            ["koszul", "--expr", "t^3*(1+t)^5/(1-t)^7"],
            ["koszul", *LONG_PERIOD_FLAGS],
            ["e", "--json", "--input", "pos.json"],
            ["e-neg", "--json", "--input", "lf.json"],
            ["cx", "--input", "pos.json"],
            ["koszul", "--input", "pos.json"],
            ["verify", "--suite", "paper"],
            ["serre", "--tor", "3,1"],
            ["e-neg", "--expr", "1/(1-t)^2", "--s", "2", "--json"],
        ],
        ids=" ".join,
    )
    def test_benchmark_argv_builds_no_parser(self, capsys, monkeypatch, tmp_path, argv):
        """Every fully spelled argv, among them every form the benchmark's jobs
        use, is read from the table."""

        def no_parser(*args, **kwargs):
            raise AssertionError("built an argparse parser")

        monkeypatch.chdir(tmp_path)
        handler_files(tmp_path)
        positive_only = from_series(parse_series("1/(1-t)^2"), 2, 24)
        (tmp_path / "pos.json").write_text(json.dumps(positive_only.to_json_dict()))
        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


# Valid flags, refused request: exit 1.  "cut.json" is written truncated.
EXIT_1_RUNS = [
    ["e", "--expr", "1/(2+t)"],
    ["e", "--expr", "1/(1-t"],
    ["e", "--d", "3", "--expr", "1/(1-t)^2"],
    ["cx", "--input", "cut.json"],
]


def handler_files(directory: Path) -> None:
    """The input files that HANDLER_RUNS and EXIT_1_RUNS name."""
    golden_inputs(directory)
    (directory / "lf.json").write_text(json.dumps(two_sided_input()))
    (directory / "cut.json").write_text('{"d": 2, "core": {"start": ')


class TestNoGarbagePerCall:
    """A call that succeeds or exits 1 leaves no unreachable objects for the
    cycle collector: the handlers and the JSON renderer make none
    (``json.dumps(..., indent=2)`` made the closures of its pure-Python
    encoder), and a fully spelled argv builds no argparse parser.  An argv that
    argparse reads still builds one, which is cyclic; it leaves no more than
    parsing its arguments does.  Exit-2 usage errors are exempt: they build
    the full parser on purpose, to print its usage line."""

    @staticmethod
    def garbage_of(call, argv):
        gc.collect()
        gc.disable()
        try:
            result = call(argv)
            return result, gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "argv, want",
        [*((argv, 0) for argv in HANDLER_RUNS), *((argv, 1) for argv in EXIT_1_RUNS)],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_call_leaves_no_garbage(self, capsys, monkeypatch, tmp_path, argv, want):
        monkeypatch.chdir(tmp_path)
        handler_files(tmp_path)
        assert main(argv) == want  # warm-up: fills the library's caches
        assert self.garbage_of(main, argv) == (want, 0)
        capsys.readouterr()

    def test_argparse_path_leaves_only_the_parser(self, capsys, monkeypatch, tmp_path):
        argv = ["e", "--ex", "t^2/(1-t^2)^2", "--s", "2", "--json"]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        _, parser_garbage = self.garbage_of(cli._parse, argv)
        assert parser_garbage > 0
        assert self.garbage_of(main, argv) == (0, parser_garbage)
        capsys.readouterr()


json_text = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates included
    st.text(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "é", " ", "\ud800", "😀"])),
)
json_int = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64)))
scalar = st.one_of(json_text, json_int, st.booleans(), st.none(), st.floats())
json_tree = st.recursive(
    st.one_of(
        scalar,
        # leaf lists, all of a kind or with floats, bool and None mixed in
        st.lists(json_int),
        st.lists(json_text),
        st.lists(st.one_of(json_int, st.booleans(), st.none())),
        st.lists(st.one_of(json_text, st.booleans(), st.none())),
        st.lists(st.one_of(json_int, st.floats(), st.booleans(), st.none())),
    ),
    lambda children: st.one_of(
        st.lists(children),
        st.dictionaries(json_text, children),
    ),
    max_leaves=30,
)


class TestJsonRenderer:
    """``cli._dumps`` writes ``json.dumps(value, indent=2)`` byte for byte."""

    @given(json_tree)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [True, None, [], {}, [[]], {"a": {}}, [True, 1], [1, True], ["x", None], [0.5, 1]], ids=repr
    )
    def test_bool_none_and_empty_containers(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": (1, [2, "x"])},
            [OrderedDict(b=[1], a={})],
            {"a": {1: "x", None: [True]}},
            [{2.5: {}}, {False: 3}],
        ],
        ids=repr,
    )
    def test_other_types_keep_the_indented_format(self, value):
        """Tuples, dict subclasses and non-str keys go to json.dumps, at the
        indent of the level they sit on."""
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            ["a\"b", "c\\d"],
            ["\n", "\t\r\x00\x1f\x7f"],
            ["caf\u00e9", "\u2603", "\U0001f600", "\ud800"],
            {"polys": [["1/2", "-3"], [], ["\"", "\\"]]},
            [[["x"]], ["y", "z"]],
        ],
        ids=repr,
    )
    def test_string_arrays(self, value):
        """Arrays of strs only, as a chain's coefficient arrays are: quotes,
        backslashes, control and non-ASCII characters, lone surrogates."""
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @given(st.lists(st.lists(st.text(max_size=6), max_size=5), max_size=4))
    def test_string_arrays_at_depth(self, value):
        assert cli._dumps({"a": value}) == json.dumps({"a": value}, indent=2)

    def test_verify_all_payload(self):
        code, payload, _ = cli._COMMANDS["verify"][2](cli._parse(["verify", "--suite", "all", "--json"]))
        assert code == 0
        assert cli._dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [float("nan"), float("inf"), -float("inf")],
            {"a": [[0.5, -0.0, 1e300, 5e-324, float("nan")], [float("-inf")]]},
            [1, 2.5, True, None, False, -(2**70)],
            [None, 0.0, 0],
            [True, False, True],
            {"b": [False]},
            ["x", 1, None, 1.5, True, "\u00e9\n"],
        ],
        ids=repr,
    )
    def test_scalar_arrays(self, value):
        """Arrays of scalars, floats that JSON spells NaN and Infinity among
        them, are written by one C encoder call each."""
        assert cli._dumps(value) == json.dumps(value, indent=2)

    class Text(str):
        pass

    class Count(int):
        pass

    @pytest.mark.parametrize(
        "value",
        [
            [1, (2, 3)],
            {"a": ["x", (), [(1, [2])]]},
            [1, OrderedDict(b=[1], a={})],
            [[(True, None)], OrderedDict()],
            ["x", Text("y")],
            {"a": [0, Count(5), 2]},
            [Count(7)],
            [Text("z")],
        ],
        ids=repr,
    )
    def test_arrays_with_tuples_and_subclasses_take_the_fallback(self, monkeypatch, value):
        """An array that holds a tuple, a dict subclass, or a str or int
        subclass never goes to the C encoder, which would write a nested
        container compactly: each such item is written by json.dumps at its
        level."""

        def refuse(*args):
            raise AssertionError("an array with a non-scalar item went to the C encoder")

        monkeypatch.setattr(cli, "_ARRAY_ENCODERS", {})
        monkeypatch.setattr(cli, "c_make_encoder", refuse)
        assert cli._dumps(value) == json.dumps(value, indent=2)

    def test_empty_containers_at_depth_and_deep_nesting(self):
        value = [1, "x", None]
        for depth in range(40):
            value = {"k": [value, [], {}], "e": {}} if depth % 2 else [[], {"z": []}, value]
        assert cli._dumps(value) == json.dumps(value, indent=2)

    def test_too_long_integer_in_an_int_array(self, capsys):
        """The C encoder refuses the integer as json.dumps does, before
        anything is printed."""
        code, out, err = run(capsys, "fit", "--expr", f"{BIG}*{BIG}", "--probe", "4")
        assert (code, out) == (1, "")
        assert err == "error: an output integer has more than 4300 digits\n"
