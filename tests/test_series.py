"""Series expression parsing."""

import operator
import random
from fractions import Fraction

import pytest

from qmult import exact, series
from qmult.exact import Polynomial, RationalFunction
from qmult.series import (
    MAX_NESTING,
    SeriesSemanticError,
    SeriesSyntaxError,
    parse_series,
)

from worked_examples import poly


def refuse_powers(monkeypatch, refuse):
    """Put ``refuse`` in place of the one list power, where exact defines it
    and where the parser imports it."""
    for module in (exact, series):
        monkeypatch.setattr(module, "_power", refuse)


class TestParse:
    def test_even_support_family(self):
        f = parse_series("t^2/(1-t^2)^2")
        assert f.num == poly(0, 0, 1)
        assert f.den == poly(1, 0, -1) ** 2

    def test_group_cohomology_series(self):
        f = parse_series("(1-t^4)/((1-t)*(1-t^2)*(1-t^3))")
        want = RationalFunction(
            poly(1, 0, 0, 0, -1), poly(1, -1) * poly(1, 0, -1) * poly(1, 0, 0, -1)
        )
        assert f == want

    def test_whitespace_insignificant(self):
        assert parse_series(" 1 / ( 1 - t ) ") == parse_series("1/(1-t)")

    def test_integer_literal(self):
        assert parse_series("7") == RationalFunction.const(7)

    def test_unary_minus_binds_looser_than_power(self):
        # -t^2 means -(t^2)
        f = parse_series("-t^2")
        assert f.num == poly(0, 0, -1)

    def test_left_associative_subtraction(self):
        assert parse_series("1-t-t") == parse_series("1-2*t")

    def test_left_associative_division(self):
        assert parse_series("4/2/2") == RationalFunction.const(1)

    def test_power_of_parenthesized(self):
        assert parse_series("(1-t)^2") == parse_series("1-2*t+t^2")

    def test_no_implicit_multiplication(self):
        with pytest.raises(SeriesSyntaxError):
            parse_series("(1-t)(1+t)")


class TestErrors:
    def test_unclosed_paren_offset(self):
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series("1/(t")
        assert info.value.offset == 4
        assert "')'" in info.value.expected

    def test_expected_tokens_at_empty_atom(self):
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series("1+")
        assert info.value.offset == 2
        assert "integer" in info.value.expected

    def test_unexpected_integer_is_shown_by_value(self):
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series("t 2")
        assert str(info.value) == (
            "syntax error at offset 2: found integer 2, expected '+', '-', '*', '/', end of input"
        )

    def test_non_integer_exponent(self):
        with pytest.raises(SeriesSyntaxError):
            parse_series("t^(2)")

    def test_non_ascii_rejected(self):
        with pytest.raises(SeriesSyntaxError):
            parse_series("1-t²")

    @pytest.mark.parametrize(
        "text, offset",
        [("9" * 5000, 0), ("1-t^1" + "0" * 5000, 4)],
        ids=["number", "exponent"],
    )
    def test_too_many_digits_is_syntax_error(self, text, offset):
        # int() refuses more than 4300 digits with a plain ValueError.
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series(text)
        assert info.value.offset == offset
        assert info.value.found == f"an integer of {len(text) - offset} digits"
        assert info.value.expected == ("an integer of at most 4300 digits",)

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(" * 900 + "t" + ")" * 900, 100),
            ("-" * 5000 + "t", 100),
            ("-(" * 60 + "t" + ")" * 60, 100),
        ],
        ids=["parentheses", "minus_signs", "mixed"],
    )
    def test_deep_nesting_is_syntax_error(self, text, offset):
        # The recursive descent raised RecursionError here.
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series(text)
        assert info.value.offset == offset
        assert info.value.found == "an expression nested too deeply"
        assert info.value.expected == (
            f"at most {MAX_NESTING} nested parentheses and unary minus signs",
        )

    def test_nesting_up_to_the_limit_parses(self):
        assert parse_series("(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == parse_series("t")
        assert parse_series("-" * MAX_NESTING + "t") == parse_series("t")

    @pytest.mark.parametrize("op", ["+", "-", "*", "^1*"])
    def test_long_operator_chain_evaluates(self, op):
        # A chain parses to a left spine as deep as it is long; evaluating
        # it by recursion raised RecursionError.
        f = parse_series("t" + (op + "t") * 3000)
        want = {"+": 3001 * Polynomial.t(), "-": -2999 * Polynomial.t()}
        if op in want:
            assert f == RationalFunction.from_polynomial(want[op])
        else:
            assert f.num.degree == 3001

    def test_semantic_error_names_subexpression(self):
        with pytest.raises(SeriesSemanticError) as info:
            parse_series("1/(t*(1-t))")
        assert info.value.fragment == "(t*(1-t))"

    def test_zero_denominator(self):
        with pytest.raises(SeriesSemanticError):
            parse_series("1/0")


class TestErrorPrecedence:
    """The parser folds as it goes; errors must still come out as if the whole
    input were parsed before any arithmetic."""

    def test_syntax_error_after_failing_divisor_comes_first(self):
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series("1/0+(")
        assert info.value.offset == 5
        assert info.value.found == "end of input"

    def test_first_failing_divisor_is_reported(self):
        with pytest.raises(SeriesSemanticError) as info:
            parse_series("t/t/0")
        assert (info.value.fragment, info.value.start, info.value.end) == ("t", 2, 3)

    def test_no_arithmetic_after_failing_divisor(self, monkeypatch):
        def refuse(coefficients, n):
            raise AssertionError("a power was computed after the failing divisor")

        refuse_powers(monkeypatch, refuse)
        with pytest.raises(SeriesSemanticError) as info:
            parse_series("1/0*t^2")
        assert info.value.fragment == "0"


    def test_syntax_error_costs_no_arithmetic(self, monkeypatch):
        # Folding (1-t)^3000 took seconds before the syntax error at the end.
        def refuse(coefficients, n):
            raise AssertionError("a power was computed before the syntax was checked")

        refuse_powers(monkeypatch, refuse)
        with pytest.raises(SeriesSyntaxError) as info:
            parse_series("(1-t)^3+(")
        assert info.value.offset == 9
        assert info.value.found == "end of input"


class TestRoundTrip:
    def test_pretty_print_reparses(self):
        for text in (
            "t^2/(1-t^2)^2",
            "(1-t^4)/((1-t)*(1-t^2)*(1-t^3))",
            "1/(1-t)^5",
            "3-t^3",
        ):
            f = parse_series(text)
            assert parse_series(str(f)) == f


def _random_division_free(rng, depth=0):
    """Random expression text with no division, its precedence level (0 sum,
    1 product, 2 unary minus, 3 power or atom) and the function of x that it
    denotes, built alongside the text with no parser."""
    choices = ["int", "t"]
    if depth < 4:
        choices += ["add", "sub", "mul", "neg", "pow", "paren"]
    kind = rng.choice(choices)
    if kind == "int":
        c = rng.randint(0, 9)
        return str(c), 3, lambda x: Fraction(c)
    if kind == "t":
        return "t", 3, lambda x: x

    def operand(level):
        text, got, value = _random_division_free(rng, depth + 1)
        return (text if got >= level else f"({text})"), value

    if kind == "neg":
        text, value = operand(2)
        return "-" + text, 2, lambda x: -value(x)
    if kind == "pow":
        text, value = operand(3)
        k = rng.randint(0, 3)
        return f"{text}^{k}", 3, lambda x: value(x) ** k
    if kind == "paren":
        text, _, value = _random_division_free(rng, depth + 1)
        return f"({text})", 3, value
    symbol, level, op = {
        "add": ("+", 0, operator.add),
        "sub": ("-", 0, operator.sub),
        "mul": ("*", 1, operator.mul),
    }[kind]
    lhs_text, lhs = operand(level)
    rhs_text, rhs = operand(level + 1)
    return f"{lhs_text}{symbol}{rhs_text}", level, lambda x: op(lhs(x), rhs(x))


def test_division_free_matches_direct_evaluation():
    # Oracle: the parsed rational function agrees, at five rational points,
    # with the value function built alongside the random text.
    rng = random.Random(7)
    points = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]
    for _ in range(40):
        text, _, value = _random_division_free(rng)
        f = parse_series(text)
        assert f.den == Polynomial((Fraction(1),))
        for x in points:
            assert f.num(x) == value(x), text
