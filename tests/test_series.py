"""Series expression parsing."""

import random
from fractions import Fraction

import pytest

from qmult.exact import Polynomial, RationalFunction
from qmult.series import (
    SeriesSemanticError,
    SeriesSyntaxError,
    parse_expression,
    parse_series,
)


def poly(*coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


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

    def test_semantic_error_names_subexpression(self):
        with pytest.raises(SeriesSemanticError) as info:
            parse_series("1/(t*(1-t))")
        assert info.value.fragment == "(t*(1-t))"

    def test_zero_denominator(self):
        with pytest.raises(SeriesSemanticError):
            parse_series("1/0")


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
    """Random expression text with no division, plus its expected nature."""
    choices = ["int", "t"]
    if depth < 4:
        choices += ["add", "sub", "mul", "neg", "pow", "paren"]
    kind = rng.choice(choices)
    if kind == "int":
        return str(rng.randint(0, 9))
    if kind == "t":
        return "t"
    if kind == "neg":
        return "-" + _random_division_free(rng, depth + 1)
    if kind == "pow":
        return f"({_random_division_free(rng, depth + 1)})^{rng.randint(0, 3)}"
    if kind == "paren":
        return f"({_random_division_free(rng, depth + 1)})"
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    lhs = _random_division_free(rng, depth + 1)
    rhs = _random_division_free(rng, depth + 1)
    return f"{lhs}{op}{rhs}"


def evaluate_at(node, x):
    """Oracle: numeric evaluation of a parsed AST at a rational point, with no
    series logic."""
    if node.kind == "int":
        return Fraction(node.value)
    if node.kind == "t":
        return Fraction(x)
    if node.kind == "neg":
        return -evaluate_at(node.children[0], x)
    if node.kind == "pow":
        return evaluate_at(node.children[0], x) ** node.value
    a = evaluate_at(node.children[0], x)
    b = evaluate_at(node.children[1], x)
    if node.kind == "add":
        return a + b
    if node.kind == "sub":
        return a - b
    if node.kind == "mul":
        return a * b
    if node.kind == "div":
        return a / b
    raise AssertionError(f"unknown node kind {node.kind}")


def test_division_free_matches_direct_evaluation():
    # Oracle: the parsed rational function agrees with naive AST evaluation
    # at five rational points.
    rng = random.Random(7)
    points = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]
    for _ in range(40):
        text = _random_division_free(rng)
        node = parse_expression(text)
        f = parse_series(text)
        assert f.den == Polynomial((Fraction(1),))
        for x in points:
            assert f.num(x) == evaluate_at(node, x)
