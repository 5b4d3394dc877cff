"""Parser for written series expressions like ``(1-t^4)/((1-t)*(1-t^2)*(1-t^3))``.

The grammar is tiny and fixed, so this is a plain recursive-descent parser:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)*
    atom   := INT | 't' | '(' expr ')'

Binary operators associate left.  '^' binds tighter than unary minus, so
``-t^2`` means -(t^2).  Exponents must be nonnegative integer literals.
Implicit multiplication is not supported: adjacent factors need '*'.
Whitespace is insignificant; input must be ASCII.  Parentheses and unary
minus signs nest at most ``MAX_NESTING`` deep, inside the recursion limit.

The input is tokenized once, into plain tuples, and parsed twice.  The first
pass checks the syntax and computes nothing, so a syntax error anywhere comes
first and costs no arithmetic.  The second folds each operator as soon as both
operands are parsed, so operator chains fold in loops and only '(' and unary
minus recurse.  The only atoms are integers and ``t``, so every numerator
and denominator is an integer polynomial: the fold runs on (numerator,
denominator) pairs of plain integer coefficient lists, forms no product by a
denominator 1, and builds one :class:`RationalFunction`, its only
polynomials, at the end.  Its product, power and trimmed sum are the integer
list kernels of :mod:`qmult.exact`, the ones ``Polynomial`` runs on.  A
divisor with a zero constant term is a semantic error naming the offending
subexpression; no arithmetic runs after it.
"""

from __future__ import annotations

import re
import sys

from .exact import Polynomial, QmultError, RationalFunction, _combine, _power, _product


MAX_NESTING = 100


class SeriesSyntaxError(QmultError):
    """Malformed input, with the byte offset and the expected-token set."""

    def __init__(self, offset: int, found: str, expected: tuple[str, ...]):
        self.offset = offset
        self.found = found
        self.expected = expected
        want = ", ".join(expected)
        super().__init__(f"syntax error at offset {offset}: found {found}, expected {want}")


class SeriesSemanticError(QmultError):
    """Well-formed input that denotes no expandable series."""

    def __init__(self, message: str, start: int, end: int, fragment: str):
        self.start = start
        self.end = end
        self.fragment = fragment
        super().__init__(f"{message} in subexpression {fragment!r} at offsets {start}..{end}")


_TOKEN_NAMES = {
    "+": "'+'",
    "-": "'-'",
    "*": "'*'",
    "/": "'/'",
    "^": "'^'",
    "(": "'('",
    ")": "')'",
}

# A token is a plain tuple (kind, offset, value, end): kind is "int", "t", one
# of +-*/^() or "eof", and value is the integer of an "int" token, else 0.
_Token = tuple[str, int, int, int]
_LEXEME = re.compile(r"([0-9]+)|([-+*/^()t])|[ \t\r\n]+|(.)", re.S)


def _display(tok: _Token) -> str:
    kind = tok[0]
    if kind == "int":
        return f"integer {tok[2]}"
    if kind == "eof":
        return "end of input"
    return _TOKEN_NAMES.get(kind, repr(kind))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _LEXEME.finditer(text):
        digits, symbol, other = match.groups()
        i = match.start()
        if symbol is not None:
            tokens.append((symbol, i, 0, i + 1))
        elif digits is not None:
            try:
                value = int(digits)
            except ValueError:  # more digits than the interpreter converts
                raise SeriesSyntaxError(
                    i,
                    f"an integer of {len(digits)} digits",
                    (f"an integer of at most {sys.get_int_max_str_digits()} digits",),
                ) from None
            tokens.append(("int", i, value, match.end()))
        elif other is not None:
            if not other.isascii():
                raise SeriesSyntaxError(i, repr(other), ("ASCII input",))
            raise SeriesSyntaxError(i, repr(other), ("integer", "'t'", "operator", "'('", "')'"))
    tokens.append(("eof", len(text), 0, len(text)))
    return tokens


# The second pass folds each operator into a pair (num, den) of integer
# coefficient lists, constant term first with no trailing zeros (the zero
# polynomial is []), with None for a denominator 1 so that no product by it is
# formed; every denominator has a nonzero constant term.  The pair becomes a
# RationalFunction once, at the end: each operation is linear in a scaling of
# its operands' pairs, so that is the function a fold of normalized operands
# gives.  Operations build new lists, with exact's list kernels, and never
# change their operands.
_Coefficients = list[int]
_Pair = tuple[_Coefficients, "_Coefficients | None"]


def _times(p: _Coefficients | None, q: _Coefficients | None) -> _Coefficients | None:
    """p * q, with None standing for 1."""
    if p is None:
        return q
    return p if q is None else _product(p, q)


def _add(a: _Pair, b: _Pair) -> _Pair:
    return _combine(_times(a[0], b[1]), _times(b[0], a[1]), 1), _times(a[1], b[1])


def _sub(a: _Pair, b: _Pair) -> _Pair:
    return _combine(_times(a[0], b[1]), _times(b[0], a[1]), -1), _times(a[1], b[1])


def _mul(a: _Pair, b: _Pair) -> _Pair:
    return _product(a[0], b[0]), _times(a[1], b[1])


def _div(a: _Pair, b: _Pair) -> _Pair:
    return _times(a[0], b[1]), _times(a[1], b[0])


def _neg(a: _Pair) -> _Pair:
    return [-c for c in a[0]], a[1]


def _pow(a: _Pair, n: int) -> _Pair:
    return _power(a[0], n), None if a[1] is None else _power(a[1], n)


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], fold: bool):
        self.text = text
        self.tokens = tokens
        self.fold = fold  # False: check the syntax and compute nothing
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def _fail(self, expected: tuple[str, ...]) -> SeriesSyntaxError:
        tok = self.tokens[self.pos]
        return SeriesSyntaxError(tok[1], _display(tok), expected)

    def _eat(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self._fail((_TOKEN_NAMES.get(kind, kind),))
        self.pos += 1
        return tok

    def _fold(self, op, *operands) -> _Pair | None:
        """``op(*operands)``, or None when only the syntax is checked."""
        return op(*operands) if self.fold else None

    def _nested(self, parse, tok: _Token) -> _Pair | None:
        """``parse()`` one nesting level below ``tok``, a '(' or a unary '-'."""
        if self.depth == MAX_NESTING:
            expected = f"at most {MAX_NESTING} nested parentheses and unary minus signs"
            raise SeriesSyntaxError(tok[1], "an expression nested too deeply", (expected,))
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> _Pair | None:
        value = self.expr()
        if self.kind != "eof":
            raise self._fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return value

    def expr(self) -> _Pair | None:
        value = self.term()
        while self.kind in ("+", "-"):
            op = _add if self._eat(self.kind)[0] == "+" else _sub
            value = self._fold(op, value, self.term())
        return value

    def term(self) -> _Pair | None:
        value = self.unary()
        while self.kind in ("*", "/"):
            divide = self._eat(self.kind)[0] == "/"
            start = self.tokens[self.pos][1]
            operand = self.unary()  # a division in it has raised its own error already
            if divide and self.fold and operand[0][:1] in ([], [0]):
                end = self.tokens[self.pos - 1][3]
                raise SeriesSemanticError(
                    "denominator has zero constant term", start, end, self.text[start:end]
                )
            value = self._fold(_div if divide else _mul, value, operand)
        return value

    def unary(self) -> _Pair | None:
        if self.kind == "-":
            tok = self._eat("-")
            return self._fold(_neg, self._nested(self.unary, tok))
        return self.power()

    def power(self) -> _Pair | None:
        value = self.atom()
        while self.kind == "^":
            self._eat("^")
            if self.kind != "int":
                raise self._fail(("nonnegative integer exponent",))
            value = self._fold(_pow, value, self._eat("int")[2])
        return value

    def atom(self) -> _Pair | None:
        kind, _, number, _ = tok = self.tokens[self.pos]
        if kind in ("int", "t"):
            self.pos += 1
            if self.fold:
                return ([0, 1] if kind == "t" else [number] if number else []), None
            return None
        if kind == "(":
            self._eat("(")
            value = self._nested(self.expr, tok)
            self._eat(")")
            return value
        raise self._fail(("integer", "'t'", "'-'", "'('"))


def parse_series(text: str) -> RationalFunction:
    """Parse a series expression into a RationalFunction.

    >>> parse_series("t^2/(1-t^2)^2").num
    Polynomial('t^2')
    """
    tokens = _tokenize(text)
    _Parser(text, tokens, fold=False).parse()
    num, den = _Parser(text, tokens, fold=True).parse()
    return RationalFunction(
        Polynomial._from_integers(num, 1), Polynomial._from_integers(den or [1], 1)
    )
