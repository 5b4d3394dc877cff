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

The input is tokenized once and parsed twice.  The first pass checks the syntax
and computes nothing, so a syntax error anywhere comes first and costs no
arithmetic.  The second folds each operator into a :class:`RationalFunction` as
soon as both operands are parsed, so operator chains fold in loops and only '('
and unary minus recurse.  A divisor with a zero constant term is a semantic
error naming the offending subexpression; no arithmetic runs after it.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .exact import NotExpandableError, Polynomial, QmultError, RationalFunction


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "t", one of +-*/^(), or "eof"
    offset: int
    value: int = 0
    end: int = -1

    @property
    def display(self) -> str:
        if self.kind == "int":
            return f"integer {self.value}"
        if self.kind == "eof":
            return "end of input"
        return _TOKEN_NAMES.get(self.kind, repr(self.kind))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if not ch.isascii():
            raise SeriesSyntaxError(i, repr(ch), ("ASCII input",))
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than the interpreter converts
                raise SeriesSyntaxError(
                    i,
                    f"an integer of {j - i} digits",
                    (f"an integer of at most {sys.get_int_max_str_digits()} digits",),
                ) from None
            tokens.append(_Token("int", i, value, j))
            i = j
            continue
        if ch == "t" or ch in _TOKEN_NAMES:
            tokens.append(_Token(ch, i, 0, i + 1))
            i += 1
            continue
        raise SeriesSyntaxError(i, repr(ch), ("integer", "'t'", "operator", "'('", "')'"))
    tokens.append(_Token("eof", len(text), 0, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], fold: bool):
        self.text = text
        self.tokens = tokens
        self.fold = fold  # False: check the syntax and compute nothing
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, expected: tuple[str, ...]) -> SeriesSyntaxError:
        tok = self.current
        return SeriesSyntaxError(tok.offset, tok.display, expected)

    def _eat(self, kind: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            raise self._fail((_TOKEN_NAMES.get(kind, kind),))
        self.pos += 1
        return tok

    def _fold(self, op, *operands) -> RationalFunction | None:
        """``op(*operands)``, or None when only the syntax is checked."""
        return op(*operands) if self.fold else None

    def _nested(self, parse, tok: _Token) -> RationalFunction | None:
        """``parse()`` one nesting level below ``tok``, a '(' or a unary '-'."""
        if self.depth == MAX_NESTING:
            expected = f"at most {MAX_NESTING} nested parentheses and unary minus signs"
            raise SeriesSyntaxError(tok.offset, "an expression nested too deeply", (expected,))
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.current.kind != "eof":
            raise self._fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return value

    def expr(self) -> RationalFunction | None:
        value = self.term()
        while self.current.kind in ("+", "-"):
            op = operator.add if self._eat(self.current.kind).kind == "+" else operator.sub
            value = self._fold(op, value, self.term())
        return value

    def term(self) -> RationalFunction | None:
        value = self.unary()
        while self.current.kind in ("*", "/"):
            op = operator.mul if self._eat(self.current.kind).kind == "*" else operator.truediv
            start = self.current.offset
            try:  # a division in the divisor has raised its own error already
                value = self._fold(op, value, self.unary())
            except NotExpandableError:  # raised only by a division
                end = self.tokens[self.pos - 1].end
                raise SeriesSemanticError(
                    "denominator has zero constant term", start, end, self.text[start:end]
                ) from None
        return value

    def unary(self) -> RationalFunction | None:
        if self.current.kind == "-":
            tok = self._eat("-")
            return self._fold(operator.neg, self._nested(self.unary, tok))
        return self.power()

    def power(self) -> RationalFunction | None:
        value = self.atom()
        while self.current.kind == "^":
            self._eat("^")
            if self.current.kind != "int":
                raise self._fail(("nonnegative integer exponent",))
            value = self._fold(operator.pow, value, self._eat("int").value)
        return value

    def atom(self) -> RationalFunction | None:
        tok = self.current
        if tok.kind in ("int", "t"):
            self._eat(tok.kind)
            p = Polynomial.t() if tok.kind == "t" else Polynomial.const(tok.value)
            return self._fold(RationalFunction.from_polynomial, p)
        if tok.kind == "(":
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
    return _Parser(text, tokens, fold=True).parse()
