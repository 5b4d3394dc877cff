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

Parsing produces an AST of :class:`Node` values carrying byte spans, which
evaluates to a :class:`RationalFunction`.  A division whose divisor has a zero
constant term is a semantic error reported with the offending subexpression.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .exact import NotExpandableError, Polynomial, RationalFunction


MAX_NESTING = 100


class SeriesSyntaxError(ValueError):
    """Malformed input, with the byte offset and the expected-token set."""

    def __init__(self, offset: int, found: str, expected: tuple[str, ...]):
        self.offset = offset
        self.found = found
        self.expected = expected
        want = ", ".join(expected)
        super().__init__(f"syntax error at offset {offset}: found {found}, expected {want}")


class SeriesSemanticError(ValueError):
    """Well-formed input that denotes no expandable series."""

    def __init__(self, message: str, start: int, end: int, fragment: str):
        self.start = start
        self.end = end
        self.fragment = fragment
        super().__init__(f"{message} in subexpression {fragment!r} at offsets {start}..{end}")


@dataclass(frozen=True)
class Node:
    """AST node: kind is one of int, t, neg, add, sub, mul, div, pow."""

    kind: str
    start: int
    end: int
    value: int = 0
    children: tuple["Node", ...] = ()


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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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

    def _nested(self, parse, tok: _Token) -> Node:
        """``parse()`` one nesting level below ``tok``, a '(' or a unary '-'."""
        if self.depth == MAX_NESTING:
            expected = f"at most {MAX_NESTING} nested parentheses and unary minus signs"
            raise SeriesSyntaxError(tok.offset, "an expression nested too deeply", (expected,))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> Node:
        node = self.expr()
        if self.current.kind != "eof":
            raise self._fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self._eat(self.current.kind)
            rhs = self.term()
            kind = "add" if op.kind == "+" else "sub"
            node = Node(kind, node.start, rhs.end, children=(node, rhs))
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.current.kind in ("*", "/"):
            op = self._eat(self.current.kind)
            rhs = self.unary()
            kind = "mul" if op.kind == "*" else "div"
            node = Node(kind, node.start, rhs.end, children=(node, rhs))
        return node

    def unary(self) -> Node:
        if self.current.kind == "-":
            tok = self._eat("-")
            inner = self._nested(self.unary, tok)
            return Node("neg", tok.offset, inner.end, children=(inner,))
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.current.kind == "^":
            self._eat("^")
            if self.current.kind != "int":
                raise self._fail(("nonnegative integer exponent",))
            exp = self._eat("int")
            node = Node("pow", node.start, exp.end, exp.value, (node,))
        return node

    def atom(self) -> Node:
        tok = self.current
        if tok.kind in ("int", "t"):
            self._eat(tok.kind)
            return Node(tok.kind, tok.offset, tok.end, tok.value)
        if tok.kind == "(":
            self._eat("(")
            node = self._nested(self.expr, tok)
            close = self._eat(")")
            return Node(node.kind, tok.offset, close.offset + 1, node.value, node.children)
        raise self._fail(("integer", "'t'", "'-'", "'('"))


def parse_expression(text: str) -> Node:
    """Parse source text into an AST without evaluating it."""
    return _Parser(text).parse()


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def evaluate_expression(node: Node, source: str) -> RationalFunction:
    """Fold an AST into a RationalFunction, reporting non-expandable divisors.

    A chain like ``t+t+...+t`` is a left spine as deep as it is long, so the
    spine is folded in a loop; only right operands and signs recurse.
    """
    spine = []
    while node.kind in _BINARY or node.kind == "pow":
        spine.append(node)
        node = node.children[0]
    if node.kind == "int":
        value = RationalFunction.const(node.value)
    elif node.kind == "t":
        value = RationalFunction.from_polynomial(Polynomial.t())
    else:
        value = -evaluate_expression(node.children[0], source)
    for node in reversed(spine):
        if node.kind == "pow":
            value = value ** node.value
            continue
        rhs = node.children[1]
        try:
            value = _BINARY[node.kind](value, evaluate_expression(rhs, source))
        except NotExpandableError:  # raised only by a division
            fragment = source[rhs.start : rhs.end]
            raise SeriesSemanticError(
                "denominator has zero constant term", rhs.start, rhs.end, fragment
            ) from None
    return value


def parse_series(text: str) -> RationalFunction:
    """Parse a series expression into a RationalFunction.

    >>> parse_series("t^2/(1-t^2)^2").num
    Polynomial('t^2')
    """
    return evaluate_expression(parse_expression(text), text)
