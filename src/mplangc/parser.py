"""Recursive-descent parser for the MPLang text grammar.

    text   := { name "=" expr ";" } expr
    expr   := term { "+" term }
    term   := number "*" factor | factor
    factor := number | "P" digits | name | ident "(" expr ")" | "<>" factor | "(" expr ")"
    name   := "$" digits
    ident  := "relu" | "id" | "tanh" | "sigmoid" | "sin" | "abs"

Numbers are decimal with optional sign, fraction, and exponent, and must be
finite as floats (``1e400`` is an error); whitespace, newlines included, is
insignificant.  The literal ``1`` denotes the unit constant; any other number
``a`` is shorthand for ``a*1``.

A binding ``$k = e;`` names e for the rest of its text, where ``$k`` reads as
e itself; this is how ``format_expr`` prints a long subterm that is read more
than once, so printed text grows with the DAG.  A name is bound at most once,
and only before it is used, so it means one node throughout its text.
Bindings are local to one text, so texts (the lines of an expression file) can
be parsed, and concatenated, on their own.

``parse`` returns a shared DAG: the node constructors hash-cons (see
``expressions``), so every repeated subterm is one node object, within one
text and across texts, and the walks over the result (see
``expressions.fold``) visit it once.

Parsing costs one scan of the text plus one descent linear in its tokens.  The
scan is a single ``findall``: it yields the tokens as strings, and the descent
reads a token's kind from its first character.  An unexpected character ends
the scan as one token holding the rest of the text, so it is found (and
reported before any grammar error) without a per-token loop; token positions
are recomputed only for an error message.  Text the toolkit writes names its
repeated subterms, so its tokens grow with the DAG; tree-form text, where they
are spelled out, is descended in full and interned back to the same nodes.

The descent is the one walk whose recursion depth grows with the input's
nesting; nesting deeper than the interpreter's recursion limit is a syntax
error.
"""

from __future__ import annotations

import math
import re
import string

from .activations import ABS, ID, RELU, SIGMOID, SIN, TANH
from .expressions import Add, Apply, Diamond, Expr, Proj, Scale, const

__all__ = ["parse", "MPLangSyntaxError"]

# One activation object per catalog name, shared by every parse, so a parsed
# expression holds no copy of it per application.
_FUNCTIONS = {f.name: f for f in (ID, RELU, TANH, SIGMOID, SIN, ABS)}


class MPLangSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Alternatives in order of preference: number, projection, identifier, name, <>,
# operator.
_TOKEN_RE = re.compile(
    r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
    r"|P\d+"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|\$\d+"
    r"|<>"
    r"|[+\-*()=;]"
)
# A token, or else an unexpected character together with the rest of the text,
# so the scan stops at the first one.
_SCAN_RE = re.compile(_TOKEN_RE.pattern + r"|(?s:\S.*)")
_LETTERS = frozenset(string.ascii_letters + "_")


def _position(text: str, k: int) -> int:
    """Where the k-th token of text starts; len(text) past the last one."""
    for j, m in enumerate(_SCAN_RE.finditer(text)):
        if j == k:
            return m.start()
    return len(text)


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for the end of input."""
    tokens = _SCAN_RE.findall(text)
    if tokens and _TOKEN_RE.fullmatch(tokens[-1]) is None:
        raise MPLangSyntaxError(f"unexpected character {tokens[-1][0]!r}",
                                _position(text, len(tokens) - 1))
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.names: dict[str, Expr] = {}

    def error(self, message: str) -> MPLangSyntaxError:
        return MPLangSyntaxError(message, _position(self.text, self.i))

    def expect(self, token: str) -> None:
        found = self.tokens[self.i]
        if found != token:
            raise self.error(f"expected {token!r}, found {found or 'end of input'!r}")
        self.i += 1

    # ---- grammar ----

    def bound_text(self) -> Expr:
        """The bindings at the cursor, then the one expression they are for."""
        while self.tokens[self.i][:1] == "$" and self.tokens[self.i + 1] == "=":
            name = self.tokens[self.i]
            if name in self.names:
                raise self.error(f"name {name!r} is bound twice")
            self.i += 2
            value = self.expr()
            self.expect(";")
            self.names[name] = value
        return self.expr()

    def expr(self) -> Expr:
        e = self.term()
        while self.tokens[self.i] == "+":
            self.i += 1
            e = Add(e, self.term())
        return e

    def _at_number(self) -> bool:
        tok = self.tokens[self.i]
        if tok in ("+", "-"):
            tok = self.tokens[self.i + 1]
        # Only a number starts with a digit or ".".
        return tok[:1].isdigit() or tok[:1] == "."

    def _signed_number(self) -> float:
        sign = 1.0
        if self.tokens[self.i] in ("+", "-"):
            if self.tokens[self.i] == "-":
                sign = -1.0
            self.i += 1
        value = float(self.tokens[self.i])
        if value == math.inf:
            raise self.error(f"number {self.tokens[self.i]!r} is out of range")
        self.i += 1
        return sign * value

    def term(self) -> Expr:
        if self._at_number():
            value = self._signed_number()
            if self.tokens[self.i] == "*":
                self.i += 1
                return Scale(value, self.factor())
            return const(value)
        return self.factor()

    def factor(self) -> Expr:
        tok = self.tokens[self.i]
        if self._at_number():
            return const(self._signed_number())
        if tok[:1] in _LETTERS:
            if tok[0] == "P" and tok[1:].isdigit():
                index = int(tok[1:])
                if index < 1:
                    raise self.error("projection index must be >= 1")
                self.i += 1
                return Proj(index)
            if tok not in _FUNCTIONS:
                raise self.error(f"unknown function {tok!r}")
            self.i += 1
            return Apply(_FUNCTIONS[tok], self.group())
        if tok[:1] == "$":
            if tok not in self.names:
                raise self.error(f"unbound name {tok!r}")
            self.i += 1
            return self.names[tok]
        if tok == "<>":
            self.i += 1
            return Diamond(self.factor())
        if tok == "(":
            return self.group()
        raise self.error(f"unexpected {tok or 'end of input'!r}")

    def group(self) -> Expr:
        """The expression in the group that opens at the cursor; the cursor moves past it."""
        self.expect("(")
        e = self.expr()
        self.expect(")")
        return e


def parse(text: str) -> Expr:
    """The shared DAG of one expression text, bindings and all."""
    p = _Parser(text)
    try:
        e = p.bound_text()
    except RecursionError:
        raise p.error("expression nested too deeply") from None
    if p.tokens[p.i]:
        raise p.error(f"unexpected {p.tokens[p.i]!r} after expression")
    return e
