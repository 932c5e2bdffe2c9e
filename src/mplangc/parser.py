"""Recursive-descent parser for the MPLang text grammar.

    expr   := term { "+" term }
    term   := number "*" factor | factor
    factor := number | "P" digits | ident "(" expr ")" | "<>" factor | "(" expr ")"
    ident  := "relu" | "id" | "tanh" | "sigmoid" | "sin" | "abs"

Numbers are decimal with optional sign, fraction, and exponent; whitespace is
insignificant.  The literal ``1`` denotes the unit constant; any other number
``a`` is shorthand for ``a*1``.

``parse`` returns a shared DAG: within one call, every repeated subterm is one
node object, so the walks over the result (see ``expressions.fold``) visit it
once.  The descent is the one walk whose recursion depth grows with the
input's nesting; nesting deeper than the interpreter's recursion limit is a
syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .activations import Named, _NAMED
from .expressions import Add, Apply, Diamond, Expr, One, Proj, Scale

__all__ = ["parse", "MPLangSyntaxError"]


_NODE_TYPES = (One, Proj, Scale, Add, Apply, Diamond)


class MPLangSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<proj>P\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<diamond><>)"
    r"|(?P<op>[+\-*()]))"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest == "":
                break
            raise MPLangSyntaxError(f"unexpected character {rest[0]!r}",
                                    pos + len(text[pos:]) - len(rest))
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append(_Token(kind if kind != "op" else value, value, m.start(kind)))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nodes: dict[tuple, Expr] = {}

    def node(self, cls: type, *fields) -> Expr:
        """The one node of this parse with this type and these fields.

        Children are keyed by id, scalars by repr, so -0.0 stays apart from 0.0.
        """
        key = (cls, *[id(f) if isinstance(f, _NODE_TYPES) else repr(f) for f in fields])
        found = self.nodes.get(key)
        if found is None:
            found = self.nodes[key] = cls(*fields)
        return found

    def number(self, value: float) -> Expr:
        return self.node(One) if value == 1.0 else self.node(Scale, value, self.node(One))

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise MPLangSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                    tok.pos)
        return tok

    # ---- grammar ----

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "+":
            self.next()
            e = self.node(Add, e, self.term())
        return e

    def _at_number(self) -> bool:
        tok = self.peek()
        if tok.kind == "number":
            return True
        return tok.kind in ("+", "-") and self.peek(1).kind == "number"

    def _signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind in ("+", "-"):
            if self.next().kind == "-":
                sign = -1.0
        tok = self.expect("number")
        return sign * float(tok.text)

    def term(self) -> Expr:
        if self._at_number():
            value = self._signed_number()
            if self.peek().kind == "*":
                self.next()
                return self.node(Scale, value, self.factor())
            return self.number(value)
        return self.factor()

    def factor(self) -> Expr:
        tok = self.peek()
        if self._at_number():
            return self.number(self._signed_number())
        if tok.kind == "proj":
            self.next()
            index = int(tok.text[1:])
            if index < 1:
                raise MPLangSyntaxError("projection index must be >= 1", tok.pos)
            return self.node(Proj, index)
        if tok.kind == "ident":
            self.next()
            if tok.text not in _NAMED:
                raise MPLangSyntaxError(f"unknown function {tok.text!r}", tok.pos)
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return self.node(Apply, Named(tok.text), arg)
        if tok.kind == "diamond":
            self.next()
            return self.node(Diamond, self.factor())
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise MPLangSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str) -> Expr:
    p = _Parser(text)
    try:
        e = p.expr()
    except RecursionError:
        raise MPLangSyntaxError("expression nested too deeply", p.peek().pos) from None
    trailing = p.peek()
    if trailing.kind != "eof":
        raise MPLangSyntaxError(f"unexpected {trailing.text!r} after expression", trailing.pos)
    return e
