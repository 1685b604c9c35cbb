"""Recursive-descent parser for polynomial expressions.

Grammar: integer literals (optionally num/den), declared variable names,
``+ - * ^`` and parentheses nested at most ``NESTING_LIMIT`` deep, so that
the descent stays well inside the interpreter's recursion limit.  Whitespace
is free.  Errors carry the byte offset of the offending token.
"""
from __future__ import annotations

import re

from .poly import Polynomial, PolyContext

EXPONENT_LIMIT = 100_000
NESTING_LIMIT = 64
PRODUCT_LIMIT = 250_000  # term pairs one product multiplies out


class PolySyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownVariable(PolySyntaxError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {name!r}", offset)
        self.name = name


class ExponentOverflow(PolySyntaxError):
    def __init__(self, value: int, offset: int):
        super().__init__(f"exponent {value} exceeds limit {EXPONENT_LIMIT}", offset)
        self.value = value


class ProductOverflow(PolySyntaxError):
    def __init__(self, pairs: int, offset: int):
        super().__init__(f"{pairs} term pairs exceed PRODUCT_LIMIT={PRODUCT_LIMIT}", offset)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolySyntaxError(f"unexpected character {text[at]!r}", at)
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, tokens, ctx: PolyContext):
        self.tokens = tokens
        self.i = 0
        self.ctx = ctx
        self.depth = 0  # parentheses open around the current token

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise PolySyntaxError(f"expected {op!r}", off)
        self.advance()

    def times(self, a: Polynomial, b: Polynomial, offset: int) -> Polynomial:
        """a * b, refused before it multiplies out too many term pairs."""
        if len(a.terms) * len(b.terms) > PRODUCT_LIMIT:
            raise ProductOverflow(len(a.terms) * len(b.terms), offset)
        return a * b

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise PolySyntaxError("trailing input", off)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = self.times(p, self.factor(), off)
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val, _ = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            self.advance()
            kind, val, _ = self.peek()
        p = self.atom()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                ekind, eval_, eoff = self.advance()
                if ekind != "int":
                    raise PolySyntaxError("exponent must be a non-negative integer literal", eoff)
                if eval_ > EXPONENT_LIMIT:
                    raise ExponentOverflow(eval_, eoff)
                if len(p.terms) == 1 and p.terms[0][1] == self.ctx.field.one:
                    # a monomial's power: its exponents times e, no product
                    p = Polynomial.monomial(self.ctx, tuple(a * eval_ for a in p.terms[0][0]))
                    continue
                base, p = p, Polynomial.from_int(self.ctx, 1)
                while eval_:  # by squaring, each product checked
                    if eval_ & 1:
                        p = self.times(p, base, off)
                    eval_ >>= 1
                    if eval_:
                        base = self.times(base, base, off)
            else:
                break
        if sign < 0:
            p = -p
        return p

    def atom(self) -> Polynomial:
        kind, val, off = self.advance()
        if kind == "int":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "/":
                # rational literal; keeps canonical printing parseable over Q
                self.advance()
                dkind, dval, doff = self.advance()
                if dkind != "int" or dval == 0:
                    raise PolySyntaxError("denominator must be a positive integer literal", doff)
                field = self.ctx.field
                if field.from_int(dval) == field.zero:
                    raise PolySyntaxError(
                        f"denominator {dval} is zero in the field {field.descriptor}", doff)
                return Polynomial.constant(self.ctx, field.rational(val, dval))
            return Polynomial.from_int(self.ctx, val)
        if kind == "name":
            if val not in self.ctx.variables:
                raise UnknownVariable(val, off)
            return Polynomial.variable(self.ctx, val)
        if kind == "op" and val == "(":
            if self.depth == NESTING_LIMIT:
                raise PolySyntaxError(
                    f"parentheses nested deeper than NESTING_LIMIT={NESTING_LIMIT}", off)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolySyntaxError("expected a literal, variable or parenthesis", off)


def parse_polynomial(text: str, ctx: PolyContext) -> Polynomial:
    return _Parser(_tokenize(text), ctx).parse()
