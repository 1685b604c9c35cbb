"""Dense-exponent multivariate polynomials over an exact field.

Monomials are plain int tuples (one slot per variable, total degree is just
``sum``); ``monomial`` holds their arithmetic.  A ``PolyContext`` bundles
variable names, the coefficient field and the active monomial order; contexts
are interned so identity comparison works and sort keys can be memoized per
context.  A polynomial lives in the one context it was built in: nothing
converts between contexts, and arithmetic across two of them raises
``ContextMismatch``.  ``add_multiple`` is the one coefficient-accumulation
loop; only the hot normal form (``groebner._nf_dict``) inlines its own, one
loop for both kinds of field.
"""
from __future__ import annotations

from typing import Iterable

from .monomial import mul
from .orders import MonomialOrder

Monomial = tuple  # exponent vector; degree = sum(m)


class ContextMismatch(ValueError):
    """Operands live in different ring contexts."""


def add_multiple(out: dict, terms, c, shift: Monomial, field) -> dict:
    """out += c * x^shift * terms in place, dropping zero coefficients; every
    value goes through ``field.mul`` and ``field.add``, so it is canonical."""
    fmul, fadd = field.mul, field.add
    for m, t in terms:
        mm = mul(m, shift)
        prev = out.get(mm)
        v = fmul(c, t) if prev is None else fadd(prev, fmul(c, t))
        if v:
            out[mm] = v
        elif prev is not None:
            del out[mm]
    return out


_CONTEXTS: dict = {}


class PolyContext:
    """Interned ring context: variable names, field, active monomial order."""

    __slots__ = ("variables", "field", "order", "_keys", "_negkeys", "descriptor")

    def __init__(self, variables: tuple, field, order: MonomialOrder):
        self.variables = variables
        self.field = field
        self.order = order
        self._keys: dict = {}
        self._negkeys: dict = {}
        self.descriptor = f"{','.join(variables)}|{field.descriptor}|{order.descriptor}"

    @staticmethod
    def get(variables: Iterable[str], field, order: MonomialOrder) -> "PolyContext":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        if order.nvars != len(variables):
            raise ValueError("order width does not match variable count")
        ck = (variables, field, order)
        ctx = _CONTEXTS.get(ck)
        if ctx is None:
            ctx = _CONTEXTS[ck] = PolyContext(variables, field, order)
        return ctx

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, m: Monomial) -> tuple:
        k = self._keys.get(m)
        if k is None:
            k = self._keys[m] = self.order.key(m)
        return k

    def negkey(self, m: Monomial) -> tuple:
        k = self._negkeys.get(m)
        if k is None:
            k = self._negkeys[m] = tuple(-c for c in self.order.key(m))
        return k

    def zero_mono(self) -> Monomial:
        return (0,) * self.nvars

    def var_mono(self, i: int, e: int = 1) -> Monomial:
        m = [0] * self.nvars
        m[i] = e
        return tuple(m)

    def __repr__(self):
        return f"PolyContext({self.descriptor})"


class Polynomial:
    """Immutable polynomial; terms kept sorted descending in the active order."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: PolyContext, terms: dict):
        self.ctx = ctx
        key = ctx.key
        self.terms = tuple(sorted(terms.items(), key=lambda t: key(t[0]), reverse=True))
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(ctx: PolyContext) -> "Polynomial":
        return Polynomial(ctx, {})

    @staticmethod
    def constant(ctx: PolyContext, c) -> "Polynomial":
        if not c:
            return Polynomial(ctx, {})
        return Polynomial(ctx, {ctx.zero_mono(): c})

    @staticmethod
    def from_int(ctx: PolyContext, n: int) -> "Polynomial":
        return Polynomial.constant(ctx, ctx.field.from_int(n))

    @staticmethod
    def variable(ctx: PolyContext, name: str) -> "Polynomial":
        i = ctx.variables.index(name)
        return Polynomial(ctx, {ctx.var_mono(i): ctx.field.one})

    @staticmethod
    def monomial(ctx: PolyContext, m: Monomial, c=None) -> "Polynomial":
        if c is None:
            c = ctx.field.one
        if not c:
            return Polynomial(ctx, {})
        p = Polynomial.__new__(Polynomial)
        p.ctx, p.terms, p._hash = ctx, ((tuple(m), c),), None
        return p

    def as_dict(self) -> dict:
        return dict(self.terms)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return self.terms[0][0]

    def lead_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead coefficient")
        return self.terms[0][1]

    def constant_term(self):
        z = self.ctx.zero_mono()
        for m, c in self.terms:
            if m == z:
                return c
        return self.ctx.field.zero

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx is not other.ctx:
            raise ContextMismatch(
                f"operands in different contexts: {self.ctx.descriptor} vs {other.ctx.descriptor}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        ctx, one = self.ctx, self.ctx.field.one
        return Polynomial(ctx, add_multiple(dict(self.terms), other.terms, one,
                                            ctx.zero_mono(), ctx.field))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        field = self.ctx.field
        return Polynomial(self.ctx, {m: field.neg(c) for m, c in self.terms})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        field = self.ctx.field
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        for m, c in a:
            add_multiple(out, b, c, m, field)
        return Polynomial(self.ctx, out)

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.ctx)
        field = self.ctx.field
        return Polynomial(self.ctx, {m: field.mul(c, v) for m, v in self.terms})

    def shift(self, m: Monomial) -> "Polynomial":
        """Multiply by a monomial."""
        return Polynomial(self.ctx, {mul(m, mm): c for mm, c in self.terms})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        # exponents here are at most a job's power_bound; the parser squares
        out = Polynomial.constant(self.ctx, self.ctx.field.one)
        for _ in range(n):
            out = out * self
        return out

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ctx.field.one:
            return self
        field = self.ctx.field
        inv = field.inv(lc)
        return Polynomial(self.ctx, {m: field.mul(inv, c) for m, c in self.terms})

    # -- comparison and printing -----------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ctx is other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.descriptor, self.terms))
        return self._hash

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<{poly_to_str(self)}>"


def poly_to_str(p: Polynomial) -> str:
    """Canonical print: descending order, ^ powers, explicit *."""
    if p.is_zero:
        return "0"
    ctx = p.ctx
    field = ctx.field
    parts = []
    for m, c in p.terms:
        body = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(ctx.variables, m) if e)
        cs = field.to_str(c)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if not body:
            chunk = cs
        elif cs == "1":
            chunk = body
        else:
            chunk = f"{cs}*{body}"
        if not parts:
            parts.append(f"-{chunk}" if negative else chunk)
        else:
            parts.append(f"- {chunk}" if negative else f"+ {chunk}")
    return " ".join(parts)
