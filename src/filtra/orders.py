"""Monomial orders as flat integer sort keys.

Every order maps an exponent vector to a tuple of ints such that u > v as
monomials exactly when key(u) > key(v) as tuples.  Flat integer tuples keep
the keys heap-friendly and negatable componentwise.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative total order on exponent vectors of a fixed width."""

    kind: str            # "grevlex" | "lex" | "elim:<k>"
    nvars: int
    block: int = 0       # number of leading variables in the elimination block

    @property
    def descriptor(self) -> str:
        return f"{self.kind}/{self.nvars}"

    def key(self, e: tuple) -> tuple:
        if self.kind == "grevlex":
            out = [sum(e)]
            out.extend(-c for c in reversed(e))
            return tuple(out)
        if self.kind == "lex":
            return e
        # elimination block order: grevlex on the first k variables dominates,
        # grevlex on the rest breaks ties
        k = self.block
        head, tail = e[:k], e[k:]
        out = [sum(head)]
        out.extend(-c for c in reversed(head))
        out.append(sum(tail))
        out.extend(-c for c in reversed(tail))
        return tuple(out)


def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder("grevlex", nvars)


def lex(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", nvars)


def elimination_block(k: int, nvars: int) -> MonomialOrder:
    if not 0 < k < nvars:
        raise ValueError(f"elimination block size {k} out of range for {nvars} variables")
    return MonomialOrder(f"elim:{k}", nvars, block=k)

