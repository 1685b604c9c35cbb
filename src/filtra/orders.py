"""Monomial orders as flat integer sort keys.

Every order maps an exponent vector to a tuple of ints such that u > v as
monomials exactly when key(u) > key(v) as tuples.  Flat integer tuples keep
the keys heap-friendly and negatable componentwise.
"""
from __future__ import annotations

from typing import NamedTuple


class MonomialOrder(NamedTuple):
    """A multiplicative total order on exponent vectors of a fixed width."""

    kind: str            # "grevlex" | "elim:<k>" | "lazard"
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
        if self.kind == "lazard":
            # the first variable is h: total degree, then the higher power of
            # h, then grevlex on the rest
            out = [sum(e), e[0]]
            out.extend(-c for c in reversed(e[1:]))
            return tuple(out)
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


def elimination_block(k: int, nvars: int) -> MonomialOrder:
    if not 0 < k < nvars:
        raise ValueError(f"elimination block size {k} out of range for {nvars} variables")
    return MonomialOrder(f"elim:{k}", nvars, block=k)


def lazard(nvars: int) -> MonomialOrder:
    """The order on k[h, x] of Lazard's method, h the first variable: on
    homogeneous polynomials it ranks terms by the local degree order of
    their x-parts, lowest x-degree first, then grevlex (Greuel-Pfister, *A
    Singular Introduction to Commutative Algebra*, sec. 1.7)."""
    return MonomialOrder("lazard", nvars)
