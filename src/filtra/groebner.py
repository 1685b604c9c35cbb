"""Buchberger's algorithm with the normal selection strategy, reduced bases,
normal forms, elimination and an in-memory memo of bases.

The kernel works on raw term dicts (monomial tuple -> coefficient) and keeps
basis elements monic so reduction needs no divisions.  Pair selection is by
minimal lcm (degree first).  Pairs are managed by the Gebauer-Moller update
(Gebauer and Moller, JSC 6, 1988; the UPDATE procedure of Becker and
Weispfenning, *Groebner Bases*, 1993, section 5.5): each new basis element
adds pairs only with the active elements, thinned by criteria M and F and
the product criterion, and drops old pairs by criterion B_k.  With the
criteria off every pair is reduced, which serves as their correctness
oracle.  With the criteria on, all-monomial input never reaches Buchberger:
its reduced basis is the minimal generating set, taken from the monomial
layer (``monomial.py``), which also holds the staircase count.
"""
from __future__ import annotations

import hashlib
import heapq
import threading
from dataclasses import dataclass

from .fields import canonical
# count_box_complement is unused here: perfbench/layers.py traces it by this name
from .monomial import count_box_complement, minimal
from .orders import elimination_block
from .poly import (Polynomial, PolyContext, mono_coprime, mono_divides,
                   mono_lcm)


def _nf_dict(f: dict, basis: list, ctx: PolyContext) -> dict:
    """Full normal form of a term dict against monic (lead, tail) basis entries.

    Monomials are finalized in strictly descending order, so the result has no
    term divisible by any basis lead.  Over the rationals the inlined arithmetic
    keeps coefficients in the field's canonical form (``fields.canonical``: an
    int when integral), which the memo key relies on.
    """
    if not f or not basis:
        return dict(f)
    negkey = ctx.negkey
    p = ctx.field.p
    work = dict(f)
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        hit_tail = None
        for lm, tail in basis:
            ok = True
            for a, b in zip(lm, m):
                if a > b:
                    ok = False
                    break
            if ok:
                hit_tail = tail
                shift = tuple(x - y for x, y in zip(m, lm))
                break
        if hit_tail is None:
            rem[m] = c
            continue
        if p is None:
            for m2, c2 in hit_tail:
                mm = tuple(x + y for x, y in zip(m2, shift))
                prev = work.get(mm)
                if prev is None:
                    work[mm] = canonical(-c * c2)
                    heapq.heappush(heap, (negkey(mm), mm))
                else:
                    nv = prev - c * c2
                    if nv:
                        work[mm] = canonical(nv)
                    else:
                        del work[mm]
        else:
            for m2, c2 in hit_tail:
                mm = tuple(x + y for x, y in zip(m2, shift))
                prev = work.get(mm)
                if prev is None:
                    work[mm] = -c * c2 % p
                    heapq.heappush(heap, (negkey(mm), mm))
                else:
                    nv = (prev - c * c2) % p
                    if nv:
                        work[mm] = nv
                    else:
                        del work[mm]
    return rem


def _monic_dict(d: dict, ctx: PolyContext) -> tuple:
    """Return (lead, tail_items, full_dict) with lead coefficient one."""
    lm = max(d, key=ctx.key)
    lc = d[lm]
    field = ctx.field
    if lc != field.one:
        inv = field.inv(lc)
        d = {m: field.mul(inv, c) for m, c in d.items()}
    tail = tuple((m, c) for m, c in d.items() if m != lm)
    return lm, tail, d


def _spoly_dict(a, b, ctx: PolyContext) -> dict:
    """S-polynomial of two monic basis entries; the leads cancel by design."""
    lma, taila, _ = a
    lmb, tailb, _ = b
    L = mono_lcm(lma, lmb)
    ua = tuple(x - y for x, y in zip(L, lma))
    ub = tuple(x - y for x, y in zip(L, lmb))
    field = ctx.field
    out: dict = {}
    for m, c in taila:
        out[tuple(x + y for x, y in zip(m, ua))] = c
    for m, c in tailb:
        mm = tuple(x + y for x, y in zip(m, ub))
        prev = out.get(mm)
        if prev is None:
            out[mm] = field.neg(c)
        else:
            nv = field.sub(prev, c)
            if nv:
                out[mm] = nv
            else:
                del out[mm]
    return out


def _autoreduce(dicts: list, ctx: PolyContext) -> list:
    """Minimalize by lead divisibility, then tail-reduce to the reduced basis.

    One pass suffices: no kept lead divides another, so reduction never moves
    a lead, and each result has no term divisible by any other lead.
    """
    entries = [_monic_dict(d, ctx) for d in dicts]
    entries.sort(key=lambda e: ctx.key(e[0]))
    kept = []
    for e in entries:
        if not any(mono_divides(k[0], e[0]) for k in kept):
            kept.append(e)
    for i, (lm, tail, full) in enumerate(kept):
        others = [(k[0], k[1]) for j, k in enumerate(kept) if j != i]
        r = _nf_dict(full, others, ctx)
        if r != full:
            kept[i] = _monic_dict(r, ctx)
    return [e[2] for e in kept]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic, auto-reduced basis in a fixed context."""

    ctx: PolyContext
    polys: tuple
    fingerprint: str

    @property
    def leads(self) -> tuple:
        return tuple(g.lead_monomial() for g in self.polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ctx is not self.ctx:
            f = f.convert(self.ctx)
        basis = [(g.lead_monomial(), g.terms[1:]) for g in self.polys]
        return Polynomial(self.ctx, _nf_dict(f.as_dict(), basis, self.ctx))

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].degree() == 0


def _fingerprint(ctx: PolyContext, gens) -> str:
    # terms are canonical (sorted, no zero coefficients), so equal payloads
    # mean equal generator multisets, without printing any polynomial
    payload = ctx.descriptor + "\n" + repr(sorted(g.terms for g in gens))
    return hashlib.sha256(payload.encode()).hexdigest()


def _buchberger_raw(inputs: list, ctx: PolyContext, use_criteria: bool) -> list:
    basis: list = []      # (lead, tail_items, full_dict), monic
    reduce_view: list = []  # (lead, tail_items) view for _nf_dict
    pairs: list = []      # heap of (key(lcm), lcm, i, j)
    active: list = []     # indices of entries whose lead no later lead divides
    key = ctx.key

    def add(d: dict):
        """Gebauer-Moller update: admit the new entry and the pairs it needs."""
        entry = _monic_dict(d, ctx)
        lh = entry[0]
        t = len(basis)
        if not use_criteria:
            for i in range(t):
                L = mono_lcm(basis[i][0], lh)
                heapq.heappush(pairs, (key(L), L, i, t))
        else:
            # criterion B_k: an old pair (i, j) whose lcm L the new lead
            # divides is redundant unless L is also the lcm of (i, t) or (j, t)
            kept = [p for p in pairs
                    if not (mono_divides(lh, p[1])
                            and mono_lcm(basis[p[2]][0], lh) != p[1]
                            and mono_lcm(basis[p[3]][0], lh) != p[1])]
            if len(kept) < len(pairs):
                heapq.heapify(kept)
                pairs[:] = kept
            new = [(mono_lcm(basis[i][0], lh), i) for i in active]
            # criterion M: only the minimal new lcms keep pairs; criterion F
            # and the product criterion: one pair per lcm, and none at all
            # for an lcm that a coprime pair attains
            keep = set(minimal([L for L, _ in new]))
            by_lcm: dict = {}
            for L, i in new:
                if L in keep:
                    by_lcm.setdefault(L, []).append(i)
            for L, idx in by_lcm.items():
                if not any(mono_coprime(basis[i][0], lh) for i in idx):
                    heapq.heappush(pairs, (key(L), L, idx[0], t))
            active[:] = [i for i in active if not mono_divides(lh, basis[i][0])]
            active.append(t)
        basis.append(entry)
        reduce_view.append((entry[0], entry[1]))

    for d in inputs:
        r = _nf_dict(d, reduce_view, ctx)
        if r:
            add(r)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _spoly_dict(basis[i], basis[j], ctx)
        if not s:
            continue
        r = _nf_dict(s, reduce_view, ctx)
        if r:
            add(r)

    return _autoreduce([e[2] for e in basis], ctx)


# -- memo -----------------------------------------------------------------

# reduced bases by input fingerprint, kept for the life of the process
_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def clear_cache():
    with _CACHE_LOCK:
        _CACHE.clear()


def groebner_basis(gens, ctx: PolyContext | None = None,
                   use_criteria: bool = True) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Zero generators are allowed and yield the empty basis.  The result only
    depends on the generated ideal, never on generator order.  With the
    criteria on, bases are memoized by fingerprint; ``use_criteria=False``
    bypasses the memo and always runs the full Buchberger.
    """
    gens = list(gens)
    if ctx is None:
        if not gens:
            raise ValueError("context required for an empty generator list")
        ctx = gens[0].ctx
    gens = [g if g.ctx is ctx else g.convert(ctx) for g in gens]
    inputs = [g.as_dict() for g in gens if not g.is_zero]
    fingerprint = _fingerprint(ctx, [g for g in gens if not g.is_zero])
    if use_criteria:
        with _CACHE_LOCK:
            hit = _CACHE.get(fingerprint)
        if hit is not None:
            return hit
    if use_criteria and all(len(d) == 1 for d in inputs):
        leads = sorted(minimal([next(iter(d)) for d in inputs]), key=ctx.key)
        polys = tuple(Polynomial.monomial(ctx, m) for m in leads)
    else:
        polys = tuple(Polynomial(ctx, d) for d in _buchberger_raw(inputs, ctx, use_criteria))
    gb = GroebnerBasis(ctx, polys, fingerprint)
    if use_criteria:
        with _CACHE_LOCK:
            _CACHE[fingerprint] = gb
    return gb


# -- dimension and elimination -------------------------------------------

def lead_ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient by the ideal; -1 for the unit ideal."""
    nvars = gb.ctx.nvars
    leads = gb.leads
    if any(sum(m) == 0 for m in leads):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    best = 0
    for mask in range(1 << nvars):
        S = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(S) <= best:
            continue
        if all(not sup <= S for sup in supports):
            best = len(S)
    return best


def eliminate(polys, k: int, ctx: PolyContext | None = None) -> list:
    """Generators of the elimination ideal dropping the first k variables.

    The result still lives in the full ring but is free of those variables.
    """
    polys = list(polys)
    if ctx is None:
        ctx = polys[0].ctx
    elim_ctx = ctx.with_order(elimination_block(k, ctx.nvars))
    gb = groebner_basis(polys, ctx=elim_ctx)
    out = []
    for g in gb.polys:
        if all(all(m[i] == 0 for i in range(k)) for m, _ in g.terms):
            out.append(g.convert(ctx))
    return out
