"""Buchberger's algorithm with the normal selection strategy, reduced bases,
normal forms and elimination.

The kernel works on raw term dicts (monomial tuple -> coefficient) and keeps
basis elements monic so reduction needs no divisions.  Pair selection is by
minimal lcm (degree first).  Pairs are managed by the Gebauer-Moller update
(Gebauer and Moller, JSC 6, 1988; the UPDATE procedure of Becker and
Weispfenning, *Groebner Bases*, 1993, section 5.5): each new basis element
adds pairs only with the active elements, thinned by criteria M and F and
the product criterion, and drops old pairs by criterion B_k.  A pair of two
monomial entries is not formed: its S-polynomial is zero.  With the
criteria off every pair is reduced, which serves as their correctness
oracle.  With the criteria on, a monomial ideal never reaches Buchberger:
its reduced basis is its set of minimal generators in every monomial order,
taken from the monomial layer (``monomial.py``), which also holds the
staircase count.  The ideal is taken as monomial when, with M the monomial
generators, every other generator has at most one term outside M: it is
then generated by M and those terms, as m^4 + (y^3 - x^4) = m^4 + (y^3).  A
single generator needs no run either: made monic, it is its own reduced
basis.

A run may start from a seed, the reduced basis of an ideal inside the one
asked for, whose polys open the generators.  Its entries enter the basis
and the active set with no pair among them: each of their S-polynomials
already has a standard representation, which is all the Gebauer-Moller
update assumes of the pairs it has dropped.  Only the generators after it
are reduced and paired, and when none survives reduction by the seed, the
seed is the answer.

Nothing is kept from one call to the next: a basis lives on the ideal handle
that asked for it (``ideals.py``), and so dies with the ring of its job.
"""
from __future__ import annotations

import heapq
from typing import NamedTuple

from .fields import canonical
# count_box_complement is unused here: perfbench/layers.py traces it by this name
from .monomial import (count_box_complement, contains, coprime, div, divides, lcm,
                       minimal, mul)
from .orders import elimination_block
from .poly import ContextMismatch, Polynomial, PolyContext, add_multiple


def _nf_dict(f: dict, basis: list, ctx: PolyContext) -> dict:
    """Full normal form of a term dict against monic (lead, tail) basis entries.

    Monomials are finalized in strictly descending order, so the result has no
    term divisible by any basis lead.  This is the only coefficient loop not
    written as ``poly.add_multiple``: it is the hot path, and it pushes each
    new monomial onto the heap.  One loop serves both kinds of field; ``norm``
    reduces mod p over a prime field, and over the rationals keeps
    coefficients in the field's canonical form (``fields.canonical``: an int
    when integral), which is cheaper than a Fraction and which
    ``GroebnerBasis.fingerprint`` relies on.
    """
    if not f or not basis:
        return dict(f)
    negkey = ctx.negkey
    p = ctx.field.p
    # read at each call, so that a test may patch the module's ``canonical``
    norm = canonical if p is None else (lambda v: v % p)
    work = dict(f)
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, hit_tail in basis:
            if divides(lm, m):
                shift = div(m, lm)
                break
        else:
            rem[m] = c
            continue
        for m2, c2 in hit_tail:
            mm = mul(m2, shift)
            prev = work.get(mm)
            if prev is None:
                work[mm] = norm(-c * c2)
                heapq.heappush(heap, (negkey(mm), mm))
            else:
                nv = norm(prev - c * c2)
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
    L = lcm(lma, lmb)
    field = ctx.field
    out = add_multiple({}, taila, field.one, div(L, lma), field)
    return add_multiple(out, tailb, field.neg(field.one), div(L, lmb), field)


def _autoreduce(dicts: list, ctx: PolyContext) -> list:
    """Minimalize by lead divisibility, then tail-reduce to the reduced basis.

    One pass suffices: no kept lead divides another, so reduction never moves
    a lead, and each result has no term divisible by any other lead.
    """
    entries = [_monic_dict(d, ctx) for d in dicts]
    entries.sort(key=lambda e: ctx.key(e[0]))
    kept = []
    for e in entries:
        if not any(divides(k[0], e[0]) for k in kept):
            kept.append(e)
    for i, (_, _, full) in enumerate(kept):
        others = [(k[0], k[1]) for j, k in enumerate(kept) if j != i]
        r = _nf_dict(full, others, ctx)
        if r != full:
            kept[i] = _monic_dict(r, ctx)
    return [e[2] for e in kept]


class GroebnerBasis(NamedTuple):
    """Reduced, monic, auto-reduced basis in a fixed context, with the
    nonzero generators it was built from."""

    ctx: PolyContext
    polys: tuple
    inputs: tuple

    @property
    def fingerprint(self) -> str:
        """sha256 hex of the context and the multiset of input generators.
        Only the benchmark's layer trace (``perfbench/layers.py``) reads it,
        so it is computed when read, and importing the package loads no
        ``hashlib``."""
        import hashlib
        # terms are canonical (sorted, no zero coefficients, canonical
        # rationals), so equal payloads mean equal generator multisets,
        # without printing any polynomial
        payload = self.ctx.descriptor + "\n" + repr(sorted(g.terms for g in self.inputs))
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def leads(self) -> tuple:
        return tuple(g.lead_monomial() for g in self.polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ctx is not self.ctx:
            raise ContextMismatch(f"{f} is not in the basis's context {self.ctx.descriptor}")
        basis = [(g.lead_monomial(), g.terms[1:]) for g in self.polys]
        return Polynomial(self.ctx, _nf_dict(f.as_dict(), basis, self.ctx))

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].degree() == 0


def _buchberger_raw(inputs: list, ctx: PolyContext, use_criteria: bool,
                    seed: tuple = ()) -> list:
    """Reduced basis of ``seed`` and ``inputs`` as term dicts.  ``seed`` is
    a reduced basis, taken as complete: its entries start the basis and the
    active set with no pair among them, since each of their S-polynomials
    already has a standard representation."""
    basis = [(g.lead_monomial(), g.terms[1:], g.as_dict()) for g in seed]
    reduce_view = [(e[0], e[1]) for e in basis]  # (lead, tail_items) view for _nf_dict
    pairs: list = []      # heap of (key(lcm), lcm, i, j)
    # indices of entries whose lead no later lead divides
    active = list(range(len(basis)))
    key = ctx.key

    def add(d: dict):
        """Gebauer-Moller update: admit the new entry and the pairs it needs."""
        entry = _monic_dict(d, ctx)
        lh = entry[0]
        t = len(basis)
        if not use_criteria:
            for i in range(t):
                L = lcm(basis[i][0], lh)
                heapq.heappush(pairs, (key(L), L, i, t))
        else:
            # criterion B_k: an old pair (i, j) whose lcm L the new lead
            # divides is redundant unless L is also the lcm of (i, t) or (j, t)
            kept = [p for p in pairs
                    if not (divides(lh, p[1])
                            and lcm(basis[p[2]][0], lh) != p[1]
                            and lcm(basis[p[3]][0], lh) != p[1])]
            if len(kept) < len(pairs):
                heapq.heapify(kept)
                pairs[:] = kept
            new = [(lcm(basis[i][0], lh), i) for i in active]
            # criterion M: only the minimal new lcms keep pairs; criterion F
            # and the product criterion: one pair per lcm, and none at all
            # for an lcm that a coprime pair attains.  The S-polynomial of
            # two monomials is zero, so such a pair is not pushed either.
            keep = set(minimal([L for L, _ in new]))
            by_lcm: dict = {}
            for L, i in new:
                if L in keep:
                    by_lcm.setdefault(L, []).append(i)
            for L, idx in by_lcm.items():
                if (entry[1] or basis[idx[0]][1]) and not any(
                        coprime(basis[i][0], lh) for i in idx):
                    heapq.heappush(pairs, (key(L), L, idx[0], t))
            active[:] = [i for i in active if not divides(lh, basis[i][0])]
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


def _monomial_ideal(supports: list) -> tuple | None:
    """Minimal generators of the ideal that generators with these term
    supports span, when one pass shows it is monomial; otherwise None.

    Let M be the single-term generators.  The terms of any other generator
    that lie in M are elements of M, so the generator may be replaced by
    the rest of its terms; when each such rest has at most one term, the
    ideal is generated by M and those rests.
    """
    M = [s[0] for s in supports if len(s) == 1]
    rests = []
    for s in supports:
        if len(s) > 1:
            rest = [m for m in s if not contains(M, m)]
            if len(rest) > 1:
                return None
            rests += rest
    return minimal(M + rests)


def clear_cache():
    """Does nothing: no basis outlives the call that built it.  Kept because
    ``perfbench/run.py`` calls it before each pass."""


def groebner_basis(gens, ctx: PolyContext, use_criteria: bool = True,
                   seed: GroebnerBasis | None = None) -> GroebnerBasis:
    """Reduced Groebner basis in ``ctx`` of the ideal generated by ``gens``.

    Every generator must live in ``ctx``; one from another context raises
    ``ContextMismatch``, since reducing it under ``ctx``'s order would give
    a wrong basis.  Zero generators are allowed and yield the empty basis.
    The result only depends on the generated ideal, never on generator
    order or on a seed.
    ``seed``, if given, is a reduced basis in the same context whose polys
    open ``gens``.  It is taken as complete: only the generators after it
    are reduced and paired, and when none of them survives reduction by it,
    ``seed`` itself is returned, the empty seed of the zero ideal too.
    Without seed polys, a single nonzero generator made monic is its own
    reduced basis.  Otherwise, when each
    generator, the seed's polys included, is a monomial or has at most one
    term outside the ideal M of the monomial generators, the ideal is
    monomial: it is generated by M and those terms, whose minimal set is the
    reduced basis, and no Buchberger runs.  ``use_criteria=False`` switches
    off the pair criteria, those two rules and the seed, whose polys then
    count as plain input, and runs the full Buchberger, as their oracle.
    """
    gens = list(gens)
    seeded = seed is not None and use_criteria
    start = seed.polys if seeded else ()
    if tuple(gens[:len(start)]) != start:
        raise ValueError("the seed's polys must open the generators")
    if any(g.ctx is not ctx for g in gens):
        raise ContextMismatch(f"a generator is not in the context {ctx.descriptor}")
    gens = tuple(g for g in gens if not g.is_zero)
    inputs = [g.as_dict() for g in gens[len(start):]]
    if start:
        view = [(g.lead_monomial(), g.terms[1:]) for g in start]
        inputs = [r for r in (_nf_dict(d, view, ctx) for d in inputs) if r]
    # the seed of the zero ideal has no polys, and is still the answer
    if seeded and not inputs:
        return seed
    if not start and use_criteria and len(inputs) == 1:
        return GroebnerBasis(ctx, (Polynomial(ctx, _monic_dict(inputs[0], ctx)[2]),), gens)
    leads = _monomial_ideal([[m for m, _ in g.terms] for g in start]
                            + [list(d) for d in inputs]) if use_criteria else None
    if leads is not None:
        polys = tuple(Polynomial.monomial(ctx, m) for m in sorted(leads, key=ctx.key))
    else:
        polys = tuple(Polynomial(ctx, d)
                      for d in _buchberger_raw(inputs, ctx, use_criteria, start))
    return GroebnerBasis(ctx, polys, gens)


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


def eliminate(polys, k: int, ctx: PolyContext) -> list:
    """Generators of the elimination ideal dropping the first k variables.

    ``ctx`` must be ordered by ``elimination_block(k, ctx.nvars)``, under
    which the basis elements free of those variables generate the
    elimination ideal; any other order raises ``ValueError``.  The result
    lives in ``ctx``, free of those variables.
    """
    if ctx.order != elimination_block(k, ctx.nvars):
        raise ValueError(f"eliminate needs an elim:{k} order, not {ctx.order.descriptor}")
    return [g for g in groebner_basis(polys, ctx).polys
            if not any(any(m[:k]) for m, _ in g.terms)]
