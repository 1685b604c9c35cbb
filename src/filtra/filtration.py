"""Multiplicative ideal filtrations, reductions and sequence conditions.

A filtration assigns to every n >= 0 an ideal I_n with I_0 the unit ideal,
I_{n+1} inside I_n, products I_a I_b inside I_{a+b}, an m-primary I_1, and a
parameter ideal Q inside I_1 with I_{n+1} = Q I_n for all large n within the
working horizon.  Three constructions are supported: powers of I_1, the
Ratliff-Rush closure, and explicitly listed ideals continued by the tail
rule I_{n+1} = I_1 I_n.  Powers meet the chain and product axioms by
construction, and once I^{n+1} = Q I^n, also I^{n+2} = Q I^{n+1}.

The Ratliff-Rush stage n is the first C(n+k, k) = I^{n+k} : I^k equal to
its predecessor C(n+k-1, k-1) as k grows (Ratliff-Rush, Indiana Univ. Math.
J. 27, 1978; Heinzer-Lantz-Shah, Comm. Algebra 20, 1992).  C(m, k) is built
as I^m followed by k colons by I, since (A : BC) = ((A : B) : C)
(Atiyah-Macdonald, Ex. 1.12).  So every colon divides by I instead of the
larger I^k, a monomial I in one call of the monomial layer and any other by
its few generators, and the ring's memo of colons answers the ones that an
earlier k or stage already asked for.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .hilbert import binom
from .ideals import AssociatedGraded, CapReached, IdealHandle, LocalRing, _as_poly


class HorizonExceeded(CapReached, RuntimeError):
    """An internal loop asked for a filtration stage beyond the safety cap."""


class RatliffRushNotStabilized(CapReached, RuntimeError):
    """The colon closure did not repeat within the iteration bound."""


class SearchExhausted(RuntimeError):
    """Random search for a reduction gave up."""


class NotAdmissible(ValueError):
    """Filtration axioms failed; carries a witness describing where."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


RR_ITERATION_BOUND = 10
HARD_CAP = 64  # no stage above this is built
ADIC, RATLIFF_RUSH, EXPLICIT = "adic", "ratliff_rush", "explicit"


class Filtration:
    """Lazy tower of ideals; stages are memoized handles.

    ``stages`` maps 1, 2, ... to generator lists, as ``parse_config``
    checked them: stage 1 always, later stages only for an explicit tower.
    """

    def __init__(self, ring: LocalRing, kind: str, stages: dict):
        if kind not in (ADIC, RATLIFF_RUSH, EXPLICIT):
            raise ValueError(f"unknown filtration kind {kind!r}")
        self.ring = ring
        self.kind = kind
        self._stages = {0: ring.unit_ideal()}
        self._stages.update((n, ring.ideal(g)) for n, g in stages.items())
        self.seed = self._stages[1]
        if kind == RATLIFF_RUSH:
            del self._stages[1]  # the closure may enlarge stage one

    @property
    def i1(self) -> IdealHandle:
        return self.get_ideal(1)

    @cached_property
    def m_adic(self) -> bool:
        """Whether the tower is the powers of m: an adic tower whose stage
        one has colength 1, so is m, whatever its presentation.  That
        colength is the one ``verify_admissible`` certified first."""
        return self.kind == ADIC and self.seed.colength() == 1

    def get_ideal(self, n: int) -> IdealHandle:
        if n < 0:
            raise ValueError("filtration index must be nonnegative")
        if n > HARD_CAP:
            raise HorizonExceeded(f"stage {n} beyond HARD_CAP={HARD_CAP}",
                                  "HARD_CAP", HARD_CAP)
        got = self._stages.get(n)
        if got is not None:
            return got
        if self.kind == ADIC:
            out = self.seed.power(n)
        elif self.kind == RATLIFF_RUSH:
            out = self._colon_closure(n)
        else:
            out = self.i1 * self.get_ideal(n - 1)  # tail rule
        self._stages[n] = out
        return out

    def _colon_closure(self, n: int) -> IdealHandle:
        prev = None
        for k in range(1, RR_ITERATION_BOUND + 1):
            cur = self.seed.power(n + k)
            for _ in range(k):
                cur = cur.colon(self.seed)
            # prev lies in cur, as x I^(k-1) in I^(n+k-1) gives x I^k in I^(n+k)
            if prev is not None and prev.contains_ideal(cur):
                return prev
            prev = cur
        raise RatliffRushNotStabilized(
            f"colon closure at stage {n} kept growing for "
            f"RR_ITERATION_BOUND={RR_ITERATION_BOUND} steps",
            "RR_ITERATION_BOUND", RR_ITERATION_BOUND)


class ReductionSystem(NamedTuple):
    """A parameter ideal inside stage one, with its ordered generator list."""

    ring: LocalRing
    generators: tuple
    handle: IdealHandle

    def omit_handle(self, i: int) -> IdealHandle:
        gens = [g for j, g in enumerate(self.generators) if j != i]
        return self.ring.ideal(gens)


def reduction_system(ring: LocalRing, gens) -> ReductionSystem:
    polys = tuple(ring.gb_relations.normal_form(_as_poly(ring, g)) for g in gens)
    if any(p.is_zero for p in polys):
        raise NotAdmissible("reduction generators must be nonzero in the ring",
                            {"check": "reduction_nonzero"})
    return ReductionSystem(ring, polys, ring.ideal(list(polys)))


class LengthTable:
    """The lengths of one job: l(A/Q^n I_k), with I_0 = A and Q^0 = A, so the
    stages' l(A/I_k) at n = 0 and the reduction's l(A/Q^n) at k = 0, and,
    with ``plus``, l(A/(Q^n + I_k)).  With ``modulo=W`` each entry is the
    length of its ideal plus W, a length of C = A/W.

    Each entry is computed once: by ``closed_form`` or, where that gives
    None, as the colength of its ideal.  ``verify_admissible`` builds the
    job's table once Q is proved m-primary with d generators, records in it
    the tail's flags and r, which ``closed_form`` reads for the entries past
    the tail, and returns it as the certificate of admissibility."""

    def __init__(self, filt: Filtration, red: ReductionSystem, horizon: int,
                 modulo: IdealHandle | None = None):
        self.ring, self.filt, self.red = filt.ring, filt, red
        self.horizon = horizon
        self.modulo = modulo
        self.flags = None  # flags[n]: I_{n+1} == Q I_n, for n <= H - 2
        self.postulation = None  # the least r with every flag from r on true
        self._entries: dict = {}

    @cached_property
    def cohen_macaulay(self) -> bool:
        """Whether q_1..q_d is a regular sequence.  Q is m-primary with
        d = dim A generators, so this says that A is Cohen-Macaulay.  Such a
        sequence makes the depth of A positive, so a table modulo a nonzero
        W never has it.

        No colon is taken where a theorem decides: a complete intersection
        (``LocalRing.complete_intersection``) is Cohen-Macaulay, so every
        system of parameters is regular (Matsumura, Thm 17.4); in dimension
        one Q = (x), and x is regular exactly when W = (0 : m^oo) is zero.
        Only d >= 2 outside a complete intersection takes the nonzerodivisor
        tests of ``LocalRing.is_regular_sequence``."""
        ring = self.ring
        if ring.complete_intersection:
            return True
        if ring.dimension == 1:
            return ring.has_positive_depth()
        return ring.is_regular_sequence(self.red.generators)

    @cached_property
    def quotient(self) -> LengthTable:
        """The table of C = A/W, W the torsion ideal: this one when W = 0.
        Each tail flag I_{n+1} = Q I_n passes to the images X + W, so C's
        table records A's flags and r."""
        W = self.ring.torsion_ideal()
        if not W.gens:
            return self
        out = LengthTable(self.filt, self.red, self.horizon, modulo=W)
        out.flags, out.postulation = self.flags, self.postulation
        return out

    @cached_property
    def graded(self) -> AssociatedGraded:
        """The presentation of the Rees algebra (A/W)[Q u] that
        ``closed_form`` reads each l(A/(Q^n + W)) and l(A/(Q^n I_k + W))
        off, built when first asked for."""
        W = self.modulo
        return AssociatedGraded(self.ring, self.red.generators, () if W is None else W.gens)

    def ideal(self, n: int, k: int, plus: bool = False) -> IdealHandle:
        """Q^n I_k, or Q^n + I_k with ``plus``; plus W for a table modulo W."""
        if plus:
            return self.ideal(n, 0) + self.ideal(0, k)
        Q = self.red.handle
        if k == 0:
            out = Q.power(n)
        elif n == 0:
            out = self.filt.get_ideal(k)
        else:
            out = Q.power(n) * self.filt.get_ideal(k)
        return out if self.modulo is None else out + self.modulo

    def get(self, n: int, k: int, plus: bool = False) -> int:
        got = self._entries.get((n, k, plus))
        if got is None:
            got = closed_form(self, n, k, plus)
            if got is None:
                got = self.ideal(n, k, plus).finite_colength()
            self._entries[n, k, plus] = got
        return got


def closed_form(lengths: LengthTable, n: int, k: int, plus: bool = False) -> int | None:
    """The entry (n, k, plus) of ``lengths`` by a theorem, or None where none
    applies.  The rules for sums and products past the tail and both rules
    without the Cohen-Macaulay certificate hold in any ring; every other
    rule needs the certificate, which also makes W = 0.  A stage l(A/I_k)
    off the powers of m, and a sum l(A/(Q^n + I_k)) that neither the series
    nor the tail gives, are left to their colengths.

    The two rules for the powers of m, in A's own table (W = 0), are asked
    first; they read the tangent cone's series h(t)/(1 - t)^d
    (``LocalRing.maximal_power_colength``).
    - Stages: l(A/m^k) is the series' running sum.
    - Sums at k = n + 1, once the tail has proved Q m^r = m^(r+1): with
      q_i* the class of q_i in m/m^2, gr_m(A)/(q_1*..q_d*) then vanishes
      past degree r, so the q_i* are d = dim gr_m(A) forms of degree one
      that generate an ideal of finite colength, a homogeneous system of
      parameters (Northcott-Rees, Proc. Cambridge Philos. Soc. 50, 1954),
      and so algebraically independent over k (Bruns-Herzog,
      Cohen-Macaulay Rings, sec. 1.5).  The image of Q^n in m^n/m^(n+1),
      spanned by the monomials of degree n in the q_i*, then has dimension
      C(n+d-1, d-1), and l(A/(Q^n + m^(n+1))) = l(A/m^(n+1)) - C(n+d-1, d-1).

    - Sums past the tail, any d: the flags prove I_{m+1} = Q I_m for
      r <= m <= H - 2, and for every m >= r on powers, so I_k = Q^(k-r) I_r
      lies in Q^(k-r).  Where k - r >= n, and k <= H - 1 unless the tower is
      powers, Q^n + I_k is Q^n, and the entry is l(A/Q^n).
    - Products past the tail, any d: for n, k >= 1 with k >= r, and
      n + k <= H - 1 unless the tower is powers, the same flags give
      Q I_m = I_{m+1} for k <= m <= n + k - 1, so Q^n I_k = I_{n+k} and the
      entry is l(A/I_{n+k}).  A table modulo W reads its own stage entry, as
      C = A/W records A's flags; on m-adic tables with W = 0 that entry is
      the tangent cone's series.
    - Q side, any d, with the certificate: q_1..q_d is a regular sequence,
      so gr_Q(A) is the polynomial ring (A/Q)[X_1..X_d] (Matsumura,
      Commutative Ring Theory, Thm 16.2) and l(A/Q^n) = l(A/Q) C(n+d-1, d).
    - Q side, any d, without the certificate: l(A/(Q^n + W)) is read off one
      presentation of gr_Q(A/W) by the Rees algebra (``LengthTable.graded``,
      ``ideals.AssociatedGraded``), except where Q^n + W is a monomial
      ideal, whose staircase count is cheaper.
    - I side, any d, without the certificate: for n, k >= 1,
      l(A/(Q^n I_k + W)) = l(A/(Q^n + W)) + dim [R/I_k R]_n, R the same
      Rees algebra, read off one more basis per stage, except where Q, I_k
      and W are monomial ideals, whose products of staircases are cheaper.
      The count is a local length because I_k + J is supported at the
      origin: admissibility puts Q^k inside I_k, and the stage's own
      colength is certified before the count is read.
    - d = 1: Q = (x) with x a nonzerodivisor.  An m-primary ideal X is then a
      one-dimensional Cohen-Macaulay module with e(x; X) = e(x; A) = l(A/xA),
      as A/X has finite length, so l(X/x^n X) = n l(A/xA) (Matsumura, Sec. 14
      and Thm 17.11).  Hence l(A/Q^n I_k) = l(A/I_k) + n e_0, e_0 = l(A/Q).

    The cheap tests come first, so that a job no rule serves never builds
    the certificate here."""
    r = lengths.postulation
    if lengths.modulo is None and lengths.filt.m_adic:
        ring = lengths.ring
        if not plus and n == 0:
            return ring.maximal_power_colength(k)
        if plus and k == n + 1 and r is not None:
            d = ring.dimension
            return ring.maximal_power_colength(k) - binom(n + d - 1, d - 1)
    if (plus and r is not None and k - r >= n
            and (k <= lengths.horizon - 1 or lengths.filt.kind == ADIC)):
        return lengths.get(n, 0)
    if (not plus and n >= 1 and k >= 1 and r is not None and k >= r
            and (n + k <= lengths.horizon - 1 or lengths.filt.kind == ADIC)):
        return lengths.get(0, n + k)
    if plus or n == 0 or n + k < 2:
        return None
    d = lengths.ring.dimension
    if k == 0:
        if lengths.cohen_macaulay:
            return lengths.get(1, 0) * binom(n + d - 1, d)
        return None if _monomial_reduction(lengths) else lengths.graded.power_colength(n)
    if d == 1 and lengths.cohen_macaulay:
        return lengths.get(0, k) + n * lengths.get(1, 0)
    stage = lengths.filt.get_ideal(k)
    if (stage.monomials is not None and _monomial_reduction(lengths)) or lengths.cohen_macaulay:
        return None
    stage.finite_colength()  # certified, as I_k contains Q^k
    return lengths.graded.product_colength(n, stage)


def _monomial_reduction(lengths: LengthTable) -> bool:
    """Whether Q, and W if the table is modulo W, are monomial ideals of a
    ring with monomial relations."""
    W = lengths.modulo
    return lengths.red.handle.monomials is not None and (W is None or W.exponents is not None)


def _refuse_unreducible(filt: Filtration):
    """Raise NotAdmissible for the faults no reduction can mend: a stage one
    that is the unit ideal, zero or not m-primary, or a ring of dimension 0,
    where a reduction would have no generators."""
    I1 = filt.i1
    if I1.is_unit:
        raise NotAdmissible("stage one is the unit ideal", {"check": "proper"})
    if not I1.gens:
        raise NotAdmissible("stage one is zero", {"check": "proper"})
    if I1.colength() is None:
        raise NotAdmissible("stage one is not m-primary",
                            {"check": "m_primary", "ideal": [str(g) for g in I1.gens]})
    if filt.ring.dimension < 1:
        raise NotAdmissible("the ring has dimension 0, so no reduction has "
                            "generators", {"check": "parameter_count"})


def verify_admissible(filt: Filtration, red: ReductionSystem,
                      horizon: int) -> LengthTable:
    """Check all filtration axioms up to the horizon; raise with a witness.
    Powers meet the chain and product axioms by construction: no scan.
    Once Q is proved m-primary and inside I_1, and the stages a chain closed
    under products, the job's length table is built; the tail scan reads it.
    The table, with the tail's flags and r recorded in it, is returned as
    the certificate."""
    _refuse_unreducible(filt)
    ring = filt.ring
    I1 = filt.i1
    if len(red.generators) != ring.dimension:
        raise NotAdmissible(
            f"reduction has {len(red.generators)} generators, dimension is {ring.dimension}",
            {"check": "parameter_count"})
    if red.handle.colength() is None:
        raise NotAdmissible("reduction is not m-primary", {"check": "reduction_m_primary"})
    if not I1.contains_ideal(red.handle):
        raise NotAdmissible("reduction is not inside stage one",
                            {"check": "reduction_inside"})
    if filt.kind != ADIC:
        for n in range(1, horizon):
            bad = filt.get_ideal(n).missing_generator(filt.get_ideal(n + 1))
            if bad is not None:
                raise NotAdmissible(f"stage {n + 1} not inside stage {n}",
                                   {"check": "chain", "n": n, "generator": str(bad)})
        for a in range(1, horizon):
            for b in range(a, horizon - a + 1):
                prod = filt.get_ideal(a) * filt.get_ideal(b)
                target = filt.get_ideal(a + b)
                if not target.contains_ideal(prod):
                    raise NotAdmissible(
                        f"product of stages {a} and {b} escapes stage {a + b}",
                        {"check": "products", "a": a, "b": b})
    lengths = LengthTable(filt, red, horizon)
    r, flags = reduction_tail(lengths)
    if r >= horizon - 1:
        raise NotAdmissible(
            "reduction never becomes exact within the horizon",
            {"check": "reduction_tail", "last_n": horizon - 2})
    lengths.flags, lengths.postulation = flags, r
    return lengths


def reduction_tail(lengths: LengthTable) -> tuple:
    """(r, flags): flags[n] says whether I_{n+1} == Q I_n for n < horizon - 1,
    and r is the least n from which every flag holds (horizon - 1 when the
    last one fails).  For powers, every flag after a true one is true.

    ``lengths`` is the table of a filtration whose other axioms passed, so
    Q I_n lies inside I_{n+1}, both m-primary, and the flag compares their
    lengths."""
    horizon = lengths.horizon
    flags = []
    for n in range(horizon - 1):
        if lengths.filt.kind == ADIC and any(flags):
            flags.append(True)
        else:
            flags.append(lengths.get(0, n + 1) == lengths.get(1, n))
    flags = tuple(flags)
    r = horizon - 1
    while r > 0 and flags[r - 1]:
        r -= 1
    return r, flags


def find_reduction(filt: Filtration, horizon: int, seed: int,
                   attempts: int) -> ReductionSystem:
    """Random small-coefficient combinations of stage-one generators.  What
    no reduction can mend is refused before the first attempt."""
    import random  # only the search draws, so importing the package skips it
    _refuse_unreducible(filt)
    ring = filt.ring
    d = ring.dimension
    gens = filt.i1.gens
    rng = random.Random(seed)
    coeffs = [c for c in range(-2, 3)]
    for _ in range(attempts):
        cand = []
        for _ in range(d):
            p = None
            for g in gens:
                c = rng.choice(coeffs)
                term = g.scale(ring.field.from_int(c))
                p = term if p is None else p + term
            cand.append(p)
        try:  # reduction_system refuses a candidate that is zero in the ring
            red = reduction_system(ring, cand)
            verify_admissible(filt, red, horizon)
            return red
        except NotAdmissible:
            continue
    raise SearchExhausted(f"no reduction found in {attempts} attempts (seed {seed})")


# -- sequence conditions ---------------------------------------------------

def check_d_sequence(ring: LocalRing, elements, exponents=None) -> tuple:
    """Whether q_1^e_1..q_d^e_d, every exponent 1 unless ``exponents`` says
    otherwise, is a d-sequence: (B : q_i^e_i q_j^e_j) = (B : q_j^e_j) for
    all 1 <= i <= j <= d, B the ideal of the first i - 1 powers.  The left
    side is ((B : q_j^e_j) : q_i^e_i) (Atiyah-Macdonald, Ex. 1.12), so each
    clause says that q_i^e_i, or equally q_i, is a nonzerodivisor on
    A/(B : q_j^e_j) (``IdealHandle.is_nonzerodivisor``).  The right side is
    ``_colon_power``'s chain, so for i = j the clause is one test.  The scan
    order and the witness of the first failing clause are those of the
    colons' comparison."""
    nf = ring.gb_relations.normal_form
    elements = [nf(_as_poly(ring, g)) for g in elements]
    d = len(elements)
    exponents = exponents or (1,) * d
    powers = [nf(g ** e) for g, e in zip(elements, exponents)]
    for i in range(d):
        base = ring.ideal(powers[:i])
        for j in range(i, d):
            right = _colon_power(base, elements[j], exponents[j])
            if not right.is_nonzerodivisor(elements[i]):
                return False, {"i": i + 1, "j": j + 1,
                               "prefix": [str(g) for g in powers[:i]]}
    return True, None


def _colon_power(base: IdealHandle, q, e: int) -> IdealHandle:
    """(base : q^e), as e colons by q (Atiyah-Macdonald, Ex. 1.12) that stop
    where the chain does.  The chain C_k = (base : q^k) grows, and
    C_{k+1} = C_k exactly when q is a nonzerodivisor on A/C_k; then
    C_{k+2} = (C_{k+1} : q) = C_{k+1}, and so on, so C_e = C_k."""
    cur = base
    for _ in range(e):
        if cur.is_nonzerodivisor(q):
            break
        cur = cur.colon(q)
    return cur


def check_usd_bounded(ring: LocalRing, elements, power_bound: int,
                      multiplicity: int | None = None) -> tuple:
    """Every permutation with every exponent vector up to the bound is a
    d-sequence; this is the finitely tested surrogate for the unconditioned
    statement, and the bound is part of the reported claim.  Given
    ``multiplicity`` = e_0(Q) of a system of parameters, the standard
    criterion (``_is_standard``) is tried first; the scan runs only where
    it fails, so a failure keeps its witness."""
    elements = [ring.gb_relations.normal_form(_as_poly(ring, g)) for g in elements]
    if multiplicity is not None and _is_standard(ring, elements, multiplicity):
        return True, None
    d = len(elements)
    for perm in itertools.permutations(range(d)):
        for exps in itertools.product(range(1, power_bound + 1), repeat=d):
            ok, wit = check_d_sequence(ring, [elements[p] for p in perm], exps)
            if not ok:
                wit = dict(wit or {})
                wit.update({"permutation": [p + 1 for p in perm], "exponents": list(exps)})
                return False, wit
    return True, None


def _is_standard(ring: LocalRing, elements, e0: int) -> bool:
    """Whether the system of parameters q_1..q_d, e_0(Q) = e0, is standard:
    I(Q) = I(Q^[2]), I(X) = l(A/X) - e_0(X), Q^[2] = (q_1^2..q_d^2) and
    e_0(Q^[2]) = 2^d e0 (Trung, Nagoya Math. J. 102, 1986).  A standard
    system is a u.s.d.-sequence (Trung, ibid.; Goto-Yamagishi, 1986): every
    permutation with every exponent vector is a d-sequence."""
    squares = ring.ideal([g * g for g in elements])
    Q = ring.ideal(elements)
    return squares.finite_colength() - Q.finite_colength() == (2 ** len(elements) - 1) * e0


def check_colon_in_i1(red: ReductionSystem, target: IdealHandle) -> tuple:
    """Each omitted-generator colon lands inside the target: I_1 for c2,
    I_2 + Q for the structural colon clause."""
    for i in range(len(red.generators)):
        bad = target.missing_generator(red.omit_handle(i).colon(red.generators[i]))
        if bad is not None:
            return False, {"i": i + 1, "witness": str(bad)}
    return True, None

