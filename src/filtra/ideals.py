"""Ideal arithmetic in Noetherian local rings presented as quotients of
polynomial rings localized at the origin.

A ring is k[x1..xn]/J with the maximal ideal m = (x1..xn).  Its dimension
is the local one, and every l(A/m^n) is a sum, both read once off the
Hilbert series of the tangent cone gr_m(A) (``_tangent_cone_leads``).
Ideal handles carry generators reduced modulo a fixed Groebner basis of J.  The
constructive operations (sum, product, intersection, colon, saturation)
commute with localization, so a handle is a faithful presentation of its
localized ideal.  Colengths are certified finite by exhibiting a power of
each variable inside the ideal, which pins the support to the origin and
makes the global standard-monomial count equal the local length.  With no
search, A + B is certified when A or B is, AB and A meet B when both are, and
A : g when A is: V(AB) = V(A meet B) = V(A) u V(B), and A lies in A : g.
Such a certified m-primary ideal is contracted from the localization (Atiyah-
Macdonald, Prop. 4.8), so membership in it is a zero normal form.  For any
other ideal membership is decided locally through a colon ideal.
Containment is membership of every generator, and equality is containment
both ways.

When the relations and the generators are all monomials, containment of a
monomial ideal, products, intersections, colons by a monomial or by a
monomial ideal and colengths are computed on exponent vectors by the
monomial layer (``monomial.py``) instead: a colon by a monomial ideal is one
call there, not a meet of colons by its generators.
Every other intersection and colon by an element is one t-trick elimination,
``_intersection_in_ambient``, which meets its two sides as given.  Whether
an element is a nonzerodivisor modulo an ideal is read off two Hilbert
series where the ideal, the relations and the element are homogeneous,
with no elimination, and off one colon elsewhere
(``IdealHandle.is_nonzerodivisor``).  The colengths of Q^n + W and of
Q^n I + W, for every n and every ideal I containing a power of Q, are read
off one presentation of the Rees algebra (A/W)[Q u] (``AssociatedGraded``):
one elimination serves every power, and one more basis each of Q and of
every I.  A handle
whose generators and relations together span a monomial ideal, as
m^k + (y^3 - x^4) = m^k + (y^3) for k <= 4, takes its basis from the
monomial layer too, inside ``groebner.groebner_basis``, while its other
operations take the general routes.

A handle's Groebner basis starts from a built basis, taken as complete
(``groebner.groebner_basis``'s seed): a sum A + B keeps its operands and
starts from A's basis and B's generators, else from B's basis and A's
generators; any other handle, or a sum with neither basis built, starts
from the relations' basis.  The reduced basis is unique, so where it
started does not change it.

A ring lives for one job, and no memo of its algebra outlives it.  It hands
out one handle per presentation, and a handle keeps its basis, its colength
and its powers, so each is built once.  A presentation by monomials is
keyed by the generators' exponent vectors in the order ``_make`` sorts
them, any other by the normalized generator tuple.  Two such monomial
handles are summed on exponent vectors, and, when the relations are
monomials too, multiplied, met, divided and scanned for a generator of one
outside the other there.  Their generators are built as polynomials only
where they are read: where they are printed, or where a Groebner basis or
another general route needs them.  The ring memoizes its products, its
colons by an element or by a monomial ideal and its intersections, keyed
by the presentation of the inputs: the input handles, each of which stands
for its presentation, and the terms of a reduced element divisor; it keeps
its nonzerodivisor tests by the same keys.  The key is not the reduced
basis, because the route taken (monomial layer or elimination) and so the
printed generators of the result depend on the presentation.
Ratliff-Rush closures ask for the same colons stage after stage, a job asks
for the same products check after check, and the memo answers the repeats.
No other layer memoizes them, so a repeated Cohen-Macaulay certificate
costs only memo hits.
"""
from __future__ import annotations

import itertools
from math import comb

from . import monomial
from .fields import QQ
from .groebner import GroebnerBasis, eliminate, groebner_basis
from .orders import elimination_block, grevlex, lazard
from .poly import Polynomial, PolyContext, add_multiple
from .parser import parse_polynomial


class CapReached(Exception):
    """A loop ran into a hard cap; the witness names the cap and its value."""

    def __init__(self, message: str, cap: str, value: int):
        super().__init__(message)
        self.witness = {"cap": cap, "value": value}


class NotMPrimary(ValueError):
    """A finite colength was required but could not be certified."""


class NotNested(ValueError):
    """Subquotient length asked for ideals that are not nested."""


class NotFiniteLength(CapReached, ValueError):
    """A subquotient is not killed by any tested power of the maximal ideal."""


class SaturationNotStabilized(CapReached, RuntimeError):
    """The colon chain of a saturation did not repeat within its cap."""


SUBQUOTIENT_POWER_BOUND = 40
_SATURATION_CAP = 100


def _as_poly(ring: "LocalRing", g) -> Polynomial:
    if isinstance(g, Polynomial):
        return g
    if isinstance(g, str):
        return parse_polynomial(g, ring.ctx)
    raise TypeError(f"cannot interpret {g!r} as a ring element")


def _exact_divide(h: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient h/g in the ambient polynomial ring; h must be a multiple."""
    ctx = h.ctx
    lmg = g.lead_monomial()
    lcg = g.lead_coefficient()
    field = ctx.field
    work = h.as_dict()
    q: dict = {}
    while work:
        m = max(work, key=ctx.key)
        if not monomial.divides(lmg, m):
            raise ArithmeticError("exact division failed; dividend is not a multiple")
        shift = monomial.div(m, lmg)
        c = field.div(work[m], lcg)
        q[shift] = c
        add_multiple(work, g.terms, field.neg(c), shift, field)
    return Polynomial(ctx, q)


class LocalRing:
    """k[variables]/(relations) localized at the origin."""

    def __init__(self, variables, relations=(), field=QQ):
        variables = tuple(variables)
        self.ctx = PolyContext.get(variables, field, grevlex(len(variables)))
        rels = [_as_poly(self, r) for r in relations]
        rels = [r for r in rels if not r.is_zero]
        for r in rels:
            if r.constant_term() != field.zero:
                raise ValueError(f"relation {r} does not vanish at the origin")
        self.relations = tuple(rels)
        self.gb_relations = groebner_basis(rels, ctx=self.ctx)
        if self.gb_relations.is_unit_ideal():
            raise ValueError("relations generate the unit ideal; the ring is zero")
        # the tangent cone's series h(t)/(1 - t)^d: d is the local dimension
        # (``maximal_power_colength``)
        self.h_polynomial, self.dimension = monomial.hilbert_series(
            _tangent_cone_leads(self.relations, self.gb_relations), self.nvars)
        # c relations with local dimension v - c: every minimal prime of J_m
        # has height at least c, and by Krull's theorem at most c (Matsumura,
        # Commutative Ring Theory, Thm 13.5), so in the regular ring k[x]_m
        # the relations are a regular sequence (Thm 17.4) and A is a complete
        # intersection of dimension v - c, so Cohen-Macaulay (Thm 21.3)
        self.complete_intersection = len(rels) == self.nvars - self.dimension
        # exponent vectors of the relations when all are monomials, else None
        self.relation_monomials = (
            self.gb_relations.leads
            if all(g.is_monomial() for g in self.gb_relations.polys) else None)
        self._torsion = None
        self._torsion_length = None
        self._handles: dict = {}  # the one handle of each presentation, by _handle's key
        self._ops: dict = {}  # product, colon, intersect and nonzerodivisor results

    @property
    def nvars(self) -> int:
        return self.ctx.nvars

    @property
    def field(self):
        return self.ctx.field

    def __repr__(self):
        rel = ", ".join(str(r) for r in self.relations)
        return f"LocalRing({','.join(self.ctx.variables)}; {rel or '0'})"

    # -- handle constructors ------------------------------------------

    def ideal(self, gens) -> "IdealHandle":
        polys = [self.gb_relations.normal_form(_as_poly(self, g)) for g in gens]
        return self._make(polys)

    def zero_ideal(self) -> "IdealHandle":
        return self._handle(())

    def unit_ideal(self) -> "IdealHandle":
        return self._handle((self.ctx.zero_mono(),))

    def maximal_ideal(self) -> "IdealHandle":
        return self.ideal(list(self.ctx.variables))

    def maximal_power_colength(self, n: int) -> int:
        """l(A/m^n), summed off the tangent cone's series h(t)/(1 - t)^d: the
        coefficient of t^(n-1) in h(t)/(1 - t)^(d+1)."""
        d = self.dimension
        return sum(c * comb(n - 1 - j + d, d)
                   for j, c in enumerate(self.h_polynomial[:n]))

    def _make(self, polys) -> "IdealHandle":
        """Normalize reduced generators: monic, deduplicated, sorted by lead,
        then by printed form among equal leads."""
        out = []
        for p in polys:
            if p.is_zero:
                continue
            if p.constant_term() != self.field.zero:
                return self.unit_ideal()  # a unit of the local ring generates everything
            out.append(p.monic())
        seen = {}
        for p in out:
            seen[p.terms] = p
        def lead_key(p):
            return self.ctx.key(p.lead_monomial())
        gens = []
        for _, tied in itertools.groupby(sorted(seen.values(), key=lead_key), key=lead_key):
            tied = list(tied)
            gens.extend(sorted(tied, key=str) if len(tied) > 1 else tied)
        gens = tuple(gens)
        if all(p.is_monomial() for p in gens):
            return self._handle(tuple(p.lead_monomial() for p in gens), gens)
        return self._handle(gens, gens)

    def _from_monomials(self, gens) -> "IdealHandle":
        """Handle of a monomial ideal presented by distinct exponent vectors,
        the zero vector only alone: those outside the relations, sorted like
        ``_make`` sorts."""
        rel = self.relation_monomials
        if rel:
            gens = [m for m in gens if not monomial.contains(rel, m)]
        return self._handle(tuple(sorted(gens, key=self.ctx.key)))

    def _handle(self, key: tuple, gens: tuple | None = None) -> "IdealHandle":
        """The one handle of a presentation, so that its basis, colength and
        powers are built once for the life of this ring.  ``key`` is the
        generators' exponent vectors in ``ctx.key`` order when all are
        monomials, else the generators; ``gens`` is the generators where they
        are built."""
        got = self._handles.get(key)
        if got is None:
            got = self._handles[key] = IdealHandle(self, gens, None if key is gens else key)
        return got

    def _memo(self, key, compute, *args) -> "IdealHandle":
        """compute(*args), once per key for the life of this ring."""
        got = self._ops.get(key)
        if got is None:
            got = self._ops[key] = compute(*args)
        return got

    # -- torsion part -------------------------------------------------

    def torsion_ideal(self) -> "IdealHandle":
        """Elements killed by a power of the maximal ideal, (0 : m^oo).  A
        complete intersection of positive dimension is Cohen-Macaulay, so of
        positive depth, and this is zero with no saturation."""
        if self._torsion is None:
            self._torsion = (
                self.zero_ideal() if self.complete_intersection and self.dimension >= 1
                else self.zero_ideal().saturate(self.maximal_ideal()))
        return self._torsion

    def torsion_length(self) -> int:
        """l(W) for the torsion ideal W, computed once per ring."""
        if self._torsion_length is None:
            self._torsion_length = self.subquotient_length(self.torsion_ideal(),
                                                           self.zero_ideal())
        return self._torsion_length

    def has_positive_depth(self) -> bool:
        return self.torsion_ideal().is_zero

    # -- regular sequences and the Cohen-Macaulay certificate ---------

    def is_regular_sequence(self, elements) -> bool:
        elements = [_as_poly(self, g) for g in elements]
        return all(self.ideal(elements[:i]).is_nonzerodivisor(g)
                   for i, g in enumerate(elements))

    # -- subquotient length -------------------------------------------

    def subquotient_length(self, x: "IdealHandle", y: "IdealHandle") -> int:
        """Length of x/y for nested ideals, as a difference of staircase counts.

        Requires a power m^D multiplying x into y; the quotient is then
        torsion, so its global dimension equals the local length.  Standard
        monomials form a basis of a quotient by an ideal, so for y inside
        x + y the dimension of (x + y)/y is the number of monomials in
        lead(x + y) outside lead(y).  Each of them lies below degree D plus
        the largest lead degree of x + y, because m^D (x + y) lies in y, so
        both complements are counted in that box.
        """
        if not x.contains_ideal(y):
            raise NotNested("subquotient requires the second ideal inside the first")
        gb_y = y.gb()
        nf = gb_y.normal_form
        gens = [nf(g) for g in x.gens]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return 0
        D = None
        for cand in range(1, SUBQUOTIENT_POWER_BOUND + 1):
            monos = monomial.of_degree(cand, self.nvars)
            if all(nf(g.shift(u)).is_zero for g in gens for u in monos):
                D = cand
                break
        if D is None:
            raise NotFiniteLength(
                f"no power of m up to SUBQUOTIENT_POWER_BOUND={SUBQUOTIENT_POWER_BOUND} "
                "multiplies the first ideal into the second",
                "SUBQUOTIENT_POWER_BOUND", SUBQUOTIENT_POWER_BOUND)
        leads = (x + y).gb().leads
        box = (D + max(map(sum, leads)),) * self.nvars
        return (monomial.count_box_complement(box, gb_y.leads)
                - monomial.count_box_complement(box, leads))


class IdealHandle:
    """An ideal of a local ring, presented by reduced generators."""

    __slots__ = ("ring", "_gens", "exponents", "monomials", "_gb", "_operands",
                 "_colength", "_colength_known", "_powers", "_at_origin")

    def __init__(self, ring: LocalRing, gens: tuple | None, exponents: tuple | None = None):
        """From normalized generators, from the exponent vectors of monomial
        ones in ``ctx.key`` order (``gens`` None), or from both; without
        ``exponents`` they are read off the generators."""
        if exponents is None and all(g.is_monomial() for g in gens):
            exponents = tuple(g.lead_monomial() for g in gens)
        self.ring = ring
        self._gens = gens
        # the generators' exponent vectors, or None unless all are monomials
        self.exponents = exponents
        # these and the relations' exponent vectors, or None unless all of
        # them are monomials
        rel = ring.relation_monomials
        self.monomials = exponents + rel if exponents is not None and rel is not None else None
        self._gb = None
        self._operands = None  # (A, B) when this handle was built as A + B
        self._colength = None
        self._colength_known = False
        self._powers = None  # [unit, self, self^2, ...] as far as asked
        # k[x]/(gens + J) is known to be supported at the origin alone
        self._at_origin = False

    def __repr__(self):
        return f"IdealHandle({', '.join(str(g) for g in self.gens) or '0'})"

    @property
    def gens(self) -> tuple:
        """The generators as polynomials, built on first read for a
        presentation by monomials."""
        if self._gens is None:
            ctx = self.ring.ctx
            self._gens = tuple(Polynomial.monomial(ctx, m) for m in self.exponents)
        return self._gens

    @property
    def is_zero(self) -> bool:
        return self.exponents == ()

    @property
    def is_unit(self) -> bool:
        e = self.exponents
        return bool(e) and not any(e[0])

    def gb(self) -> GroebnerBasis:
        """Groebner basis of the ideal together with the ring relations.  A
        sum A + B starts from A's basis if built, else from B's; any other
        handle, or a sum with neither built, from the relations' basis."""
        if self._gb is None:
            ring = self.ring
            seed, rest = ring.gb_relations, self.gens
            if self._operands is not None:
                a, b = self._operands
                if a._gb is not None:
                    seed, rest = a._gb, b.gens
                elif b._gb is not None:
                    seed, rest = b._gb, a.gens
            self._gb = (groebner_basis(seed.polys + rest, ctx=ring.ctx, seed=seed)
                        if not self.is_zero else seed)
        return self._gb

    def normal_form(self, f) -> Polynomial:
        return self.gb().normal_form(_as_poly(self.ring, f))

    # -- membership and comparison (local semantics) ------------------

    def contains_element(self, f) -> bool:
        """Local membership at the origin.  A certified m-primary ideal is
        contracted from the localization, so its global normal form decides;
        any other ideal takes a colon when reduction fails."""
        f = _as_poly(self.ring, f)
        if self.normal_form(f).is_zero:
            return True
        if self.colength() is not None:
            return False
        c = self.colon(f)
        return c.is_unit

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return self.missing_generator(other) is None

    def missing_generator(self, other: "IdealHandle"):
        """The first generator of ``other`` outside this ideal, or None.
        Between monomial ideals it is found on exponent vectors."""
        if other is self:
            return None
        mine, theirs = self.monomials, other.exponents
        if mine is not None and theirs is not None:
            m = monomial.first_outside(mine, theirs)
            return None if m is None else Polynomial.monomial(self.ring.ctx, m)
        return next((g for g in other.gens if not self.contains_element(g)), None)

    def equals_local(self, other: "IdealHandle") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_nonzerodivisor(self, g) -> bool:
        """Whether g is a nonzerodivisor on A/self, that is (self : g) = self
        in the local ring, once per g for the life of the ring.  Where self
        plus the relations and g are homogeneous it is read off Hilbert
        series (``_nonzerodivisor_by_series``), else off the colon
        (``_nonzerodivisor_by_colon``)."""
        ring = self.ring
        g = ring.gb_relations.normal_form(_as_poly(ring, g))
        return ring._memo(("nonzerodivisor", self, g.terms), self._nonzerodivisor, g)

    def _nonzerodivisor(self, g: Polynomial) -> bool:
        by_series = self._nonzerodivisor_by_series(g)
        return self._nonzerodivisor_by_colon(g) if by_series is None else by_series

    def _nonzerodivisor_by_colon(self, g: Polynomial) -> bool:
        """(self : g) = self, which holds iff (self : g) lies in self."""
        return self.contains_ideal(self.colon(g))

    def _nonzerodivisor_by_series(self, g: Polynomial) -> bool | None:
        """The graded test, or None where the ideal I = self + J or g, of
        degree e, is not homogeneous, or g is zero.  From the exact sequence
        0 -> ((I : g)/I)(-e) -> (S/I)(-e) -> S/I -> S/(I + g) -> 0 of graded
        S-modules, g is a nonzerodivisor on S/I iff
        HS(S/(I + g)) = (1 - t^e) HS(S/I), and each series is that of the
        quotient by the leads of a Groebner basis, a monomial ideal
        (``monomial.hilbert_numerator``).  The associated primes of a
        graded module are graded, so they lie in m (Bruns-Herzog,
        Cohen-Macaulay Rings, sec. 1.5): g is a zerodivisor on S/I iff it
        is one on its localization at m, and the global answer is the local
        one.  The basis of I + g starts from that of I."""
        if g.is_zero or not _homogeneous(g):
            return None
        G = self.gb()
        if not all(_homogeneous(p) for p in G.polys):
            return None
        ring = self.ring
        nvars = ring.nvars
        before = monomial.hilbert_numerator(G.leads, nvars)
        after = monomial.hilbert_numerator((self + ring.ideal([g])).gb().leads, nvars)
        e = g.degree()
        return after == monomial.shifted_sum(before, before, e, -1)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IdealHandle") -> "IdealHandle":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        ring = self.ring
        if self.is_unit or other.is_unit:
            out = ring.unit_ideal()
        elif self.exponents is not None and other.exponents is not None:
            out = ring._from_monomials(dict.fromkeys(self.exponents + other.exponents))
        else:
            out = ring._make(list(self.gens) + list(other.gens))
        out._at_origin |= self._at_origin or other._at_origin  # V(A+B) = V(A) & V(B)
        out._operands = (self, other)
        return out

    def __mul__(self, other: "IdealHandle") -> "IdealHandle":
        out = self.ring._memo(("mul", self, other), self._mul, other)
        out._at_origin |= self._at_origin and other._at_origin  # V(AB) = V(A) | V(B)
        return out

    def _mul(self, other: "IdealHandle") -> "IdealHandle":
        ring = self.ring
        mine, theirs = self.monomials, other.monomials
        if mine is not None and theirs is not None:
            return ring._from_monomials(monomial.product(mine, theirs))
        nf = ring.gb_relations.normal_form
        # equal products are reduced once; _make would merge them anyway
        prods = {}
        for a in self.gens:
            for b in other.gens:
                p = a * b
                prods.setdefault(p.terms, p)
        return ring._make([nf(p) for p in prods.values()])

    def power(self, n: int) -> "IdealHandle":
        """self^n, kept on the handle: each new power is the last one times
        self, so a tower asked for again and again is built once."""
        if n < 0:
            raise ValueError("negative ideal power")
        powers = self._powers
        if powers is None:
            powers = self._powers = [self.ring.unit_ideal(), self]
        while len(powers) <= n:
            powers.append(powers[-1] * self)
        return powers[n]

    def intersect(self, other: "IdealHandle") -> "IdealHandle":
        ring = self.ring
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        if self.is_zero or other.is_zero:
            return ring.zero_ideal()
        out = ring._memo(("intersect", self, other), self._intersect, other)
        out._at_origin |= self._at_origin and other._at_origin
        return out

    def _intersect(self, other: "IdealHandle") -> "IdealHandle":
        ring = self.ring
        mine, theirs = self.monomials, other.monomials
        if mine is not None and theirs is not None:
            return ring._from_monomials(monomial.intersect(mine, theirs))
        rels = list(ring.gb_relations.polys)
        return ring.ideal(_intersection_in_ambient(
            ring, list(self.gens) + rels, list(other.gens) + rels))

    def colon(self, divisor) -> "IdealHandle":
        """(self : divisor) for a single element or a finitely generated ideal.
        Between monomial handles it is one call of the monomial layer, once
        per pair for the life of the ring; by any other ideal it is the meet
        of the colons by its generators, which stops at a zero meet."""
        ring = self.ring
        if isinstance(divisor, IdealHandle):
            if self.monomials is not None and divisor.exponents is not None:
                if divisor.is_unit:
                    return self
                if divisor.is_zero:
                    return ring.unit_ideal()
                out = ring._memo(("colon_ideal", self, divisor), self._colon_ideal, divisor)
                out._at_origin |= self._at_origin
                return out
            acc = ring.unit_ideal()
            for g in divisor.gens:
                acc = acc.intersect(self.colon(g))
                if acc.is_zero:
                    break  # 0 meet X = 0
            return acc
        g = ring.gb_relations.normal_form(_as_poly(ring, divisor))
        if g.is_zero:
            return ring.unit_ideal()
        if g.constant_term() != ring.field.zero:
            return self  # dividing by a local unit changes nothing
        out = ring._memo(("colon", self, g.terms), self._colon_element, g)
        out._at_origin |= self._at_origin  # the colon contains the dividend
        return out

    def _colon_ideal(self, divisor: "IdealHandle") -> "IdealHandle":
        """(self : divisor) for monomial handles, the divisor neither zero nor
        the unit ideal."""
        return self.ring._from_monomials(monomial.colon(self.monomials, divisor.exponents))

    def _colon_element(self, g: Polynomial) -> "IdealHandle":
        """(self : g) for g reduced modulo the relations, nonzero, in m."""
        ring = self.ring
        mine = self.monomials
        if mine is not None and g.is_monomial():
            return ring._from_monomials(monomial.colon(mine, (g.lead_monomial(),)))
        # the right side is (g) alone, not (g) + J, so that every element
        # of the meet is a true multiple of g
        inter = _intersection_in_ambient(
            ring, list(self.gens) + list(ring.gb_relations.polys), [g])
        quots = [_exact_divide(h, g) for h in inter]
        return ring.ideal(quots)

    def saturate(self, other: "IdealHandle") -> "IdealHandle":
        cur = self
        for _ in range(_SATURATION_CAP):
            nxt = cur.colon(other)
            # the chain must stop globally: by a divisor other than m it can
            # repeat locally before it does
            if nxt.gb().polys == cur.gb().polys:
                return cur
            cur = nxt
        raise SaturationNotStabilized(
            f"saturation did not stabilize within _SATURATION_CAP={_SATURATION_CAP} "
            "colon steps", "_SATURATION_CAP", _SATURATION_CAP)

    # -- length -------------------------------------------------------

    def colength(self) -> int | None:
        """Length of the quotient ring by this ideal; None when not finite.

        Finiteness is certified by finding a power of every variable inside
        the ideal, or inherited, so the answer is the honest local length.
        """
        if self._colength_known:
            return self._colength
        value = self._colength_compute()
        # every value of this global route proves the support is the origin
        self._at_origin = value is not None
        self._colength = value
        self._colength_known = True
        return value

    def _colength_compute(self) -> int | None:
        if self.monomials is not None:
            return monomial.colength(self.monomials, self.ring.nvars)
        G = self.gb()
        if G.is_unit_ideal():
            return 0
        # the global quotient has dimension N, and an element of an
        # N-dimensional algebra is nilpotent iff its N-th power is zero
        N = monomial.colength(G.leads, self.ring.nvars)
        if N is None:
            return None
        return N if self._at_origin or _variables_nilpotent(G, N) else None

    def finite_colength(self) -> int:
        v = self.colength()
        if v is None:
            raise NotMPrimary(f"{self!r} is not m-primary within the certificate bounds")
        return v


def _variables_nilpotent(G: GroebnerBasis, N: int) -> bool:
    """Whether every variable's N-th power lies in the ideal of G, whose
    quotient has finite dimension N, so that a pure power of each variable
    is a lead."""
    ctx = G.ctx
    nf = G.normal_form
    for i, bound in enumerate(monomial.pure_power_bounds(G.leads, ctx.nvars)):
        # r = nf(x_i^e) for e = bound..N, stepped as nf(r * x_i): r
        # differs from x_i^e by a member of the ideal, so r * x_i
        # differs from x_i^(e+1) by one too
        step = ctx.var_mono(i, 1)
        r = nf(Polynomial.monomial(ctx, ctx.var_mono(i, bound)))
        for _ in range(N - bound):
            if r.is_zero:
                break
            r = nf(r.shift(step))
        if not r.is_zero:
            return False
    return True


def _tangent_cone_leads(relations, basis: GroebnerBasis) -> tuple:
    """Exponent vectors that generate a monomial ideal L with the Hilbert
    function of the tangent cone gr_m(A) = k[x]/in(J), in(J) the ideal of
    the lowest-degree forms of J.  in(J) is local: a unit u has
    in(u f) = u(0) in(f), so J and J_m have the same one.

    Homogeneous relations span in(J) = J, and ``basis``, their reduced
    basis under grevlex, has the leads of J.  Otherwise each relation f of
    degree D becomes h^D f(x/h), and the reduced basis of those under
    Lazard's order (``orders.lazard``), h dropped from its leads, is the
    leads of a standard basis of J_m under the local degree order, whose
    quotient has the Hilbert-Samuel function of A (Greuel-Pfister, *A
    Singular Introduction to Commutative Algebra*, secs. 1.7 and 5.5; T.
    Mora, LNCS 144, 1982).  A single relation is its own basis."""
    if all(_homogeneous(r) for r in relations):
        return basis.leads
    ctx = basis.ctx
    homogenized = PolyContext.get((_fresh_variable(ctx.variables, "_h"),) + ctx.variables,
                                  ctx.field, lazard(ctx.nvars + 1))
    polys = [Polynomial(homogenized, {(r.degree() - sum(m),) + m: c for m, c in r.terms})
             for r in relations]
    return tuple(m[1:] for m in groebner_basis(polys, ctx=homogenized).leads)


def _homogeneous(p: Polynomial) -> bool:
    """Whether every term of p has the same total degree."""
    return len({sum(m) for m, _ in p.terms}) <= 1


def _fresh_variable(variables, stem: str = "_t") -> str:
    name = stem
    while name in variables:
        name = "_" + name
    return name


def _intersection_in_ambient(ring: LocalRing, left, right) -> tuple:
    """The reduced basis of (left) meet (right) in the polynomial ring, each
    side taken as given, in ``ring.ctx``: the t-trick eliminates t from
    t*left + (1-t)*right (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, Ch. 4 sec. 3)."""
    ctx = ring.ctx
    big = PolyContext.get((_fresh_variable(ctx.variables),) + ctx.variables,
                          ctx.field, elimination_block(1, ctx.nvars + 1))
    # t*p for p on the left, p - t*p for p on the right
    gens = [_lift(p, big, (1,)) for p in left]
    gens += [_lift(p, big, (0,)) - _lift(p, big, (1,)) for p in right]
    return eliminate(gens, 1, ctx=big).polys


class AssociatedGraded:
    """The colengths l(A/(Q^n + W)) and l(A/(Q^n I + W)), n >= 0, of
    Q = (q_1..q_s) plus an ideal W, and of its products with ideals I that
    contain a power of Q, read off one presentation of the Rees algebra
    R = (A/W)[Q u] instead of a basis of each ideal.  Q + W must have
    finite colength certified at the origin.

    R is k[x, T]/L with L = (J, W, T_i - q_i u) meet k[x, T], the kernel of
    T_i -> q_i u, so one elimination of a fresh u gives L (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, Ch. 3 sec. 3).  With deg x = 0 and
    deg u = deg T_i = 1 every generator is homogeneous, so each reduced basis
    is, and for an ideal X of A the standard monomials of T-degree n modulo
    L + X are a k-basis of [R/XR]_n (CLO Ch. 5 sec. 3).  For each T^a with
    |a| = n they are the x^b outside the leads whose T-part divides T^a: a
    staircase count of those leads' x-parts.

    - X = Q: R/QR is gr_Q(A/W), whose piece of degree n is
      (Q^n + W)/(Q^(n+1) + W), so l(A/(Q^n + W)) sums the pieces below n.
    - X = I: R_n = (Q^n + W)/W and (IR)_n = (Q^n I + W)/W, so
      l(A/(Q^n I + W)) = l(A/(Q^n + W)) + dim [R/IR]_n.

    The counts are global dimensions.  Each piece is a module over
    k[x]/(J + W + X), and X + J is supported at the origin alone: Q by its
    certificate, and I because it contains a power of Q.  So they are local
    lengths too, and a count that is not finite is an internal error.  The
    kernel's basis is kept; one more basis, seeded with it, is built for Q
    and for each I when first asked for, and each degree is counted when
    first asked for.
    """

    __slots__ = ("_params", "_nvars", "_kernel", "_q_leads", "_stage_leads",
                 "_colengths", "_staircases")

    def __init__(self, ring: LocalRing, gens, modulo=()):
        ctx = ring.ctx
        s = len(gens)
        names = []
        for stem in ["_u"] + [f"_T{i}" for i in range(s)]:
            names.append(_fresh_variable(ctx.variables + tuple(names), stem))
        big = PolyContext.get(tuple(names) + ctx.variables, ctx.field,
                              elimination_block(1, 1 + s + ctx.nvars))

        no_t = (0,) * s
        rels = [_lift(p, big, (0,) + no_t) for p in ring.gb_relations.polys + tuple(modulo)]
        rels += [Polynomial.variable(big, names[1 + i]) - _lift(q, big, (1,) + no_t)
                 for i, q in enumerate(gens)]
        # the reduced basis of L in k[T, x], under grevlex
        self._kernel = eliminate(rels, 1, ctx=big)
        self._params, self._nvars = s, ctx.nvars
        self._q_leads = self._split_leads(gens)
        self._stage_leads = {}  # the split leads of L + I, by the handle of I
        self._colengths = [0]
        self._staircases = {}  # the count outside each tuple of x-parts

    def _split_leads(self, gens) -> list:
        """(T-part, x-part) of each lead of the basis of L + (gens)."""
        s, rees = self._params, self._kernel.ctx
        polys = self._kernel.polys + tuple(_lift(g, rees, (0,) * s) for g in gens)
        return [(m[:s], m[s:]) for m in
                groebner_basis(polys, ctx=rees, seed=self._kernel).leads]

    def power_colength(self, n: int) -> int:
        """l(A/(Q^n + W)): the pieces of gr_Q(A/W) of degree below n, summed."""
        sums = self._colengths
        while len(sums) <= n:
            sums.append(sums[-1] + self._count(self._q_leads, len(sums) - 1))
        return sums[n]

    def product_colength(self, n: int, ideal: IdealHandle) -> int:
        """l(A/(Q^n I + W)) for the ideal I of ``ideal``, which must contain
        a power of Q."""
        leads = self._stage_leads.get(ideal)
        if leads is None:
            leads = self._stage_leads[ideal] = self._split_leads(ideal.gens)
        return self.power_colength(n) + self._count(leads, n)

    def _count(self, leads, n: int) -> int:
        """The standard monomials of T-degree n outside the split leads.  Past
        the leads' T-degrees many T^a see the same x-parts, so each
        staircase is counted once."""
        total = 0
        staircases = self._staircases
        for a in monomial.of_degree(n, self._params):
            xs = tuple(x for t, x in leads if monomial.divides(t, a))
            count = staircases.get(xs)
            if count is None:
                count = staircases[xs] = monomial.colength(xs, self._nvars)
                if count is None:
                    raise RuntimeError(f"the piece of degree {n} at T^{a} is not finite, "
                                       "though its ideal has finite colength at the origin")
            total += count
        return total


def _lift(p: Polynomial, into: PolyContext, head: tuple) -> Polynomial:
    """p times the monomial with exponents ``head`` in the variables that
    ``into`` puts before p's."""
    return Polynomial(into, {head + m: c for m, c in p.terms})
