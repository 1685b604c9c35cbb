"""Ideal arithmetic in Noetherian local rings presented as quotients of
polynomial rings localized at the origin.

A ring is k[x1..xn]/J with the maximal ideal m = (x1..xn).  Ideal handles
carry generators reduced modulo a fixed Groebner basis of J.  The
constructive operations (sum, product, intersection, colon, saturation)
commute with localization, so a handle is a faithful presentation of its
localized ideal.  Membership, containment and equality are decided
locally through colon ideals; colengths are certified finite by exhibiting
a power of each variable inside the ideal, which pins the support to the
origin and makes the global standard-monomial count equal the local length.

When the relations and the generators are all monomials, membership of a
monomial, products, intersections, colons by a monomial and colengths are
computed on exponent vectors by the monomial layer (``monomial.py``) instead.

A ring lives for one job and memoizes its colons by an element and its
intersections, keyed by the presentation of the inputs: the generators of
each handle and the terms of the reduced divisor.  The key is not the
reduced basis, because the route taken (monomial layer or elimination) and
so the printed generators of the result depend on the presentation.
Ratliff-Rush closures ask for the same colons stage after stage, and the
memo answers the repeats.
"""
from __future__ import annotations

import itertools

from . import monomial
from .fields import QQ
from .groebner import (GroebnerBasis, eliminate, groebner_basis,
                       lead_ideal_dimension)
from .orders import grevlex
from .poly import Polynomial, PolyContext
from .parser import parse_polynomial


class NotMPrimary(ValueError):
    """A finite colength was required but could not be certified."""


class NotNested(ValueError):
    """Subquotient length asked for ideals that are not nested."""


class NotFiniteLength(ValueError):
    """A subquotient is not killed by any tested power of the maximal ideal."""


class SaturationNotStabilized(RuntimeError):
    """The colon chain of a saturation did not repeat within its cap."""


SUBQUOTIENT_POWER_BOUND = 40
_PURE_POWER_CAP = 64
_SATURATION_CAP = 100


def _as_poly(ring: "LocalRing", g) -> Polynomial:
    if isinstance(g, Polynomial):
        return g if g.ctx is ring.ctx else g.convert(ring.ctx)
    if isinstance(g, str):
        return parse_polynomial(g, ring.ctx)
    if isinstance(g, int):
        return Polynomial.from_int(ring.ctx, g)
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
        shift = tuple(a - b for a, b in zip(m, lmg))
        if any(e < 0 for e in shift):
            raise ArithmeticError("exact division failed; dividend is not a multiple")
        c = field.div(work[m], lcg)
        q[shift] = c
        for m2, c2 in g.terms:
            mm = tuple(a + b for a, b in zip(m2, shift))
            nv = field.sub(work.get(mm, field.zero), field.mul(c, c2))
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
    return Polynomial(ctx, q)


class LocalRing:
    """k[variables]/(relations) localized at the origin."""

    def __init__(self, variables, relations=(), field=QQ, name: str | None = None):
        variables = tuple(variables)
        self.ctx = PolyContext.get(variables, field, grevlex(len(variables)))
        self.name = name
        rels = [_as_poly(self, r) for r in relations]
        rels = [r for r in rels if not r.is_zero]
        for r in rels:
            if r.constant_term() != field.zero:
                raise ValueError(f"relation {r} does not vanish at the origin")
        self.relations = tuple(rels)
        self.gb_relations = groebner_basis(rels, ctx=self.ctx)
        if self.gb_relations.is_unit_ideal():
            raise ValueError("relations generate the unit ideal; the ring is zero")
        self.dimension = lead_ideal_dimension(self.gb_relations)
        # exponent vectors of the relations when all are monomials, else None
        self.relation_monomials = (
            self.gb_relations.leads
            if all(g.is_monomial() for g in self.gb_relations.polys) else None)
        self._torsion = None
        self._cm: dict = {}  # is_cm_via_parameters by parameter tuple
        self._ops: dict = {}  # colon and intersect results by presentation

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
        return self._make([])

    def unit_ideal(self) -> "IdealHandle":
        return self._make([Polynomial.from_int(self.ctx, 1)])

    def maximal_ideal(self) -> "IdealHandle":
        return self.ideal(list(self.ctx.variables))

    def _make(self, polys) -> "IdealHandle":
        """Normalize reduced generators: monic, deduplicated, sorted."""
        out = []
        unit = False
        for p in polys:
            if p.is_zero:
                continue
            if p.constant_term() != self.field.zero:
                unit = True  # a unit of the local ring generates everything
                break
            out.append(p.monic())
        if unit:
            return IdealHandle(self, (Polynomial.from_int(self.ctx, 1),))
        seen = {}
        for p in out:
            seen[p.terms] = p
        # by lead, then by printed form among equal leads
        def lead_key(p):
            return self.ctx.key(p.lead_monomial())
        gens = []
        for _, tied in itertools.groupby(sorted(seen.values(), key=lead_key), key=lead_key):
            tied = list(tied)
            gens.extend(sorted(tied, key=str) if len(tied) > 1 else tied)
        return IdealHandle(self, tuple(gens))

    def _from_monomials(self, gens) -> "IdealHandle":
        """Handle of a monomial ideal given by its minimal generators: those
        outside the relations, sorted like ``_make`` sorts."""
        rel = self.relation_monomials
        keep = sorted((m for m in gens if not monomial.contains(rel, m)), key=self.ctx.key)
        return IdealHandle(self, tuple(Polynomial.monomial(self.ctx, m) for m in keep))

    def _memo(self, key, compute, *args) -> "IdealHandle":
        """compute(*args), once per key for the life of this ring."""
        got = self._ops.get(key)
        if got is None:
            got = self._ops[key] = compute(*args)
        return got

    # -- torsion part -------------------------------------------------

    def torsion_ideal(self) -> "IdealHandle":
        """Elements killed by a power of the maximal ideal."""
        if self._torsion is None:
            self._torsion = self.zero_ideal().saturate(self.maximal_ideal())
        return self._torsion

    def torsion_length(self) -> int:
        W = self.torsion_ideal()
        if not W.gens:
            return 0
        return self.subquotient_length(W, self.zero_ideal())

    def has_positive_depth(self) -> bool:
        return not self.torsion_ideal().gens

    def torsion_free_quotient(self) -> "LocalRing":
        """The quotient by the torsion ideal, on the same variables."""
        W = self.torsion_ideal()
        if not W.gens:
            return self
        rels = list(self.gb_relations.polys) + list(W.gens)
        return LocalRing(self.ctx.variables, rels, field=self.field,
                         name=(self.name + "/torsion") if self.name else None)

    def transport(self, handle: "IdealHandle") -> "IdealHandle":
        """Image of a handle of another ring on the same variables."""
        return self.ideal(handle.gens)

    # -- regular sequences and the Cohen-Macaulay certificate ---------

    def is_regular_sequence(self, elements) -> bool:
        elements = [_as_poly(self, g) for g in elements]
        prior: list = []
        for g in elements:
            base = self._make([self.gb_relations.normal_form(p) for p in prior])
            if not base.colon(g).equals_local(base):
                return False
            prior.append(g)
        return True

    def is_cm_via_parameters(self, parameters) -> bool:
        """Cohen-Macaulayness witnessed by a system of parameters.

        For an m-primary parameter ideal, regularity of the sequence is
        equivalent to the ring being Cohen-Macaulay.
        """
        parameters = tuple(_as_poly(self, g) for g in parameters)
        if len(parameters) != self.dimension:
            raise ValueError("need exactly dim-many parameters")
        if parameters not in self._cm:
            self._cm[parameters] = self.is_regular_sequence(parameters)
        return self._cm[parameters]

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
            monos = self.ctx.monomials_of_degree(cand)
            if all(nf(g.shift(u)).is_zero for g in gens for u in monos):
                D = cand
                break
        if D is None:
            raise NotFiniteLength(
                f"no power of m up to {SUBQUOTIENT_POWER_BOUND} multiplies the "
                "first ideal into the second")
        leads = (x + y).gb().leads
        box = (D + max(map(sum, leads)),) * self.nvars
        return (monomial.count_box_complement(box, gb_y.leads)
                - monomial.count_box_complement(box, leads))


class IdealHandle:
    """An ideal of a local ring, presented by reduced generators."""

    __slots__ = ("ring", "gens", "monomials", "_gb", "_colength", "_colength_known")

    def __init__(self, ring: LocalRing, gens: tuple):
        self.ring = ring
        self.gens = gens
        # exponent vectors of the generators and the relations, or None
        # unless all of them are monomials
        rel = ring.relation_monomials
        self.monomials = (
            tuple(g.lead_monomial() for g in gens) + rel
            if rel is not None and all(g.is_monomial() for g in gens) else None)
        self._gb = None
        self._colength = None
        self._colength_known = False

    def __repr__(self):
        return f"IdealHandle({', '.join(str(g) for g in self.gens) or '0'})"

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].degree() == 0

    def gb(self) -> GroebnerBasis:
        """Groebner basis of the ideal together with the ring relations."""
        if self._gb is None:
            ring = self.ring
            self._gb = groebner_basis(
                list(ring.gb_relations.polys) + list(self.gens), ctx=ring.ctx)
        return self._gb

    def normal_form(self, f) -> Polynomial:
        return self.gb().normal_form(_as_poly(self.ring, f))

    # -- membership and comparison (local semantics) ------------------

    def contains_element(self, f) -> bool:
        """Local membership at the origin, via a colon when reduction fails."""
        f = _as_poly(self.ring, f)
        mine = self.monomials
        if mine is not None and f.is_monomial():
            return monomial.contains(mine, f.lead_monomial())
        if self.normal_form(f).is_zero:
            return True
        c = self.colon(f)
        return c.is_unit

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return self.missing_generator(other) is None

    def missing_generator(self, other: "IdealHandle"):
        """The first generator of ``other`` outside this ideal, or None."""
        return next((g for g in other.gens if not self.contains_element(g)), None)

    def equals_local(self, other: "IdealHandle") -> bool:
        # the reduced basis of ideal + relations is unique, so equal bases
        # mean equal ideals whatever generators present them
        if self.gb().polys == other.gb().polys:
            return True
        return self.contains_ideal(other) and other.contains_ideal(self)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IdealHandle") -> "IdealHandle":
        return self.ring._make(list(self.gens) + list(other.gens))

    def __mul__(self, other) -> "IdealHandle":
        ring = self.ring
        if isinstance(other, Polynomial) or isinstance(other, (str, int)):
            other = ring.ideal([other])
        mine, theirs = self.monomials, other.monomials
        if mine is not None and theirs is not None:
            return ring._from_monomials(monomial.product(mine, theirs))
        nf = ring.gb_relations.normal_form
        out = ring._make([nf(a * b) for a in self.gens for b in other.gens])
        monos = out.monomials
        return out if monos is None else ring._from_monomials(monomial.minimal(monos))

    def power(self, n: int) -> "IdealHandle":
        if n < 0:
            raise ValueError("negative ideal power")
        acc = self.ring.unit_ideal()
        for _ in range(n):
            acc = acc * self
        return acc

    def intersect(self, other: "IdealHandle") -> "IdealHandle":
        ring = self.ring
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        if not self.gens or not other.gens:
            return ring.zero_ideal()
        return ring._memo(("intersect", self.gens, other.gens), self._intersect, other)

    def _intersect(self, other: "IdealHandle") -> "IdealHandle":
        ring = self.ring
        mine, theirs = self.monomials, other.monomials
        if mine is not None and theirs is not None:
            return ring._from_monomials(monomial.intersect(mine, theirs))
        big = _intersection_in_ambient(
            ring, list(self.gens), list(other.gens))
        return ring.ideal(big)

    def colon(self, divisor) -> "IdealHandle":
        """(self : divisor) for a single element or a finitely generated ideal."""
        ring = self.ring
        if isinstance(divisor, IdealHandle):
            acc = ring.unit_ideal()
            for g in divisor.gens:
                acc = acc.intersect(self.colon(g))
            return acc
        g = ring.gb_relations.normal_form(_as_poly(ring, divisor))
        if g.is_zero:
            return ring.unit_ideal()
        if g.constant_term() != ring.field.zero:
            return self  # dividing by a local unit changes nothing
        return ring._memo(("colon", self.gens, g.terms), self._colon_element, g)

    def _colon_element(self, g: Polynomial) -> "IdealHandle":
        """(self : g) for g reduced modulo the relations, nonzero, in m."""
        ring = self.ring
        mine = self.monomials
        if mine is not None and g.is_monomial():
            return ring._from_monomials(monomial.colon(mine, g.lead_monomial()))
        inter = _intersection_in_ambient(
            ring, list(self.gens) + list(ring.gb_relations.polys), [g],
            include_relations=False)
        quots = [_exact_divide(h, g) for h in inter]
        return ring.ideal(quots)

    def saturate(self, other: "IdealHandle") -> "IdealHandle":
        cur = self
        for _ in range(_SATURATION_CAP):
            nxt = cur.colon(other)
            if nxt.gb().polys == cur.gb().polys:
                return cur
            cur = nxt
        raise SaturationNotStabilized(
            f"saturation did not stabilize within _SATURATION_CAP={_SATURATION_CAP} "
            "colon steps")

    # -- length -------------------------------------------------------

    def colength(self) -> int | None:
        """Length of the quotient ring by this ideal; None when not finite.

        Finiteness is certified by finding a power of every variable inside
        the ideal, so the answer is the honest local length.
        """
        if self._colength_known:
            return self._colength
        value = self._colength_compute()
        self._colength = value
        self._colength_known = True
        return value

    def _colength_compute(self) -> int | None:
        if self.monomials is not None:
            return monomial.colength(self.monomials, self.ring.nvars)
        G = self.gb()
        if G.is_unit_ideal():
            return 0
        leads = G.leads
        bounds = monomial.pure_power_bounds(leads, self.ring.nvars)
        if bounds is None:
            return None
        ctx = self.ring.ctx
        nf = G.normal_form
        for i, bound in enumerate(bounds):
            cap = max(_PURE_POWER_CAP, 6 * bound + 8)
            e = bound
            while e <= cap:
                if nf(Polynomial.monomial(ctx, ctx.var_mono(i, e))).is_zero:
                    break
                e += 1
            else:
                return None
        return monomial.count_box_complement(bounds, leads)

    def finite_colength(self) -> int:
        v = self.colength()
        if v is None:
            raise NotMPrimary(f"{self!r} is not m-primary within the certificate bounds")
        return v


def _fresh_variable(variables) -> str:
    name = "_t"
    while name in variables:
        name = "_" + name
    return name


def _intersection_in_ambient(ring: LocalRing, left, right, include_relations=True):
    """Generators of (left + J) meet (right + J) in the polynomial ring.

    Uses one auxiliary variable t with an elimination order on
    t*left + (1-t)*right + J.  With include_relations=False the relations
    are not appended, so the right side is intersected as given; the colon
    path needs this to keep every output a true multiple of the divisor.
    """
    ctx = ring.ctx
    n = ctx.nvars
    from .orders import elimination_block
    tname = _fresh_variable(ctx.variables)
    big = PolyContext.get((tname,) + ctx.variables, ctx.field,
                          elimination_block(1, n + 1))

    def lift(p: Polynomial, mult_t: int) -> Polynomial:
        # mult_t: 0 -> p, 1 -> t*p, 2 -> (1-t)*p
        d = {}
        for m, c in p.terms:
            d[(0,) + m] = c
        q = Polynomial(big, d)
        if mult_t == 0:
            return q
        t = Polynomial.variable(big, tname)
        if mult_t == 1:
            return t * q
        return q - t * q

    gens = [lift(p, 1) for p in left]
    gens += [lift(p, 2) for p in right]
    if include_relations:
        gens += [lift(p, 0) for p in ring.gb_relations.polys]
    elim = eliminate(gens, 1, ctx=big)
    out = []
    for p in elim:
        d = {m[1:]: c for m, c in p.terms}
        out.append(Polynomial(ctx, d))
    return out


