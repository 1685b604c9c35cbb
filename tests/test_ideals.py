"""Ideal handles on concrete local rings.

Two independent routes are exercised against each other throughout: the
monomial fast paths vs the generic t-trick, and certificate lengths vs a
brute staircase walk done inline here.
"""
import importlib.util
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from filtra import groebner, ideals, monomial
from filtra.config import load_config, parse_config
from filtra.fields import QQ, PrimeField
from filtra.ideals import IdealHandle, LocalRing, NotMPrimary
from filtra.monomial import divides
from filtra.parser import parse_polynomial
from filtra.poly import Polynomial
from filtra.report import run_job, to_json

from conftest import (CORPUS_DIR, NON_MONOMIAL_DEPTH_ZERO, PKG_ROOT, canonical_key,
                      corpus_and_digest_configs, counting_work, run_captured,
                      torsion_free_quotient)
from test_nonzerodivisor import fresh_ring

PLANE = LocalRing(("x", "y"))
SPACE = LocalRing(("x", "y", "z"))
CUSP = LocalRing(("x", "y"), ["y^2 - x^3"])
DEPTH0 = LocalRing(("x", "y"), ["x^2", "x*y"])
SPACE4 = LocalRing(("x", "y", "z", "w"))
PLANES2 = LocalRing(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"])
SEMI345 = LocalRing(("x", "y", "z"), ["y^2 - x*z", "x^2*y - z^2", "x^3 - y*z"])


def test_constructor_rejects_nonvanishing_relation():
    with pytest.raises(ValueError):
        LocalRing(("x", "y"), ["x + 1"])


def test_dimensions():
    assert PLANE.dimension == 2
    assert CUSP.dimension == 1
    assert DEPTH0.dimension == 1
    assert PLANES2.dimension == 2
    assert SEMI345.dimension == 1
    tc = LocalRing(("x", "y", "z"), ["y^2 - x*z", "x*y - z", "x^2 - y"])
    assert tc.dimension == 1


# -- lengths ---------------------------------------------------------------

def test_power_colengths_match_binomials():
    m2 = PLANE.maximal_ideal()
    for k in range(1, 5):
        assert m2.power(k).finite_colength() == k * (k + 1) // 2
    m3 = SPACE.maximal_ideal()
    for k in range(1, 4):
        assert m3.power(k).finite_colength() == k * (k + 1) * (k + 2) // 6


def test_quotient_ring_colengths():
    assert CUSP.maximal_ideal().finite_colength() == 1
    assert CUSP.maximal_ideal().power(2).finite_colength() == 3
    assert CUSP.maximal_ideal().power(3).finite_colength() == 5
    assert DEPTH0.maximal_ideal().power(2).finite_colength() == 3
    assert DEPTH0.maximal_ideal().power(3).finite_colength() == 4
    assert PLANES2.maximal_ideal().power(2).finite_colength() == 5
    # the diagonal parameters of the glued planes
    assert PLANES2.ideal(["x - z", "y - w"]).finite_colength() == 3
    # numerical semigroup <3,4,5>: multiplicity three
    assert SEMI345.ideal(["x"]).finite_colength() == 3


def test_subquotient_lengths():
    m = PLANE.maximal_ideal()
    assert PLANE.subquotient_length(m, m.power(2)) == 2
    assert PLANE.subquotient_length(m.power(2), m.power(3)) == 3
    m4 = PLANES2.maximal_ideal()
    assert PLANES2.subquotient_length(m4, m4.power(2)) == 4
    upper = PLANE.ideal(["x", "y^2"])
    lower = PLANE.ideal(["x^2", "x*y", "y^2"])
    assert PLANE.subquotient_length(upper, lower) == 1
    assert PLANE.subquotient_length(m, m) == 0


OFF_ORIGIN_TORSION = [
    # in the local ring x = 0, so A = k[y]_(y) and l(W) = 0, but the
    # saturation keeps (x), whose one monomial x lives at (1, 0)
    (("x", "y"), ["x^2 - x", "x*y"]),
    # W = (z) has local length 1, but its global span also holds x z
    (("x", "y", "z"), ["x^2 - x", "y*z", "z^2"]),
    # W is the unit ideal, and k[x, y]/(x^2 - x, xy - y) holds the line x = 1
    (("x", "y"), ["x^2 - x", "x*y - y"]),
]


def test_subquotient_refusals():
    """(x)/0 in k[x, y] is supported on the whole line x = 0, not at the
    origin alone: its monomials are infinitely many, and the count refuses
    instead of answering."""
    with pytest.raises(NotMPrimary, match="not supported at the origin alone"):
        PLANE.subquotient_length(PLANE.ideal(["x"]), PLANE.zero_ideal())


@pytest.mark.parametrize("names, relations", OFF_ORIGIN_TORSION,
                         ids=["point_off_origin", "span_off_origin", "line_off_origin"])
def test_torsion_off_the_origin_is_invalid_input(names, relations):
    """Where the saturation W keeps part of the ring away from the origin,
    W's monomials count more than l(W) (or infinitely many), so its length
    is refused: the job ends as invalid input, with the count's own error
    rather than a later admissibility one."""
    with pytest.raises(NotMPrimary, match="not supported at the origin alone"):
        LocalRing(names, relations).torsion_length()
    got = run_job(parse_config({
        "name": "job", "ring": {"variables": list(names), "relations": relations},
        "filtration": {"kind": "adic", "stages": {"1": list(names)}},
        "reduction": {"generators": ["y"]}, "horizon": 8}))
    assert (got["verdict"], got["exit_code"], got["error"]["type"]) == (
        "invalid-input", 1, "NotMPrimary")


def test_subquotient_length_counts_the_sum_when_nesting_is_only_local():
    """(x - x^2, y) contains (x^2, y) only locally: in k[x, y] it also
    vanishes at (1, 0) and misses x^2.  The length of the local quotient
    m/(x^2, y) is one."""
    upper = PLANE.ideal(["x - x^2", "y"])
    lower = PLANE.ideal(["x^2", "y"])
    assert not upper.normal_form("x^2").is_zero
    assert PLANE.subquotient_length(upper, lower) == 1


SUBQUOTIENT_RINGS = tuple(LocalRing(names, field=field)
                          for names in (("x", "y"), ("x", "y", "z"))
                          for field in (QQ, PrimeField(101)))


@st.composite
def m_primary_ideal(draw, ring, top):
    """Pure powers of every variable plus one or two monomials or binomials."""
    n = ring.nvars
    expo = st.tuples(*[st.integers(0, top)] * n).filter(any)

    def mono(e):
        return Polynomial.monomial(ring.ctx, e)

    gens = [mono(tuple(e if j == i else 0 for j in range(n)))
            for i, e in enumerate(draw(st.tuples(*[st.integers(1, top)] * n)))]
    for _ in range(draw(st.integers(1, 2))):
        g = mono(draw(expo))
        if draw(st.booleans()):
            c = ring.field.from_int(draw(st.sampled_from((1, 2, -3))))
            g = g - mono(draw(expo)).scale(c)
        gens.append(g)
    return ring.ideal(gens)


@st.composite
def nested_m_primary_pair(draw):
    """(x, y) with y inside x, both m-primary: (I, I J) or (I + J, I)."""
    ring = draw(st.sampled_from(SUBQUOTIENT_RINGS))
    top = 3 if ring.nvars == 2 else 2
    I = draw(m_primary_ideal(ring, top))
    J = draw(m_primary_ideal(ring, 2))
    return (ring, I, I * J) if draw(st.booleans()) else (ring, I + J, I)


@settings(max_examples=40, deadline=None)
@given(nested_m_primary_pair())
def test_subquotient_length_is_a_colength_difference(case):
    ring, x, y = case
    assert ring.subquotient_length(x, y) == y.finite_colength() - x.finite_colength()


def test_colength_certificate_runs_to_the_quotient_dimension():
    """(a^2 - b, b^2 - c, ..., g^2) in n variables is m-primary of colength
    2^n, but a is nilpotent only at its 2^n-th power, so the certificate must
    take powers as high as the dimension of the quotient.  (x^2 - x, y^2) has a
    second point, so x is never nilpotent and nothing is certified."""
    for n in (7, 8):
        names = "abcdefgh"[:n]
        gens = [f"{u}^2 - {v}" for u, v in zip(names, names[1:])] + [f"{names[-1]}^2"]
        assert LocalRing(tuple(names)).ideal(gens).colength() == 2 ** n
    assert PLANE.ideal(["x^2 - x", "y^2"]).colength() is None


def stepped_nilpotency(G, N) -> bool:
    """The reference certificate: nf(x_i^e) stepped from x_i's pure-power
    lead up to e = N as nf(r * x_i), each r differing from x_i^e by a member
    of the ideal."""
    ctx = G.ctx
    nf = G.normal_form
    for i, bound in enumerate(monomial.pure_power_bounds(G.leads, ctx.nvars)):
        step = ctx.var_mono(i, 1)
        r = nf(Polynomial.monomial(ctx, ctx.var_mono(i, bound)))
        for _ in range(N - bound):
            if r.is_zero:
                break
            r = nf(r.shift(step))
        if not r.is_zero:
            return False
    return True


@st.composite
def triangular_ideal(draw):
    """A non-monomial ideal of k[x, y] or k[x, y, z] with a finite global
    count: x^a - c u, u a monomial in the later variables of degree below
    a, then y, y^2 or y^2 - c' z in three variables, then a pure power of
    the last variable, so the origin is its only zero; plus at most one
    generator whose every term has the last variable.  With
    ``second_point`` the first generator is multiplied by x - 1, so every
    generator vanishes at (1, 0, ..).  Returns (ring, generators,
    second_point)."""
    ring = draw(st.sampled_from((PLANE, SPACE)))
    n, top = ring.nvars, (4 if ring.nvars == 2 else 3)
    coeff = st.sampled_from((1, 2, -3))

    def poly(text):
        return parse_polynomial(text, ring.ctx)

    later = ring.ctx.variables[1:]
    a = draw(st.integers(2, top))
    degree_u = draw(st.integers(1, a - 1))
    u = "*".join(f"{v}^{e}" for v, e in zip(later, draw(st.sampled_from(
        list(monomial.of_degree(degree_u, n - 1))))) if e)
    gens = [poly(f"x^{a} - {draw(coeff)}*{u}")]
    if n == 3:
        b = draw(st.integers(1, 2))
        tail = f" - {draw(coeff)}*z" if b == 2 and draw(st.booleans()) else ""
        gens.append(poly(f"y^{b}{tail}"))
    gens.append(poly(f"{later[-1]}^{draw(st.integers(2, 4))}"))
    if draw(st.booleans()):
        term = st.tuples(*[st.integers(0, 2)] * (n - 1), st.integers(1, 2))
        gens.append(Polynomial(ring.ctx, {e: ring.field.from_int(draw(coeff))
                                          for e in draw(st.lists(term, min_size=1,
                                                                 max_size=3))}))
    second_point = draw(st.booleans())
    if second_point:
        gens[0] = gens[0] * poly("x - 1")
    return ring, gens, second_point


@settings(max_examples=60, deadline=None)
@given(triangular_ideal())
def test_one_normal_form_per_variable_matches_the_stepped_certificate(case):
    """x_i^N in the ideal, one normal form each, agrees with the stepped
    loop and with m^N inside the ideal, N the global count: both hold
    exactly when the origin is the only zero, so never with a second
    point."""
    ring, gens, second_point = case
    G = groebner.groebner_basis(gens, ctx=ring.ctx)
    N = monomial.colength(G.leads, ring.nvars)
    assert N is not None
    one = Polynomial.constant(ring.ctx, ring.field.one)
    got = ideals._variables_nilpotent(G, (one,), N)
    assert got == stepped_nilpotency(G, N)
    assert got == all(G.normal_form(Polynomial.monomial(ring.ctx, e)).is_zero
                      for e in monomial.of_degree(N, ring.nvars))
    assert got is not second_point


def test_non_primary_refusal():
    handle = PLANE.ideal(["x"])
    assert handle.colength() is None
    with pytest.raises(NotMPrimary):
        handle.finite_colength()


# -- membership is local at the origin -------------------------------------

def test_local_membership_through_units():
    # x^2 - x = x(x - 1) and x - 1 is invertible at the origin
    I = PLANE.ideal(["x^2 - x", "y"])
    assert I.contains_element("x")
    assert I.equals_local(PLANE.maximal_ideal())
    # the certificate length cannot see the second point, so it refuses
    assert I.colength() is None
    with pytest.raises(NotMPrimary):
        I.finite_colength()


def test_monomial_job_builds_only_the_relations_basis(census):
    """Every question a monomial job asks of its monomial handles, equality
    in the Cohen-Macaulay certificate included, is answered on exponent
    vectors: the one Groebner basis built is the relations' basis."""
    report = run_job(parse_config({
        "name": "monomial_adic", "horizon": 6,
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x^3", "y^3", "x^2*y"]}},
        "reduction": {"generators": ["x^3", "y^3"]}}))
    assert report["verdict"] == "verified"
    assert report["ring"]["cm_certificate"]
    assert [list(c.args[0]) for c in census.calls["bases"]] == [[]]


def test_a_handle_contains_itself_without_a_scan(monkeypatch):
    """A Ratliff-Rush closure stops when a colon is the handle it had
    before; that comparison scans no generator."""
    def refuse(*args):
        raise AssertionError("a generator was scanned")

    I = PLANE.ideal(["x^4", "x^3*y", "x*y^3", "y^4"]).power(3)
    monkeypatch.setattr(ideals.monomial, "contains", refuse)
    monkeypatch.setattr(ideals.monomial, "first_outside", refuse)
    monkeypatch.setattr(IdealHandle, "contains_element", refuse)
    assert I.contains_ideal(I)
    assert I.equals_local(I)


def test_membership_plain():
    m = PLANE.maximal_ideal()
    assert m.contains_element("x + x^2*y")
    assert not m.contains_element("1 + x")
    assert not PLANE.ideal(["x^2", "x*y"]).contains_element("x")


def test_colon_and_saturation():
    I = PLANE.ideal(["x^2", "x*y"])
    assert I.colon("x").equals_local(PLANE.maximal_ideal())
    assert I.colon("x^2").is_unit
    assert I.saturate(PLANE.maximal_ideal()).equals_local(PLANE.ideal(["x"]))
    J = PLANE.ideal(["x"])
    assert J.saturate(PLANE.maximal_ideal()).equals_local(J)


# -- torsion ---------------------------------------------------------------

def test_torsion_depth_zero():
    W = DEPTH0.torsion_ideal()
    assert [str(g) for g in W.gens] == ["x"]
    assert DEPTH0.torsion_length() == 1
    assert not DEPTH0.has_positive_depth()


def test_torsion_is_the_saturation_by_the_reduction(without_closed_forms):
    """(0 : Q^oo) = (0 : m^oo) for an m-primary Q, since a power of m lies in
    Q: on every corpus and digest job, Q the reduction its report names, the
    one the search found where it searched.  Each ring is fresh, not the
    job's, so that no memo of the job answers either saturation."""
    checked = 0
    for cfg in corpus_and_digest_configs():
        report = without_closed_forms[canonical_key(cfg)][0]
        ring = fresh_ring(cfg)
        Q = ring.ideal(report["reduction"]["generators"])
        if Q.colength() is None:
            continue  # not m-primary
        assert ring.zero_ideal().saturate(Q).equals_local(ring.torsion_ideal()), cfg.name
        checked += 1
    assert checked == 103


def test_saturation_cap_is_an_input_error(monkeypatch):
    """A saturation that outruns its cap ends the job as invalid input, with
    an error whose message and witness name the cap, instead of escaping as
    a traceback."""
    from filtra import ideals
    from filtra.config import parse_config
    from filtra.report import run_job

    monkeypatch.setattr(ideals, "_SATURATION_CAP", 1)
    with pytest.raises(ideals.SaturationNotStabilized, match="_SATURATION_CAP=1") as err:
        LocalRing(("x", "y"), ["x^2", "x*y"]).torsion_ideal()
    assert err.value.witness == {"cap": "_SATURATION_CAP", "value": 1}
    report = run_job(parse_config({
        "name": "saturation_cap",
        "horizon": 6,
        "ring": {"variables": ["x", "y"], "relations": ["x^2", "x*y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["y"]},
    }))
    assert report["verdict"] == "invalid-input"
    assert report["exit_code"] == 1
    assert report["error"]["type"] == "SaturationNotStabilized"
    assert "_SATURATION_CAP=1" in report["error"]["message"]
    assert report["error"]["witness"] == {"cap": "_SATURATION_CAP", "value": 1}


def test_torsion_vanishes_positive_depth():
    for ring in (PLANE, CUSP, PLANES2, SEMI345):
        assert ring.has_positive_depth()
        assert ring.torsion_length() == 0


@pytest.mark.parametrize("name", ["two_planes", "semigroup_4567"])
def test_a_torsion_free_ring_counts_no_series_for_its_torsion(monkeypatch, name):
    """W = 0 is the zero ideal's own handle, so l(W) is 0 with no Hilbert
    numerator: the saturation and the count together take none."""
    ring = fresh_ring(load_config(CORPUS_DIR / f"{name}.json"))
    calls = []
    numerator = monomial.hilbert_numerator
    monkeypatch.setattr(monomial, "hilbert_numerator",
                        lambda *args: calls.append(args) or numerator(*args))
    assert ring.torsion_length() == 0
    assert calls == []


DEPTH_ZERO_EQUALITY = load_config(CORPUS_DIR / "depth_zero_equality.json")
TORSION_RINGS = [
    (DEPTH_ZERO_EQUALITY.variables, DEPTH_ZERO_EQUALITY.relations, 1),
    (("x", "y", "z"), ["x^2", "x*y", "x*z"], 1),
    (("x", "y", "z", "w"), ["x^2", "x*y", "x*z", "x*w", "y^3 - z^2*w"], 1),
    (("x", "y", "z"), ["x*y", "x*z", "x^3"], 2),
    (("x", "y"), ["x^3", "x^2*y"], 1),
    (("x", "y"), ["x*y - x^3", "y^2 - x^2*y"], 1),
    (("x", "y", "z"), ["x*z - y^2*z", "z^2 - x*z", "y*z"], 1),
]


@pytest.mark.parametrize("names, relations, want", TORSION_RINGS,
                         ids=["depth_zero_equality"] + [f"hand{i}" for i in range(1, 7)])
def test_torsion_length_is_a_difference_of_two_colengths(names, relations, want):
    """Once m^N meets W in zero, W embeds in A/m^N with quotient
    A/(m^N + W), so l(W) = l(A/m^N) - l(A/(m^N + W)): two certified
    colengths, with no subquotient count."""
    ring = LocalRing(names, relations)
    W, m = ring.torsion_ideal(), ring.maximal_ideal()
    N = 1
    while not m.power(N).intersect(W).is_zero:
        N += 1
    by_colengths = m.power(N).finite_colength() - (m.power(N) + W).finite_colength()
    assert by_colengths == ring.torsion_length() == want


def test_torsion_free_quotient_and_transport():
    C = torsion_free_quotient(DEPTH0)
    assert C.dimension == 1
    assert C.has_positive_depth()
    moved = C.ideal(DEPTH0.maximal_ideal().gens)
    assert moved.finite_colength() == 1
    assert not C.ideal(["x"]).gens


# -- one handle per presentation --------------------------------------------

def test_a_presentation_has_one_handle():
    ring = LocalRing(("x", "y"), ["y^2 - x^3"])
    I = ring.ideal(["y", "x"])
    assert I is ring.ideal(["x", "y"])
    assert I + ring.zero_ideal() is I
    assert ring.zero_ideal() + I is I
    assert I.power(2) is ring.ideal(list(I.power(2).gens))


def test_a_sum_with_the_zero_ideal_is_the_other_operand(monkeypatch):
    """X + (0) and (0) + X are X, found without normalizing generators."""
    ring = LocalRing(("x", "y"), ["y^2 - x^3"])
    I, zero = ring.ideal(["x", "y^2"]), ring.zero_ideal()

    def forbidden(self, polys):
        raise AssertionError("a sum with the zero ideal normalized generators")

    monkeypatch.setattr(LocalRing, "_make", forbidden)
    assert I + zero is I
    assert zero + I is I
    assert zero + zero is zero


def test_a_sum_starts_from_a_built_operand_and_a_colon_from_the_relations(census):
    """A + B starts its basis from A's built basis, else from B's, else from
    the relations'; a colon, by an element or by an ideal, starts from the
    relations' basis."""
    ring = LocalRing(("x", "y"), ["y^3 - x^5"])

    def seed_of(handle):
        start = census["bases"]
        handle.gb()
        assert census["bases"] == start + 1
        return census.calls["bases"][start].kwargs.get("seed")

    I, J = ring.ideal(["x^2 + y", "x*y"]), ring.ideal(["y^2 - x"])
    assert seed_of(I + J) is ring.gb_relations
    I.gb()
    K = I + ring.ideal(["x^3 - y^2"])
    assert seed_of(K) is I.gb()
    J.gb()
    assert seed_of(ring.ideal(["x^4 - y"]) + J) is J.gb()
    C = I.colon("x + y")
    assert C is not I and seed_of(C) is ring.gb_relations
    D = K.colon(ring.maximal_ideal())
    assert D is not K and seed_of(D) is ring.gb_relations


def test_equal_products_share_one_basis():
    """A product and a handle built separately from its generators are one
    handle, so their bases take one Buchberger run between them."""
    ring = LocalRing(("x", "y"), ["y^3 - x^5"])
    I, J = ring.ideal(["x + y", "y^2"]), ring.ideal(["x - y^2", "x*y"])
    first = I * J
    second = ring.ideal(list(first.gens))
    with counting_work() as census:
        assert first is second
        assert first.gb() is second.gb()
    assert census["buchberger"] == 1


def test_zero_ideal_takes_the_relations_basis(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the zero ideal's basis was built again")

    ring = LocalRing(("x", "y"), ["2*y^2 - 2*x^3 + 4*x*y"])
    monkeypatch.setattr(groebner, "_buchberger_raw", forbidden)
    assert ring.zero_ideal().gb() is ring.gb_relations


MONOMIAL_RINGS = (PLANE, SPACE, DEPTH0, LocalRing(("x", "y", "z"), ["x*z", "y^2*z"]))


@st.composite
def monomial_pair(draw):
    """A ring from MONOMIAL_RINGS, two monomial ideals of it, neither
    necessarily artinian nor minimally presented, and a monomial."""
    ring = draw(st.sampled_from(MONOMIAL_RINGS))
    expo = st.tuples(*[st.integers(0, 3)] * ring.nvars)

    def handle(monos):
        return ring.ideal([Polynomial.monomial(ring.ctx, m) for m in monos])

    I = handle(draw(st.lists(expo, min_size=1, max_size=4)))
    J = handle(draw(st.lists(expo, min_size=0, max_size=4)))
    return ring, I, J, Polynomial.monomial(ring.ctx, draw(expo))


def scanned_missing_generator(I, J):
    """The generic scan: the first generator of J outside I."""
    return next((g for g in J.gens if not I.contains_element(g)), None)


@settings(max_examples=60, deadline=None)
@given(monomial_pair())
def test_monomial_handles_are_keyed_by_their_exponents(case):
    """A monomial presentation's handle is found again from its printed
    generators, whichever route built it, and the exponent scan of
    ``missing_generator`` returns what the generic scan returns."""
    ring, I, J, f = case
    results = (I * J, I.intersect(J), I.colon(f), I + J, J + I)
    for K in results:
        assert K.exponents is not None
        assert ring.ideal([str(g) for g in K.gens]) is K
    for a, b in itertools.permutations((I, J) + results, 2):
        assert a.missing_generator(b) == scanned_missing_generator(a, b)


def monomial_text(m) -> str:
    return "*".join(f"{v}^{e}" for v, e in zip("xyz", m) if e) or "1"


@st.composite
def monomial_colon_case(draw):
    """A ring k[x,y] or k[x,y,z] with 0-2 monomial relations, a monomial
    ideal of it, possibly zero and rarely artinian, and the generators of a
    monomial divisor: possibly none, possibly 1, possibly some that the
    relations kill."""
    nvars = draw(st.sampled_from((2, 2, 3)))
    expo = st.tuples(*[st.integers(0, 4 if nvars == 2 else 2)] * nvars)
    relations = draw(st.lists(expo.filter(any), max_size=2))
    ring = LocalRing(("x", "y", "z")[:nvars], [monomial_text(m) for m in relations])
    dividend = draw(st.lists(expo, max_size=5))
    divisor = draw(st.lists(expo, max_size=4))
    if relations and draw(st.booleans()):
        killed = draw(st.sampled_from(relations))
        divisor.append(tuple(e + draw(st.integers(0, 1)) for e in killed))
    if draw(st.integers(0, 5)) == 0:
        divisor.append((0,) * nvars)
    return ring, dividend, divisor


def colon_by_meet(I, D):
    """(I : D) as the meet of the colons by D's generators."""
    acc = I.ring.unit_ideal()
    for g in D.gens:
        acc = acc.intersect(I.colon(g))
        if acc.is_zero:
            break
    return acc


@settings(max_examples=150, deadline=None)
@given(monomial_colon_case())
def test_a_colon_by_a_monomial_ideal_is_the_meet_of_its_generators_colons(case):
    """The monomial layer's colon by an ideal gives the handle that the meet
    of the colons by the divisor's generators gives: by the unit ideal the
    dividend itself, by the zero ideal the unit ideal."""
    ring, dividend, divisor = case
    I = ring.ideal([Polynomial.monomial(ring.ctx, m) for m in dividend])
    D = ring.ideal([Polynomial.monomial(ring.ctx, m) for m in divisor])
    assert I.monomials is not None and D.exponents is not None
    got = I.colon(D)
    want = colon_by_meet(I, D)
    assert got.exponents == want.exponents
    assert got is want
    assert I.colon(D) is got
    if D.is_unit:
        assert got is I
    if D.is_zero:
        assert got is ring.unit_ideal()


@settings(max_examples=150, deadline=None)
@given(monomial_colon_case())
def test_missing_generator_between_monomial_handles_is_the_membership_scan(case):
    """Between monomial handles the first generator of the other ideal
    outside this one, relation monomials counted as inside, is the one the
    divisibility scan over this ideal's generators and relations finds: in
    two variables ``missing_generator`` bisects into a staircase instead."""
    ring, first, second = case
    I = ring.ideal([Polynomial.monomial(ring.ctx, m) for m in first])
    J = ring.ideal([Polynomial.monomial(ring.ctx, m) for m in second + first[:1]])
    for a, b in itertools.permutations((I, J, I.colon(J), I * J), 2):
        want = next((m for m in b.exponents if not monomial.contains(a.monomials, m)), None)
        got = a.missing_generator(b)
        assert got == (None if want is None else Polynomial.monomial(ring.ctx, want))


def test_monomial_job_builds_few_generators(census):
    """Noise-free work count on k[x,y,z] with I_1 = (x^2, y^2, z^2, xy) and
    Q = (x^2, y^2, z^2): the handles the ring interns, those whose
    generators were ever built as polynomials, Buchberger runs and ideal
    products.  Only handles made from parsed or printed generators hold
    polynomials; when every handle was built from its polynomials, all 24
    held them.  Before a polynomial ring, a complete intersection with no
    relation, took its Cohen-Macaulay certificate by theorem instead of by
    colons, the job interned 24 handles and built 6.  Before l(A/(Q^n + I_k))
    was read as l(A/Q^n) past the tail, where I_k lies in Q^n, it interned
    21.  Before l(A/Q^n I_k) was read as l(A/I_{n+k}) past the tail, it
    interned 16 and formed 21 products."""
    got, ring = run_captured(parse_config({
        "name": "monomial_3", "field": "q", "horizon": 6,
        "ring": {"variables": ["x", "y", "z"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x^2", "y^2", "z^2", "x*y"]}},
        "reduction": {"generators": ["x^2", "y^2", "z^2"]}}))[:2]
    assert got["verdict"] == "verified"
    handles = ring._handles.values()
    assert all(h.exponents is not None for h in handles)
    assert (len(handles), sum(h._gens is not None for h in handles), census["buchberger"],
            census["products"]) == (12, 3, 0, 9)


def test_rings_with_equal_relations_share_nothing():
    one = LocalRing(("x", "y"), ["y^2 - x^3"])
    two = LocalRing(("x", "y"), ["y^2 - x^3"])
    assert one.gb_relations is not two.gb_relations
    for gens in ([], ["x"], ["x", "y"], ["y - x^2"]):
        a, b = one.ideal(gens), two.ideal(gens)
        assert a is not b
        assert a.gb() is not b.gb()
        assert a.gb().polys == b.gb().polys


def test_corpus_reports_do_not_depend_on_job_order():
    """Every basis lives with the ring of its job, so running the corpus
    forwards and then backwards in one process gives the same bytes."""
    configs = sorted(CORPUS_DIR.glob("*.json"))
    forwards = {p.name: to_json(run_job(load_config(p))) for p in configs}
    backwards = {p.name: to_json(run_job(load_config(p))) for p in reversed(configs)}
    assert len(forwards) == 13
    assert backwards == forwards


# -- regular sequences and the CM certificate ------------------------------

def test_regular_sequences():
    assert PLANE.is_regular_sequence(["x", "y"])
    assert PLANE.is_regular_sequence(["x", "y*(1 + x)"])
    assert not PLANE.is_regular_sequence(["x", "x"])
    assert CUSP.is_regular_sequence(["x"])
    assert CUSP.is_regular_sequence(["y"])
    assert not DEPTH0.is_regular_sequence(["y"])


def test_cm_certificates():
    """A system of parameters is a regular sequence iff the ring is
    Cohen-Macaulay."""
    assert PLANE.is_regular_sequence(["x", "y"])
    assert CUSP.is_regular_sequence(["x"])
    assert not DEPTH0.is_regular_sequence(["y"])
    assert not PLANES2.is_regular_sequence(["x - z", "y - w"])
    assert SEMI345.is_regular_sequence(["x"])



def test_repeated_cm_certificate_is_all_memo_hits():
    """The report and two checks ask for the same certificate.  The ring
    keeps no memo of it: after the first, each repeat reads interned
    handles, memoized colons and kept bases, and computes no colon and no
    Buchberger run.  On cusp, depth_zero, regular_d3 and two_planes."""
    cases = [(LocalRing(("x", "y"), ["y^2 - x^3"]), ["x"]),
             (LocalRing(("x", "y"), ["x^2", "x*y"]), ["y"]),
             (LocalRing(("x", "y", "z")), ["x", "y", "z"]),
             (LocalRing(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"]),
              ["x - z", "y - w"])]
    firsts = [ring.is_regular_sequence(params) for ring, params in cases]
    assert firsts == [True, False, True, False]
    with counting_work() as census:
        for (ring, params), first in zip(cases, firsts):
            for _ in range(2):
                assert ring.is_regular_sequence(params) is first
    assert not (census["colons"] or census["ideal_colons"] or census["buchberger"])

@pytest.mark.parametrize("name, colons, intersections, ideal_colons", [
    pytest.param("sally_rr_equality.json", 0, 0, 16, id="sally_rr_equality"),
    pytest.param("regular_d3.json", 0, 0, 0, id="regular_d3"),
    pytest.param("two_planes.json", 2, 0, 1, id="two_planes"),
    pytest.param("depth_zero.json", 0, 0, 4, id="depth_zero"),
    pytest.param("depth_zero_equality.json", 0, 0, 4, id="depth_zero_equality"),
])
def test_computed_colons_and_intersections(census, name, colons, intersections,
                                           ideal_colons):
    """Noise-free work count: t-trick colons by an element, intersections
    and colons of a monomial ideal by a monomial or by a monomial ideal that
    are computed rather than answered from the ring's memo, counted at the
    memo misses
    ``_colon_element``, ``_intersect`` and ``_colon_ideal``.  Each computed
    one reaches the monomial layer or the t-trick elimination, once.
    Without the memo, and with closures dividing by the generators of I^k
    instead of I, these jobs compute 258/188, 601/15 and 68/12.  Deciding
    the graded clause by lengths, and membership in a certified m-primary
    ideal by its normal form, took them from 88/28, 117/8 and 29/12, and
    taking the multiplicity-colon and torsion lengths as colength
    differences from 88/17, 117/1 and 27/3.  Reading c0, c1, c2 and the
    colon clause off the Cohen-Macaulay certificate took the two jobs that
    have it from 88/16 and 117/0; two_planes has none and keeps 27/2.
    Stopping a colon by an ideal once its running meet is zero, as in the
    torsion saturation (0 : m) of a ring of positive depth, took them from
    68, 5 and 27 colons.  Taking the d-sequence colon by q_i q_j as two
    colons, the second side's colon reused, took two_planes from 26.
    Certifying the complete intersections sally_rr_equality and regular_d3
    as Cohen-Macaulay with zero torsion by theorem took them from 67/16
    and 4/0.  Deciding each d-sequence clause as a nonzerodivisor test, by
    Hilbert series on two_planes' homogeneous ideals, and computing
    (B : q^e) as colons by q that stop once the chain is constant, took
    two_planes from 24/2.  Taking a colon of a monomial ideal by a monomial
    ideal as one call of the monomial layer, where each Ratliff-Rush
    closure step and the torsion saturation (0 : m) over monomial relations
    had been a meet of colons by the divisor's generators, took the jobs
    from 64/16 (sally_rr_equality), 7/2 (two_planes) and 4/1 (depth_zero,
    depth_zero_equality), with no such call.  Reading c1 off the standard
    criterion instead of the u.s.d. scan took two_planes from 4 colons by
    an element.  Dividing a monomial ideal by a monomial as by the ideal it
    generates moved depth_zero and depth_zero_equality's two colons by an
    element to colons by a monomial ideal: (2, 0, 2) became (0, 0, 4)."""
    report = run_job(load_config(CORPUS_DIR / name))
    assert report["verdict"] == "verified"
    assert (census["colons"], census["intersections"], census["ideal_colons"]) == (
        colons, intersections, ideal_colons)


def test_curve_job_eliminations_and_buchberger_runs(census):
    """Noise-free work count on the plane curve y^3 = x^4 with I_1 = m and
    Q = (x): t-trick eliminations, general Buchberger runs, nilpotency
    loops of the colength certificate, S-polynomials formed and handles
    interned.  Before the graded clause was
    decided by lengths, the job took 18 and 88; before the zero ideal took
    the relations' basis and l(I_1/(I_2 + Q)) became a colength difference,
    4 and 78; before c0, c1, c2 and the colon clause were read off the
    Cohen-Macaulay certificate, 4 and 76; before products, sums, meets and
    colons inherited the certificate and the adic chain scan and the tail
    after its first equality were skipped, 2 and 74, with 52 loops; before
    each basis started from the basis of a sum's operand, of a colon's
    dividend or of the relations, 66 runs formed 64 S-polynomials; before
    the length table filled l(A/Q^n), l(A/Q^n I_k) and the stages past the
    tail by closed forms and the graded clause stopped at n = max(r, 1), 62
    runs formed 54; before the table held l(A/(Q^n + I_k)), filled by
    closed forms past the tail, the job interned 9 handles; before a
    monomial ideal such as m^4 + (y^3 - x^4) took its basis from the
    monomial layer, 8 runs formed 9; before a complete intersection was
    certified Cohen-Macaulay with zero torsion by theorem, the regularity
    colon and the torsion saturation took 2 eliminations, 3 runs and 5
    S-polynomials; before a single generator was taken as its own basis,
    the relation's basis took 1 run; before l(A/m^k) was read off the
    tangent cone's series and the torsion check skipped I_2 when the
    torsion is zero, the job interned 7 handles."""
    report = run_job(parse_config({
        "name": "curve_3_4", "field": "q",
        "ring": {"variables": ["x", "y"], "relations": ["y^3 - x^4"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["x"]}}))
    assert report["verdict"] == "verified"
    ring = census.calls["rings"][0].args[0]
    assert (census["eliminations"], census["buchberger"], census["nilpotency"],
            census["spolys"], len(ring._handles)) == (0, 0, 2, 0, 4)


def test_depth_zero_job_buchberger_runs(census):
    """Noise-free work count on k[x, y]/((x + y^2)^2, (x + y^2) y) with
    I_1 = m and Q = (y), whose torsion ideal is (x + y^2): general
    Buchberger runs and S-polynomials formed.  While the torsion checks built A/W as a second ring,
    with its own relation basis and handles, the job took 164; before
    products, sums, meets and colons inherited the colength certificate and
    the adic chain scan and the tail after its first equality were
    skipped, 118; before each basis started from the basis of a sum's
    operand, of a colon's dividend or of the relations, 109 runs formed 251
    S-polynomials; before a monomial ideal presented with non-monomial
    generators took its basis from the monomial layer, 92 runs formed 141;
    before the d-sequence colon by q_i q_j was taken as two colons, 83 runs
    formed 128; before the certificate in dimension one was read off the
    torsion ideal instead of a colon by y, 83 runs formed 127; before
    l(A/Q^n) and l(A/(Q^n + W)) were read off one presentation of the
    associated graded ring instead of a basis of each, and sums past the
    tail as Q^n, 82 runs formed 122; before l(A/Q^n I_k) was read off the
    Rees algebra instead of a basis of each Q^n I_k, and each d-sequence
    clause decided as one nonzerodivisor test, 62 runs formed 103; before
    l(A/m^k) and l(A/(Q^n + m^(n+1))) were read off the tangent cone's
    series, 32 runs formed 67."""
    report = run_job(parse_config(NON_MONOMIAL_DEPTH_ZERO[0]))
    assert report["verdict"] == "verified"
    assert report["ring"]["torsion_length"] == 1
    assert (census["buchberger"], census["spolys"]) == (21, 41)


def test_corpus_pass_work(census):
    """Noise-free work count of one pass over the 13 corpus jobs: general
    Buchberger runs, S-polynomials formed, Groebner bases asked for by
    ideal handles, colengths computed, ideal products formed and
    nilpotency checks.  Before a
    monomial ideal presented with non-monomial generators took its basis
    from the monomial layer, 85 runs formed 889 S-polynomials.  Before ``check_d_sequence`` took the colon by q_i q_j as
    two colons, the pass made 63 runs, 851 S-polynomials and 73 bases.
    Before complete intersections were certified Cohen-Macaulay with zero
    torsion by theorem, and rings of dimension one by their torsion ideal,
    it made 61 runs and 821 S-polynomials.  Before a single generator was
    taken as its own basis, it made 52 runs.  Before l(A/Q^n) was read off
    one presentation of the associated graded ring instead of a basis of
    each Q^n, and sums past the tail as Q^n, it made 49 runs, 751
    S-polynomials and 73 bases.  Before l(A/Q^n I_k) was read off the Rees
    algebra and each d-sequence clause decided as one nonzerodivisor test,
    it made 39 runs, 484 S-polynomials and 54 bases: the Hilbert series
    test asks for more bases, the basis of X + (q) beside that of X, but
    most of them start from a built basis and run no Buchberger.  Before
    l(A/m^k) and l(A/(Q^n + m^(n+1))) were read off the tangent cone's
    series on the m-adic jobs, it made 32 runs, 207 S-polynomials, 72
    bases and 193 colengths.  Before l(A/Q^n I_k) was read as l(A/I_{n+k})
    past the tail, it made 26 runs, 209 S-polynomials, 56 bases, 151
    colengths and 289 products.  Before c1 was read off the standard
    criterion instead of the u.s.d. scan on two_planes, it made 25 runs,
    205 S-polynomials, 55 bases and 132 colengths.  The nilpotency checks
    are the 15 colengths of non-monomial ideals and the torsion lengths of
    the 2 depth-zero jobs; while sums, products, meets and colons inherited
    the colength certificate, it made 13."""
    configs = sorted(CORPUS_DIR.glob("*.json"))
    assert len(configs) == 13
    for path in configs:
        run_job(load_config(path))
    assert (census["buchberger"], census["spolys"], census["bases"],
            census["colengths"], census["products"], census["nilpotency"]) == (
                17, 144, 46, 133, 211, 17)


def test_the_census_changes_no_report_byte():
    """The work counts here are read through ``counting_work``.  A census
    that dropped an argument or a result would change what the engine
    computes, and so the counts it reads, silently: every corpus job must
    print the same bytes with it as without it."""
    for path in sorted(CORPUS_DIR.glob("*.json")):
        cfg = load_config(path)
        plain = to_json(run_job(cfg))
        with counting_work() as census:
            counted = to_json(run_job(cfg))
        assert census["rings"] == 1
        assert counted == plain, path.name


def test_two_planes_work(census):
    """Noise-free work count of two_planes, (x, y) meet (z, w) with I_1 = m
    and Q = (x - z, y - w), the corpus job without the Cohen-Macaulay
    certificate in dimension two: general Buchberger runs and S-polynomials
    formed.  Its l(A/Q^n) and l(A/Q^n I_k) come from one presentation of
    the Rees algebra A[Q u]: an elimination and one basis for Q and for
    each stage.  Its d-sequence clauses are nonzerodivisor tests read off
    Hilbert series.  While each l(A/Q^n) came from a basis of J + Q^n,
    n = 2..13, the job made 36 runs and 678 S-polynomials; while each
    l(A/Q^n I_k) came from a basis of Q^n I_k and each clause compared two
    colons, 26 and 411; before l(A/Q^n I_k) was read as l(A/I_{n+k}) past
    the tail, 19 and 134; before c1 was read off the standard criterion
    instead of the u.s.d. scan, 18 and 130."""
    assert run_job(load_config(CORPUS_DIR / "two_planes.json"))["verdict"] == "verified"
    assert (census["buchberger"], census["spolys"]) == (10, 69)


def perfbench_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PKG_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    return workloads


def test_curves_pass_work(monkeypatch):
    """Noise-free work count of one pass over the benchmark's 33 plane
    curves at seed 13 (``perfbench/workloads.py``): general Buchberger runs,
    S-polynomials, t-trick eliminations and colengths computed.  Each curve is a complete
    intersection, so its certificate and its zero torsion are theorems, and
    its relation, a single generator, is its own basis: the pass runs no
    Buchberger.  Before the certificate, the pass made 99 runs, 165
    S-polynomials and 66 eliminations, two per job: the regularity colon
    and the torsion saturation; before a single generator was taken as its
    own basis, 33 runs, one per job for its relation.  Each curve is m-adic,
    so its l(A/m^k) and its sums l(A/(Q^n + m^(n+1))) are read off the
    tangent cone's series; before that, the pass computed 264 colengths."""
    jobs = perfbench_workloads(monkeypatch).curves_jobs(13)
    assert len(jobs) == 33
    with counting_work() as census:
        for job in jobs:
            assert run_job(parse_config(json.loads(job.text)))["verdict"] == "verified"
    assert (census["buchberger"], census["spolys"], census["eliminations"],
            census["colengths"]) == (0, 0, 0, 84)


def test_monomial_adic_pass_work(monkeypatch):
    """Noise-free work count of one pass over the benchmark's 34 monomial
    towers at seed 13 (``perfbench/workloads.py``): Buchberger runs,
    colengths computed and ideal products formed.  Every ideal is
    monomial, so the pass runs no Buchberger.  Past the tail's r, Q^n I_k
    is the stage I_{n+k}, whose length the table holds; before that
    product was read as the stage, the pass formed 702 products."""
    jobs = perfbench_workloads(monkeypatch).monomial_adic_jobs(13)
    assert len(jobs) == 34
    with counting_work() as census:
        for job in jobs:
            run_job(parse_config(json.loads(job.text)))
    assert (census["buchberger"], census["colengths"], census["products"]) == (0, 500, 486)


def test_low_powers_of_m_on_a_curve_take_no_buchberger_run():
    """On k[x,y]/(y^3 - x^4), m^k + (y^3 - x^4) = m^k + (y^3) for k <= 4,
    since x^4 lies in m^k, so the basis and colength of m^k run no
    Buchberger.  m^5 + (y^3 - x^4) is not a monomial ideal, as neither term
    of the relation lies in m^5, and its basis takes one run."""
    ring = LocalRing(("x", "y"), ["y^3 - x^4"])
    m = ring.maximal_ideal()
    colengths = []
    with counting_work() as census:
        for k in range(1, 6):
            I = m.power(k)
            assert all(g.is_monomial() for g in I.gb().polys) == (k <= 4)
            colengths.append(I.colength())
            assert census["buchberger"] == (k == 5)
    assert colengths == [1, 3, 6, 9, 12]


DEPTH_ZERO_JOBS = ([load_config(CORPUS_DIR / f"{name}.json")
                    for name in ("depth_zero", "depth_zero_equality")]
                   + [parse_config(job) for job in NON_MONOMIAL_DEPTH_ZERO])


@pytest.mark.parametrize("cfg", DEPTH_ZERO_JOBS, ids=lambda cfg: cfg.name)
def test_torsion_length_is_counted_once_per_job(census, cfg):
    """The report, the c3 condition and the torsion graded pieces all read
    l(W); the ring counts it once, where each reader used to count it
    again (two or three subquotient counts per job)."""
    report = run_job(cfg)
    assert report["ring"]["depth_positive"] is False
    assert report["ring"]["torsion_length"] > 0
    assert census["subquotients"] == 1


# -- the t-trick against sympy ----------------------------------------------

def random_generators(rng, ring, count):
    """``count`` polynomials of degree at most 3 without constant term, the
    first with at least two terms, so that no side is monomial."""
    monos = [(i, j) for i in range(4) for j in range(4 - i) if i + j]
    out = []
    for k in range(count):
        terms = rng.sample(monos, rng.randint(2 if k == 0 else 1, 3))
        coeffs = [ring.field.from_int(rng.choice((1, -1, 2, 3))) for _ in terms]
        out.append(Polynomial(ring.ctx, dict(zip(terms, coeffs))))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("relations", [[], ["y^2 - x^3"]], ids=["plane", "cusp"])
def test_intersect_and_colon_match_sympy(field, relations):
    """Reduced bases of intersections and colons by an element against
    sympy.  The reference meet is the lex basis of t (L + J) + (1 - t) (R + J)
    without t; a colon (I : g) divides the meet of I + J and (g) by g."""
    sympy = pytest.importorskip("sympy")
    from test_groebner import from_sympy, to_sympy
    t, x, y = sympy.symbols("_t x y")
    modulus = {} if field.p is None else {"modulus": field.p}
    ring = LocalRing(("x", "y"), relations, field=field)
    J = [to_sympy(r) for r in ring.gb_relations.polys]

    def meet(left, right):
        gens = [t * f for f in left] + [(1 - t) * f for f in right]
        lex = sympy.groebner(gens, t, x, y, order="lex", **modulus)
        return [e for e in lex.exprs if not e.has(t)]

    def reduced(exprs):
        """The reduced grevlex basis; an ideal outside m is the unit ideal
        of the local ring, and a handle presents it so."""
        basis = sympy.groebner(exprs + J, x, y, order="grevlex", **modulus)
        if sympy.groebner(basis.exprs + [x, y], x, y, **modulus).exprs == [1]:
            return {"1"}
        return {str(from_sympy(e, ring.ctx, (x, y)).monic()) for e in basis.exprs}

    rng = random.Random(1618 + len(relations) + (field.p or 0))
    for _ in range(8):
        I = ring.ideal(random_generators(rng, ring, rng.randint(1, 2)))
        K = ring.ideal(random_generators(rng, ring, rng.randint(1, 2)))
        L, R = [[to_sympy(g) for g in h.gens] + J for h in (I, K)]
        assert {str(p) for p in I.intersect(K).gb().polys} == reduced(meet(L, R))
        g = ring.gb_relations.normal_form(random_generators(rng, ring, 1)[0])
        quots = []
        for h in meet(L, [to_sympy(g)]):
            q, r = sympy.div(h, to_sympy(g), x, y, **modulus)
            assert r == 0
            quots.append(q)
        assert {str(p) for p in I.colon(g).gb().polys} == reduced(quots)


# -- certified m-primary ideals are answered globally -----------------------

def test_certified_m_primary_membership_takes_no_colon(monkeypatch):
    """A certified m-primary ideal is contracted from the localization, so a
    nonzero normal form already means "not a member": no colon is taken.
    An ideal without the certificate still takes the colon."""
    def refuse(self, divisor):
        raise AssertionError(f"colon of {self!r} by {divisor}")

    I = CUSP.ideal(["x^2", "y"])
    J = CUSP.ideal(["x^2", "x*y", "y^2"])
    line = PLANE.ideal(["x - x^2"])   # locally (x): 1 - x is a unit at the origin
    assert I.colength() is not None and J.colength() is not None
    assert line.colength() is None
    monkeypatch.setattr(IdealHandle, "colon", refuse)
    assert not I.contains_element("x")
    assert not I.contains_element("x + y")
    assert I.contains_element("x^3 + y")
    assert not J.contains_element("y")
    assert not I.equals_local(J)
    assert not J.equals_local(I)
    with pytest.raises(AssertionError, match="colon of"):
        line.contains_element("x")


def colon_member(I, f):
    """Local membership through the colon, the route for any ideal."""
    return I.normal_form(f).is_zero or I.colon(f).is_unit


@st.composite
def membership_case(draw):
    """An m-primary ideal of a ring in 2 or 3 variables over QQ or F_101, a
    second ideal and an element.  The second is another m-primary ideal
    (J or I J), the first written another way (I + I J), or the first
    times a unit, which has no certificate and so takes the colon route."""
    ring = draw(st.sampled_from(SUBQUOTIENT_RINGS))
    top = 3 if ring.nvars == 2 else 2
    I = draw(m_primary_ideal(ring, top))
    J = draw(m_primary_ideal(ring, 2))
    other = draw(st.sampled_from(("other", "sum", "product", "rescaled")))
    other = {"other": J, "sum": I + I * J, "product": I * J,
             "rescaled": unit_rescaled(I)}[other]
    expo = st.tuples(*[st.integers(0, top)] * ring.nvars)
    f = Polynomial.monomial(ring.ctx, draw(expo))
    if draw(st.booleans()):
        f = f + Polynomial.monomial(ring.ctx, draw(expo)).scale(
            ring.field.from_int(draw(st.sampled_from((1, -1, 2)))))
    return I, other, f


@settings(max_examples=40, deadline=None)
@given(membership_case())
def test_certified_membership_and_equality_match_the_colon_route(case):
    I, other, f = case
    assert I.contains_element(f) == colon_member(I, f)
    assert other.contains_element(f) == colon_member(other, f)
    both_ways = (all(colon_member(I, g) for g in other.gens)
                 and all(colon_member(other, g) for g in I.gens))
    assert I.equals_local(other) == both_ways
    assert other.equals_local(I) == both_ways
    # the reduced-basis oracle: equal bases always mean equal ideals, and
    # two certified m-primary ideals are contracted from the localization,
    # so for them equal ideals also mean equal bases
    same_basis = I.gb().polys == other.gb().polys
    if same_basis or (I.colength() is not None and other.colength() is not None):
        assert I.equals_local(other) == same_basis


# -- dual computation routes ----------------------------------------------

def brute_colength(ring, gens):
    """Box walk over the staircase; needs a pure power of every variable."""
    leads = [g.lead_monomial() for g in gens]
    bounds = []
    for i in range(ring.nvars):
        pure = [m[i] for m in leads if sum(m) == m[i]]
        assert pure, "brute oracle needs an artinian monomial ideal"
        bounds.append(min(pure))
    return sum(1 for mono in itertools.product(*[range(b) for b in bounds])
               if not any(divides(l, mono) for l in leads))


def random_monomial_handle(rng, ring, artinian):
    gens = []
    if artinian:
        for i in range(ring.nvars):
            e = [0] * ring.nvars
            e[i] = rng.randint(1, 4)
            gens.append(tuple(e))
    for _ in range(rng.randint(1, 3)):
        m = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        if sum(m):
            gens.append(m)
    return ring.ideal([Polynomial.monomial(ring.ctx, m) for m in gens])


def unit_rescaled(handle):
    """Same local ideal, different ambient presentation."""
    ring = handle.ring
    u = parse_polynomial("1 + " + ring.ctx.variables[-1], ring.ctx)
    return ring.ideal([g * u for g in handle.gens])


def test_monomial_vs_generic_routes():
    rng = random.Random(1123)
    for ring in (PLANE, SPACE):
        for _ in range(12):
            I = random_monomial_handle(rng, ring, artinian=True)
            J = random_monomial_handle(rng, ring, artinian=False)
            assert I.finite_colength() == brute_colength(ring, I.gens)
            Iu, Ju = unit_rescaled(I), unit_rescaled(J)
            assert I.equals_local(Iu)
            assert I.intersect(J).equals_local(Iu.intersect(Ju))
            assert I.colon("x").equals_local(Iu.colon("x"))


@st.composite
def monomial_case(draw):
    """A ring, two monomial ideals (the first artinian) and a monomial.

    Exponents stay small so that the generic route, which eliminates an
    extra variable, keeps each example fast."""
    ring = draw(st.sampled_from((PLANE, SPACE, SPACE4, DEPTH0)))
    top = 2 if ring is SPACE4 else 3
    expo = st.tuples(*[st.integers(0, top)] * ring.nvars)
    pure = [tuple(e if j == i else 0 for j in range(ring.nvars))
            for i, e in enumerate(draw(st.tuples(*[st.integers(1, top)] * ring.nvars)))]
    extra = draw(st.lists(expo.filter(any), min_size=1, max_size=3))
    other = draw(st.lists(expo.filter(any), min_size=1, max_size=3))
    f = draw(expo)

    def handle(monos):
        return ring.ideal([Polynomial.monomial(ring.ctx, m) for m in monos])

    return ring, handle(pure + extra), handle(other), Polynomial.monomial(ring.ctx, f)


@settings(max_examples=60, deadline=None)
@given(monomial_case())
def test_monomial_layer_vs_generic_property(case):
    ring, I, J, f = case
    assert I.monomials is not None and J.monomials is not None
    Iu, Ju = unit_rescaled(I), unit_rescaled(J)
    rel = list(ring.gb_relations.polys)
    assert I.finite_colength() == brute_colength(ring, list(I.gens) + rel)
    assert (I * J).equals_local(Iu * Ju)
    assert I.intersect(J).equals_local(Iu.intersect(Ju))
    assert I.colon(f).equals_local(Iu.colon(f))
    assert J.colon(f).equals_local(Ju.colon(f))
    assert I.contains_element(f) == Iu.contains_element(f)
    assert J.contains_element(f) == Ju.contains_element(f)


def test_containment_properties():
    rng = random.Random(55)
    for _ in range(15):
        I = random_monomial_handle(rng, PLANE, artinian=False)
        J = random_monomial_handle(rng, PLANE, artinian=False)
        meet = I.intersect(J)
        assert I.contains_ideal(I * J)
        assert J.contains_ideal(I * J)
        assert I.contains_ideal(meet) and J.contains_ideal(meet)
        assert (I + J).contains_ideal(I)
        assert I.colon("x").contains_ideal(I)
        # (I : f) * f lands back inside I
        back = I.colon("x") * PLANE.ideal(["x"])
        assert I.contains_ideal(back)


def test_quotient_ring_intersection():
    # inside k[x,y]/(x^2, xy) the lines (x) and (y) only share the origin
    I = DEPTH0.ideal(["x"])
    J = DEPTH0.ideal(["y"])
    assert not I.intersect(J).gens
    assert not I.intersect(unit_rescaled(J)).gens


def test_power_and_arithmetic_basics():
    m = PLANE.maximal_ideal()
    assert m.power(0).is_unit
    assert m.power(2).equals_local(m * m)
    assert (m + m.power(2)).equals_local(m)
