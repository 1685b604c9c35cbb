"""Ideal handles on concrete local rings.

Two independent routes are exercised against each other throughout: the
monomial fast paths vs the generic t-trick, and certificate lengths vs a
brute staircase walk done inline here.
"""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from filtra import ideals, monomial
from filtra.config import load_config
from filtra.fields import QQ, PrimeField
from filtra.ideals import (IdealHandle, LocalRing, NotFiniteLength, NotMPrimary,
                           NotNested)
from filtra.parser import parse_polynomial
from filtra.poly import Polynomial, mono_divides
from filtra.report import run_job

from conftest import CORPUS_DIR

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


def test_subquotient_refusals():
    m = PLANE.maximal_ideal()
    with pytest.raises(NotNested):
        PLANE.subquotient_length(m.power(2), m)
    with pytest.raises(NotFiniteLength):
        PLANE.subquotient_length(PLANE.ideal(["x"]), PLANE.zero_ideal())


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



def test_equal_ideals_compare_by_reduced_basis(monkeypatch):
    """Two presentations of one ideal are equal on their reduced bases
    alone, without testing containment generator by generator."""
    def forbidden(self, other):
        raise AssertionError("containment was tested")

    a = PLANE.ideal(["x", "y"])
    b = PLANE.ideal(["x + y", "y"])
    monkeypatch.setattr(IdealHandle, "contains_ideal", forbidden)
    assert a.equals_local(b)

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


def test_saturation_cap_is_an_input_error(monkeypatch):
    """A saturation that outruns its cap ends the job as invalid input, with
    an error that names the cap, instead of escaping as a traceback."""
    from filtra import ideals
    from filtra.config import parse_config
    from filtra.report import run_job

    monkeypatch.setattr(ideals, "_SATURATION_CAP", 1)
    with pytest.raises(ideals.SaturationNotStabilized, match="_SATURATION_CAP=1"):
        LocalRing(("x", "y"), ["x^2", "x*y"]).torsion_ideal()
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


def test_torsion_vanishes_positive_depth():
    for ring in (PLANE, CUSP, PLANES2, SEMI345):
        assert ring.has_positive_depth()
        assert ring.torsion_length() == 0


def test_torsion_free_quotient_and_transport():
    C = DEPTH0.torsion_free_quotient()
    assert C.dimension == 1
    assert C.has_positive_depth()
    moved = C.transport(DEPTH0.maximal_ideal())
    assert moved.finite_colength() == 1
    assert not C.ideal(["x"]).gens


# -- regular sequences and the CM certificate ------------------------------

def test_regular_sequences():
    assert PLANE.is_regular_sequence(["x", "y"])
    assert PLANE.is_regular_sequence(["x", "y*(1 + x)"])
    assert not PLANE.is_regular_sequence(["x", "x"])
    assert CUSP.is_regular_sequence(["x"])
    assert CUSP.is_regular_sequence(["y"])
    assert not DEPTH0.is_regular_sequence(["y"])


def test_cm_certificates():
    assert PLANE.is_cm_via_parameters(["x", "y"])
    assert CUSP.is_cm_via_parameters(["x"])
    assert not DEPTH0.is_cm_via_parameters(["y"])
    assert not PLANES2.is_cm_via_parameters(["x - z", "y - w"])
    assert SEMI345.is_cm_via_parameters(["x"])
    with pytest.raises(ValueError):
        CUSP.is_cm_via_parameters(["x", "y"])



def test_cm_certificate_runs_once_per_job(monkeypatch):
    """run_job and the two checks that read the Cohen-Macaulay certificate
    share one regular-sequence test per ring and parameter tuple."""
    calls = []
    regular = LocalRing.is_regular_sequence

    def counting(self, elements):
        calls.append(1)
        return regular(self, elements)

    monkeypatch.setattr(LocalRing, "is_regular_sequence", counting)
    report = run_job(load_config(CORPUS_DIR / "regular_d2.json"))
    assert report["ring"]["cm_certificate"] is True
    assert report["verdict"] == "verified"
    assert len(calls) == 1

@pytest.mark.parametrize("name, colons, intersections", [
    ("sally_rr_equality.json", 88, 28),
    ("regular_d3.json", 117, 8),
    ("two_planes.json", 29, 12),
])
def test_computed_colons_and_intersections(monkeypatch, name, colons, intersections):
    """Noise-free work count: colons by an element and intersections that
    are computed rather than answered from the ring's memo.  Each computed
    one reaches the monomial layer or the t-trick elimination, once.
    Without the memo, and with closures dividing by the generators of I^k
    instead of I, these jobs compute 258/188, 601/15 and 68/12."""
    count = Counter()
    ambient, mono_colon, mono_meet = (
        ideals._intersection_in_ambient, monomial.colon, monomial.intersect)

    def counted(ring, left, right, include_relations=True):
        count["intersect" if include_relations else "colon"] += 1
        return ambient(ring, left, right, include_relations)

    def counted_colon(a, m):
        count["colon"] += 1
        return mono_colon(a, m)

    def counted_meet(a, b):
        count["intersect"] += 1
        return mono_meet(a, b)

    monkeypatch.setattr(ideals, "_intersection_in_ambient", counted)
    monkeypatch.setattr(monomial, "colon", counted_colon)
    monkeypatch.setattr(monomial, "intersect", counted_meet)
    report = run_job(load_config(CORPUS_DIR / name))
    assert report["verdict"] == "verified"
    assert (count["colon"], count["intersect"]) == (colons, intersections)


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
               if not any(mono_divides(l, mono) for l in leads))


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
        back = I.colon("x") * "x"
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
