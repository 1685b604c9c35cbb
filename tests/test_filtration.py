"""Filtration towers, admissibility certificates, sequence conditions."""
import pytest
from hypothesis import example, given, settings, strategies as st

from filtra import filtration
from filtra.config import parse_config
from filtra.filtration import (ADIC, EXPLICIT, RATLIFF_RUSH, Filtration,
                               HorizonExceeded, NotAdmissible, SearchExhausted,
                               check_colon_in_i1, check_d_sequence,
                               check_usd_bounded, find_reduction,
                               reduction_system, verify_admissible)
from filtra.ideals import LocalRing
from filtra.report import run_job

PLANE = LocalRing(("x", "y"))
CUSP = LocalRing(("x", "y"), ["y^2 - x^3"])
DEPTH0 = LocalRing(("x", "y"), ["x^2", "x*y"])
PLANES2 = LocalRing(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"])

SALLY_GENS = ["x^4", "x^3*y", "x*y^3", "y^4"]


def test_adic_stages_are_powers():
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    assert filt.get_ideal(0).is_unit
    m = CUSP.maximal_ideal()
    for n in range(1, 5):
        assert filt.get_ideal(n).equals_local(m.power(n))
    assert filt.get_ideal(2) is filt.get_ideal(2)  # memoized


def test_towers_share_the_powers_kept_on_the_handle():
    """A handle keeps its powers: Q^1 is Q itself, a power asked twice is
    the same handle, and the stages of an adic tower are the seed's own
    powers."""
    Q = CUSP.ideal(["x"])
    assert Q.power(1) is Q
    for n in range(4):
        assert Q.power(n) is Q.power(n)
    adic = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    for n in range(1, 4):
        assert adic.get_ideal(n) is adic.seed.power(n)


def test_stage_index_guards(monkeypatch):
    """A stage past the cap ends the job with the cap as its witness.  The
    job is in dimension two, with I_1 = Q = (x^2, y), a tower whose lengths
    the tangent cone's series does not give.  The cusp with Q = (x), the job
    here until the length table, builds no stage past I_2, as its later
    lengths are closed forms (``filtration.closed_form``); the m-adic job
    in k[x,y] with Q = m, the job here until the tangent cone's series,
    builds none past I_1."""
    monkeypatch.setattr(filtration, "HARD_CAP", 3)
    filt = Filtration(PLANE, ADIC, {1: ["x", "y"]})
    with pytest.raises(ValueError):
        filt.get_ideal(-1)
    with pytest.raises(HorizonExceeded, match=r"HARD_CAP=3") as err:
        filt.get_ideal(4)
    assert err.value.witness == {"cap": "HARD_CAP", "value": 3}
    report = run_job(parse_config({
        "name": "hard_cap", "horizon": 6,
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x^2", "y"]}},
        "reduction": {"generators": ["x^2", "y"]}}))
    assert report["error"]["type"] == "HorizonExceeded"
    assert report["error"]["witness"] == {"cap": "HARD_CAP", "value": 3}


def test_listed_stage_past_hard_cap_is_refused(monkeypatch):
    """The cap is checked before the listed stages are read."""
    monkeypatch.setattr(filtration, "HARD_CAP", 3)
    filt = Filtration(PLANE, EXPLICIT, {1: ["x", "y"], 2: ["x^2", "y"],
                                       3: ["x^3", "y"], 4: ["x^4", "y"]})
    assert filt.get_ideal(3).gens
    with pytest.raises(HorizonExceeded, match=r"stage 4 beyond HARD_CAP=3"):
        filt.get_ideal(4)


def test_ratliff_rush_enlarges_stage_one():
    """The closure of (x^4, x^3 y, x y^3, y^4) adjoins x^2 y^2."""
    adic = Filtration(PLANE, ADIC, {1: SALLY_GENS})
    rr = Filtration(PLANE, RATLIFF_RUSH, {1: SALLY_GENS})
    assert sorted(str(g) for g in rr.i1.gens) == [
        "x*y^3", "x^2*y^2", "x^3*y", "x^4", "y^4"]
    assert rr.i1.contains_ideal(adic.i1)
    assert not adic.i1.contains_element("x^2*y^2")
    # deeper closure stages agree with plain powers here
    assert rr.get_ideal(2).equals_local(adic.get_ideal(2))
    assert rr.get_ideal(3).equals_local(adic.get_ideal(3))


def test_ratliff_rush_of_stable_ideal_is_identity():
    rr = Filtration(CUSP, RATLIFF_RUSH, {1: ["x", "y"]})
    m = CUSP.maximal_ideal()
    for n in range(1, 4):
        assert rr.get_ideal(n).equals_local(m.power(n))


def test_ratliff_rush_closure_stops_at_the_first_repeat():
    """I = (x^5, x^4 y, x y^4, y^5): C(2, 1) = I^2 : I is I + (x^3 y^3), of
    colength 17, and C(3, 2) = C(4, 3) = m^5, so the closure of I is m^5, of
    colength 15, seen at k = 2 and repeated first at k = 3.  C(2, 1) always
    lies in C(3, 2), so a rule that stopped on that containment would keep
    I + (x^3 y^3).  The closure lies between I and its integral closure,
    whose exponents are those of the Newton polygon conv(exponents of I) +
    R_{>=0}^2 (Swanson-Huneke, Integral Closure of Ideals, Rings, and
    Modules, sec. 1.4): every exponent of I lies on i + j = 5, with (5, 0)
    and (0, 5) among them, so the polygon is i + j >= 5 and the integral
    closure is m^5.  The job with Q = (x^5, y^5) verifies on that stage
    one."""
    gens = ["x^5", "x^4*y", "x*y^4", "y^5"]
    I = PLANE.ideal(gens)
    m5 = PLANE.maximal_ideal().power(5)
    assert {i + j for i, j in I.exponents} == {5} and {(5, 0), (0, 5)} <= set(I.exponents)
    c21 = I.power(2).colon(I)
    assert c21.equals_local(I + PLANE.ideal(["x^3*y^3"])) and c21.colength() == 17
    assert I.power(3).colon(I).colon(I).equals_local(m5)
    assert I.power(4).colon(I).colon(I).colon(I).equals_local(m5)
    closure = Filtration(PLANE, RATLIFF_RUSH, {1: gens}).get_ideal(1)
    assert closure.equals_local(m5) and closure.colength() == 15
    report = run_job(parse_config({
        "name": "ratliff_rush_at_k3",
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "ratliff_rush", "stages": {"1": gens}},
        "reduction": {"generators": ["x^5", "y^5"]}}))
    assert report["verdict"] == "verified"
    assert report["filtration"]["stage_one"] == [
        "y^5", "x*y^4", "x^2*y^3", "x^3*y^2", "x^4*y", "x^5"]


def _mono(e) -> str:
    return "*".join(f"{v}^{k}" for v, k in zip("xy", e) if k)


@st.composite
def binomial_gens(draw):
    """Generators of a small ideal of k[x,y]: one to three monomials and, in
    half the cases, a binomial; exponents stay small so that the direct
    colon by a power, which eliminates an extra variable per generator of
    that power, keeps each example fast."""
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    gens = [_mono(e) for e in draw(st.lists(expo, min_size=1, max_size=3))]
    if draw(st.booleans()):
        small = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
        u, v = draw(st.lists(small, min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from((1, -1, 2)))
        gens.append(f"{_mono(u)} - {c}*{_mono(v)}")
    return gens


class Unmemoized(LocalRing):
    """A ring whose colons and intersections are always computed afresh."""

    def _memo(self, key, compute, *args):
        return compute(*args)


XY = ("x", "y")


@settings(max_examples=30, deadline=None)
@given(binomial_gens(), st.integers(1, 2), st.integers(1, 2))
@example(SALLY_GENS, 1, 1)
@example(["x^2 - y", "x*y"], 1, 2)
def test_iterated_colon_matches_direct_colon(gens, n, k):
    """I^{n+k} followed by k colons by I, as the closure builds C(n+k, k),
    has the reduced basis of I^{n+k} : I^k computed directly, on a ring
    without the operation memo."""
    seed = LocalRing(XY).ideal(gens)
    iterated = seed.power(n + k)
    for _ in range(k):
        iterated = iterated.colon(seed)
    I = Unmemoized(XY).ideal(gens)
    direct = I.power(n + k).colon(I.power(k))
    assert iterated.gb().polys == direct.gb().polys


@settings(max_examples=30, deadline=None)
@given(binomial_gens(), binomial_gens(), binomial_gens())
def test_memoized_operations_match_an_unmemoized_ring(gens, other, divisors):
    """Once the memo holds every colon and intersection below, each repeated
    call presents the same generators as on a ring without the memo."""
    calls = [lambda R, a=a, f=f: R.ideal(a).colon(f)
             for a in (gens, other) for f in divisors]
    calls += [lambda R: R.ideal(gens).intersect(R.ideal(other)),
              lambda R: R.ideal(other).intersect(R.ideal(gens)),
              lambda R: R.ideal(gens).colon(R.ideal(other))]
    ring, plain = LocalRing(XY), Unmemoized(XY)
    for call in calls:
        call(ring)
    for call in calls:
        assert call(ring).gens == call(plain).gens


def test_explicit_tail_rule():
    filt = Filtration(DEPTH0, EXPLICIT, {1: ["x", "y"], 2: ["x", "y^2"]})
    assert filt.get_ideal(3).equals_local(filt.i1 * filt.get_ideal(2))
    assert filt.get_ideal(4).equals_local(filt.i1 * filt.get_ideal(3))


# -- admissibility ---------------------------------------------------------

def test_certificate_cusp():
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    red = reduction_system(CUSP, ["x"])
    lengths = verify_admissible(filt, red, 8)
    assert lengths.postulation == 1
    assert lengths.flags[0] is False
    assert all(lengths.flags[1:])


def test_certificate_sally_reduction():
    # Q I_1 is strictly inside I_2 (nonzero Sally piece), so the tail
    # equalities only start at n = 2
    filt = Filtration(PLANE, ADIC, {1: SALLY_GENS})
    red = reduction_system(PLANE, ["x^4", "y^4"])
    lengths = verify_admissible(filt, red, 8)
    assert lengths.postulation == 2
    assert lengths.flags[:2] == (False, False)
    assert all(lengths.flags[2:])
    rr = Filtration(PLANE, RATLIFF_RUSH, {1: SALLY_GENS})
    assert verify_admissible(rr, red, 8).postulation == 1


def test_not_admissible_stage_one_not_primary():
    filt = Filtration(PLANE, ADIC, {1: ["x"]})
    red = reduction_system(PLANE, ["x", "y"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    assert err.value.witness["check"] == "m_primary"


def test_not_admissible_parameter_count():
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    red = reduction_system(CUSP, ["x", "y"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    assert err.value.witness["check"] == "parameter_count"


def test_not_admissible_reduction_outside():
    filt = Filtration(CUSP, ADIC, {1: ["x^2", "x*y", "y^2"]})
    red = reduction_system(CUSP, ["x"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    assert err.value.witness["check"] == "reduction_inside"


def test_not_admissible_chain_violation():
    filt = Filtration(PLANE, EXPLICIT, {1: ["x", "y"], 2: ["x^2"], 3: ["y^3"]})
    red = reduction_system(PLANE, ["x", "y"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    wit = err.value.witness
    assert wit["check"] == "chain" and wit["n"] == 2 and wit["generator"] == "y^3"


def test_not_admissible_products_violation():
    filt = Filtration(PLANE, EXPLICIT, {1: ["x", "y"], 2: ["y^2"]})
    red = reduction_system(PLANE, ["x", "y"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    wit = err.value.witness
    assert wit["check"] == "products" and (wit["a"], wit["b"]) == (1, 1)


def test_not_admissible_reduction_never_exact():
    filt = Filtration(PLANE, ADIC, {1: ["x^2", "y^2"]})
    red = reduction_system(PLANE, ["x^2", "y^4"])
    with pytest.raises(NotAdmissible) as err:
        verify_admissible(filt, red, 8)
    assert err.value.witness["check"] == "reduction_tail"


# -- reduction search ------------------------------------------------------

def test_find_reduction_deterministic_per_seed():
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    first = find_reduction(filt, 8, seed=5, attempts=40)
    second = find_reduction(filt, 8, seed=5, attempts=40)
    assert [str(g) for g in first.generators] == [str(g) for g in second.generators]
    verify_admissible(filt, first, 8)


def test_find_reduction_exhaustion():
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    with pytest.raises(SearchExhausted):
        find_reduction(filt, 8, seed=0, attempts=0)


@pytest.mark.parametrize("variables, relations, stage_one, reduction, check", [
    (["x", "y"], ["y^2 - x^3"], ["y^2 - x^3"], {"search": {}}, "proper"),
    (["x", "y", "z"], [], ["x", "y"], {"search": {}}, "m_primary"),
    (["x"], ["x^2"], ["x"], {"search": {}}, "parameter_count"),
    (["x"], ["x^2"], ["x"], {"generators": ["x"]}, "parameter_count"),
], ids=["zero_stage_one", "not_m_primary", "dimension_zero_searched",
        "dimension_zero_declared"])
def test_search_refuses_what_no_reduction_mends(variables, relations, stage_one,
                                                reduction, check):
    """A stage one that is zero or not m-primary, or a ring of dimension 0,
    is refused before the first attempt, as it is for declared generators,
    not after every attempt as an exhausted search (or, in dimension 0, a
    bare ValueError from the fit)."""
    report = run_job(parse_config({
        "ring": {"variables": variables, "relations": relations},
        "filtration": {"kind": "adic", "stages": {"1": stage_one}},
        "reduction": reduction}))
    assert report["verdict"] == "invalid-input"
    assert report["error"]["type"] == "NotAdmissible"
    assert report["error"]["witness"]["check"] == check


def test_find_reduction_lets_internal_faults_through(monkeypatch):
    """Only a candidate that is not admissible is skipped: any other error
    in an attempt is a fault, and must not read as an exhausted search."""
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(filtration, "verify_admissible", boom)
    filt = Filtration(CUSP, ADIC, {1: ["x", "y"]})
    with pytest.raises(ValueError, match="boom"):
        find_reduction(filt, 8, seed=0, attempts=5)


# -- sequence conditions ---------------------------------------------------

def test_d_sequence_cases():
    ok, wit = check_d_sequence(CUSP, ["x"])
    assert ok and wit is None
    assert check_d_sequence(PLANE, ["x", "y"])[0]
    nilp = LocalRing(("x", "y"), ["x^2"])
    ok, wit = check_d_sequence(nilp, ["x"])
    assert not ok
    assert (wit["i"], wit["j"]) == (1, 1)


def test_usd_bounded_cases():
    assert check_usd_bounded(CUSP, ["x"], power_bound=2)[0]
    assert check_usd_bounded(PLANES2, ["x - z", "y - w"], power_bound=2)[0]
    nilp = LocalRing(("x", "y"), ["x^2"])
    ok, wit = check_usd_bounded(nilp, ["x"], power_bound=2)
    assert not ok and "permutation" in wit


def test_colon_in_stage_one_cases():
    red = reduction_system(CUSP, ["x"])
    assert check_colon_in_i1(red, CUSP.maximal_ideal())[0]
    red0 = reduction_system(DEPTH0, ["y"])
    assert check_colon_in_i1(red0, DEPTH0.maximal_ideal())[0]
    # the annihilator of y is (x), which a filtration starting at (y) misses
    ok, wit = check_colon_in_i1(red0, DEPTH0.ideal(["y"]))
    assert not ok and wit["witness"] == "x"


def test_reduction_system_rejects_zero():
    """A generator that is zero in the ring is not admissible, and a job
    that declares one reports that with the witness."""
    with pytest.raises(NotAdmissible) as err:
        reduction_system(DEPTH0, ["x^2"])
    assert err.value.witness == {"check": "reduction_nonzero"}
    report = run_job(parse_config({
        "ring": {"variables": ["x", "y"], "relations": ["x^2", "x*y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["x^2"]}}))
    assert report["verdict"] == "invalid-input"
    assert report["error"]["type"] == "NotAdmissible"
    assert report["error"]["witness"] == {"check": "reduction_nonzero"}
