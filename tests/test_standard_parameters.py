"""c1 decided by the standard criterion, against the scan it shortcuts.

For a system of parameters q_1..q_d with Q = (q_1..q_d), let
I(Q) = l(A/Q) - e_0(Q) and Q^[2] = (q_1^2..q_d^2), so e_0(Q^[2]) = 2^d e_0(Q).
Where I(Q) = I(Q^[2]) the system is standard, hence a u.s.d.-sequence, and
``check_usd_bounded`` given e_0(Q) returns (True, None) with no scan; else it
scans.  Here the criterion's verdict is pinned, and the answer with e_0(Q)
must equal the scan's, witness included, on every job without the
Cohen-Macaulay certificate, on hand-checked rings and on drawn rings.
"""
import pytest
from hypothesis import event, given, settings, strategies as st

from filtra.filtration import _is_standard, check_d_sequence, check_usd_bounded
from filtra.hilbert import fit_hilbert_samuel
from filtra.ideals import AssociatedGraded, LocalRing

from conftest import canonical_key, corpus_and_digest_configs
from test_nonzerodivisor import _poly, fresh_ring

MACAULAY = (("x", "y", "z", "w"),
            ["x*w - y*z", "y^3 - x^2*z", "z^3 - y*w^2", "y^2*w - x*z^2"])

# (variables, relations, Q, e_0(Q), l(A/Q), l(A/Q^[2]), c0, c1), by hand:
# - a plane (x, y) = 0 meeting the double line (x^2, z, w) = 0: only the
#   plane has dimension two, Q restricts to its maximal ideal, so e_0 = 1;
#   A/Q = k[z,w]/(z^2, zw, w^2) and, as (x - z)^2 = z^2 and
#   (y - w)^2 = y^2 + w^2 in A, A/Q^[2] has basis 1, x, y, z, w, xy, zw, y^2;
#   I = 2 against 4;
# - k[x,y]/(x^2, xy^2) = (x) meet (x^2, y^2): e_0((y)) = 1 from the line;
#   A/(y) = k[x]/(x^2) and A/(y^2) = k[x,y]/(x^2, y^2); I = 1 against 2;
# - Macaulay's ring k[s^4, s^3t, st^3, t^4], Q = (s^4, t^4) with e_0 = 4:
#   A/Q has basis 1, s^3t, st^3, s^6t^2, s^2t^6, and A/Q^[2] keeps 1, 4, 7
#   and 5 of the monomials of degree 0, 4, 8, 12; I = 1 against 1.
CONSTRUCTED = [
    pytest.param(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w", "x^2"],
                 ["y - w", "x - z"], 1, 3, 8, True, False, id="plane_and_double_line"),
    pytest.param(("x", "y"), ["x^2", "x*y^2"], ["y"], 1, 2, 4, False, False,
                 id="embedded_point"),
    pytest.param(*MACAULAY, ["x", "w"], 4, 5, 17, True, True, id="macaulay"),
]


def scan_and_criterion(ring_of, gens, e0, power_bound=2):
    """(the scan's answer, the answer given e_0(Q)), each on its own ring."""
    return (check_usd_bounded(ring_of(), gens, power_bound),
            check_usd_bounded(ring_of(), gens, power_bound, e0))


@pytest.mark.parametrize("variables, relations, gens, e0, ell, ell2, c0, c1", CONSTRUCTED)
def test_constructed_rings(variables, relations, gens, e0, ell, ell2, c0, c1):
    ring = LocalRing(variables, relations)
    d = len(gens)
    assert ring.dimension == d
    assert ring.ideal(gens).finite_colength() == ell
    assert ring.ideal([f"({g})^2" for g in gens]).finite_colength() == ell2
    assert _is_standard(ring, [_poly(ring, g) for g in gens], e0) is (
        ell - e0 == ell2 - 2 ** d * e0)
    assert check_d_sequence(ring, gens)[0] is c0
    scan, given_e0 = scan_and_criterion(lambda: LocalRing(variables, relations), gens, e0)
    assert scan[0] is c1
    assert given_e0 == scan


def test_corpus_and_digest_jobs(without_closed_forms):
    """Every job without the certificate: 3 corpus jobs and 4 digest jobs.
    The criterion holds on each, and c1 with it."""
    decided = 0
    for cfg in corpus_and_digest_configs():
        captured = without_closed_forms[canonical_key(cfg)][3]
        if captured is None or captured[0].cohen_macaulay:
            continue
        data = captured[0]
        gens, e0 = [str(g) for g in data.red.generators], data.e_red(0)
        ring = fresh_ring(cfg)
        assert _is_standard(ring, [_poly(ring, g) for g in gens], e0), cfg.name
        scan, given_e0 = scan_and_criterion(lambda: fresh_ring(cfg), gens, e0,
                                            cfg.power_bound)
        assert given_e0 == scan == (True, None), cfg.name
        decided += 1
    assert decided == 7


def multiplicity(ring, gens, horizon=10) -> int:
    """e_0(Q), fitted to l(A/Q^n), n <= horizon, read off the Rees algebra."""
    graded = AssociatedGraded(ring, [_poly(ring, g) for g in gens])
    values = [graded.power_colength(n) for n in range(horizon + 1)]
    return fit_hilbert_samuel(values, len(gens)).coefficients[0]


VARS = ("x", "y", "z", "w")


@st.composite
def small_rings(draw):
    """k[x,y,z] or k[x,y,z,w] modulo n - 1 to n + 1 relations, each a product
    of two linear forms (a union of linear spaces) or, in k[x,y,z], also a
    monomial or binomial m - c m' of degree at most 3, of mixed degree where
    m' is of another degree.  Binomials stay out of k[x,y,z,w], where the
    elimination of one colon by an inhomogeneous element can run for
    minutes."""
    variables = VARS[:draw(st.integers(3, 4))]
    n = len(variables)
    linear = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    term = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    relations = []
    for _ in range(draw(st.integers(n - 1, n + 1))):
        if n == 4 or draw(st.booleans()):
            a, b = (_linear(variables, draw(linear)) for _ in range(2))
            relations.append(f"({a})*({b})")
        else:
            c = draw(st.sampled_from((0, 1, -1)))
            u, v = ("*".join(variables[i] for i in draw(term)) for _ in range(2))
            relations.append(f"{u} - ({c})*{v}")
    return variables, relations


def _linear(variables, coeffs) -> str:
    """The linear form of ``coeffs``, or the first variable where all are 0."""
    return " + ".join(f"({c})*{v}" for v, c in zip(variables, coeffs) if c) or variables[0]


@settings(max_examples=60, deadline=None)
@given(small_rings(), st.data())
def test_drawn_rings(spec, data):
    """A drawn ring of dimension one or two and drawn linear parameters,
    with a square term where drawn: the answer given e_0(Q) is the scan's."""
    variables, relations = spec
    try:
        ring = LocalRing(variables, relations)
    except ValueError:
        return  # the relations hold no ring: one is a unit
    d = ring.dimension
    if d not in (1, 2):
        event(f"dimension {d}")
        return
    row = st.lists(st.integers(-2, 2), min_size=len(variables), max_size=len(variables))
    gens = [f"{_linear(variables, data.draw(row))} + ({data.draw(st.integers(-1, 1))})*x^2"
            for _ in range(d)]
    if ring.ideal(gens).colength() is None:
        event("not a system of parameters")
        return  # not a system of parameters
    e0 = multiplicity(ring, gens)
    standard = _is_standard(ring, [_poly(ring, g) for g in gens], e0)
    scan, given_e0 = scan_and_criterion(lambda: LocalRing(variables, relations), gens, e0)
    event(f"d = {d}, cm {ring.complete_intersection}, standard {standard}, c1 {scan[0]}")
    assert given_e0 == scan
