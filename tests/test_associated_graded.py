"""The colengths l(A/(Q^n + W)) and l(A/(Q^n I_k + W)) read off one
presentation of the Rees algebra (A/W)[Q u] (``ideals.AssociatedGraded``)
against the colength of a basis of each Q^n + W and Q^n I_k + W, the route
it replaces.  Only two_planes and its Ratliff-Rush twin take it among the
corpus and digest jobs, so here it also meets Macaulay's Buchsbaum ring and
drawn rings, several of them not Cohen-Macaulay, with linear parameters
that are not monomials, over the rationals and over fp:101.  I_k is m^k,
which contains Q^k.
"""
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from filtra.config import parse_config
from filtra.fields import field_from_descriptor
from filtra.ideals import AssociatedGraded, LocalRing
from filtra.report import run_job

TOP = 6
STAGES = 3

# k[s^4, s^3 t, s t^3, t^4]: Buchsbaum, not Cohen-Macaulay, of dimension two
MACAULAY = (("x", "y", "z", "w"),
            ["x*w - y*z", "y^3 - x^2*z", "z^3 - y*w^2", "y^2*w - x*z^2"])

# (variables, relations, dimension): rings of dimension one and two, with
# the depth-zero k[x,y]/(x^2, xy), the two planes (x,y) meet (z,w), a plane
# with an embedded line and a plane meeting a line, none Cohen-Macaulay
RINGS = [
    (("x", "y"), ["x^2", "x*y"], 1),
    (("x", "y"), ["y^2 - x^3"], 1),
    (("x", "y", "z"), ["x*y", "x*z", "y*z"], 1),
    (("x", "y"), [], 2),
    (("x", "y", "z"), ["x^2", "x*y"], 2),
    (("x", "y", "z"), ["x*z", "y*z"], 2),
    (("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"], 2),
]


def assert_matches_powers(ring, gens):
    """The route's l(A/Q^n) and l(A/Q^n I_k) and, for a nonzero torsion ideal
    W, its l(A/(Q^n + W)) and l(A/(Q^n I_k + W)) equal the colengths of the
    ideals for n <= TOP and 1 <= k <= STAGES."""
    Q = ring.ideal(gens)
    W = ring.torsion_ideal()
    m = ring.maximal_ideal()
    for modulo in ([ring.zero_ideal(), W] if W.gens else [W]):
        graded = AssociatedGraded(ring, Q.gens, modulo.gens)
        got = [graded.power_colength(n) for n in range(TOP + 1)]
        assert got == [(Q.power(n) + modulo).finite_colength() for n in range(TOP + 1)], \
            (ring, gens, modulo)
        for k in range(1, STAGES + 1):
            stage = m.power(k)
            got = [graded.product_colength(n, stage) for n in range(TOP + 1)]
            assert got == [(Q.power(n) * stage + modulo).finite_colength()
                           for n in range(TOP + 1)], (ring, gens, modulo, k)


def test_two_planes():
    ring = LocalRing(*RINGS[-1][:2])
    assert_matches_powers(ring, ["x - z", "y - w"])


def test_macaulay_ring_with_linear_parameters():
    assert_matches_powers(LocalRing(*MACAULAY), ["x - z", "y + w"])


def test_macaulay_ring_with_monomial_parameters():
    assert_matches_powers(LocalRing(*MACAULAY), ["x", "w"])


def test_macaulay_job_work(census):
    """Noise-free work count of the job on Macaulay's ring with I_1 = m and
    Q = (x, w), which verifies with equality, e(I) = (4, 3, -1) and
    e(Q) = (4, -1, 0): general Buchberger runs, S-polynomials, t-trick
    eliminations and colons computed.  Its l(A/Q^n I_k) are read off the
    Rees algebra, and its d-sequence clauses off Hilbert series.  While
    each l(A/Q^n I_k) came from a basis of Q^n I_k and each clause from two
    colons, the job made 58 runs, 1 329 S-polynomials, 21 eliminations and
    21 colons; while each l(A/m^k) and each sum l(A/(Q^n + m^(n+1))) came
    from its own basis instead of the tangent cone's series, 39 runs, 739
    S-polynomials, 5 eliminations and 5 colons; before c1 was read off the
    standard criterion instead of the u.s.d. scan, 17 runs, 154
    S-polynomials, 5 eliminations and 5 colons."""
    got = run_job(parse_config({
        "name": "macaulay", "ring": {"variables": list(MACAULAY[0]),
                                     "relations": MACAULAY[1]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y", "z", "w"]}},
        "reduction": {"generators": ["x", "w"]}}))
    assert got["verdict"] == "verified"
    assert got["numbers"]["boundary"]["equality"]
    assert (got["numbers"]["e_filtration"], got["numbers"]["e_reduction"]) == \
        ([4, 3, -1], [4, -1, 0])
    assert (census["buchberger"], census["spolys"], census["eliminations"],
            census["colons"]) == (11, 88, 3, 3)


@pytest.mark.parametrize("field", ["q", "fp:101"])
@pytest.mark.parametrize("c", [0, 1, -2])
def test_depth_zero_line_with_a_slanted_parameter(field, c):
    """k[x,y]/(x^2, xy) with Q = (y + c x): W = (x), so both the table of A
    and that of A/W are checked."""
    ring = LocalRing(("x", "y"), ["x^2", "x*y"], field=field_from_descriptor(field))
    assert ring.torsion_ideal().gens
    assert_matches_powers(ring, [f"y + {c}*x"])


def linear_form(variables, coeffs) -> str:
    return " + ".join(f"{c}*{v}" for v, c in zip(variables, coeffs) if c) or "0"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS), st.sampled_from(["q", "fp:101"]),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=2, max_size=2))
@example(RINGS[-1], "q", [[1, 0, -1, 0], [0, 1, 0, -1]])
@example(RINGS[0], "fp:101", [[2, 1, 0, 0], [0, 0, 0, 0]])
def test_drawn_rings_with_linear_parameters(spec, field, coeffs):
    variables, relations, d = spec
    ring = LocalRing(variables, relations, field=field_from_descriptor(field))
    gens = [linear_form(variables, row) for row in coeffs[:d]]
    assume(ring.ideal(gens).colength() is not None)  # a system of parameters
    assert_matches_powers(ring, gens)
