"""The tangent cone's series against certified colengths.

``LocalRing`` reads h(t)/(1 - t)^d, the Hilbert series of gr_m(A), off one
homogeneous basis, so its local dimension d and every l(A/m^k)
(``LocalRing.maximal_power_colength``) come with no basis of m^k.
``filtration.closed_form`` also reads the sums l(A/(Q^n + m^(n+1))) of an
m-adic job off it, once the tail has proved Q a reduction of m.  Here each
is compared with the colength of a basis of its ideal: l(A/m^k) for
k <= K_TOP on every ring, and the sums for n <= N_TOP on every m-adic job
whose admissibility was certified; and on the verified ones, the report's
fitted e_i(m) and postulation index are compared with the series' own.
The rings are the corpus rings, the
m-adic corpus and digest jobs, Macaulay's ring, k[x,y,z]/(xz - x, yz - y),
the node, and drawn rings whose relations are of mixed degree, some with
linear terms, over the rationals and over fp:101.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

from filtra import monomial
from filtra.config import load_config, parse_config
from filtra.fields import field_from_descriptor
from filtra.filtration import verify_admissible
from filtra.hilbert import binom
from filtra.ideals import LocalRing

from conftest import CORPUS_DIR, canonical_key, corpus_and_digest_configs, run_captured
from test_associated_graded import MACAULAY

K_TOP = 8
N_TOP = 6


def global_dimension(ring) -> int:
    """dim k[x]/J, the pole order of the series of J's own leads."""
    return monomial.hilbert_series(ring.gb_relations.leads, ring.nvars)[1]


def assert_series_matches(ring):
    m = ring.maximal_ideal()
    assert [ring.maximal_power_colength(k) for k in range(K_TOP + 1)] == \
        [m.power(k).finite_colength() for k in range(K_TOP + 1)], ring


def assert_sums_match(lengths):
    """The table's sums, filled by the series, against the colengths of
    Q^n + m^(n+1), and against the formula by hand."""
    ring = lengths.ring
    assert lengths.filt.m_adic and lengths.postulation is not None
    m, Q, d = ring.maximal_ideal(), lengths.red.handle, ring.dimension
    want = [(Q.power(n) + m.power(n + 1)).finite_colength() for n in range(N_TOP + 1)]
    assert [lengths.get(n, n + 1, plus=True) for n in range(N_TOP + 1)] == want, ring
    assert [m.power(n + 1).finite_colength() - binom(n + d - 1, d - 1)
            for n in range(N_TOP + 1)] == want, ring


def ring_of(cfg) -> LocalRing:
    return LocalRing(cfg.variables, cfg.relations,
                     field=field_from_descriptor(cfg.field_descriptor))


@pytest.mark.parametrize("path", sorted(CORPUS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_corpus_rings(path):
    """On every corpus ring the local dimension is the global one: each is
    a cone over the origin or has no other component."""
    ring = ring_of(load_config(path))
    assert ring.dimension == global_dimension(ring)
    assert_series_matches(ring)


def test_certified_m_adic_jobs(without_closed_forms):
    """The sums on every corpus and digest job with I_1 = m whose
    admissibility was certified, in the table that ``verify_admissible``
    builds on the ring of the job's run with no closed forms, whose
    colengths came from bases; and l(A/m^k) on their rings."""
    met = 0
    for cfg in corpus_and_digest_configs():
        _, ring, _, _, filt, red = without_closed_forms[canonical_key(cfg)]
        if filt is None or not filt.m_adic:
            continue
        lengths = verify_admissible(filt, red, cfg.horizon)
        assert_sums_match(lengths)
        assert_series_matches(ring)
        met += 1
    assert met == 56


def test_fitted_numbers_are_the_series_numbers(without_closed_forms):
    """On every verified corpus and digest job with I_1 = m, the report's
    fitted e_i(m) are the series' sum_j C(j, i) h_j, and its postulation
    index is max(0, deg h - d + 1), where l(A/m^n) becomes polynomial."""
    met = 0
    for cfg in corpus_and_digest_configs():
        got, ring, _, _, filt, _ = without_closed_forms[canonical_key(cfg)]
        if got["verdict"] != "verified" or not filt.m_adic:
            continue
        h, d = ring.h_polynomial, ring.dimension
        numbers = got["numbers"]
        assert numbers["e_filtration"] == [sum(binom(j, i) * c for j, c in enumerate(h))
                                           for i in range(d + 1)], cfg.name
        assert numbers["postulation_filtration"] == max(0, len(h) - d), cfg.name
        met += 1
    assert met == 56


def macaulay_job(reduction: dict) -> dict:
    return {"name": "macaulay", "ring": {"variables": list(MACAULAY[0]),
                                         "relations": MACAULAY[1]},
            "filtration": {"kind": "adic", "stages": {"1": ["x", "y", "z", "w"]}},
            "reduction": reduction}


@pytest.mark.parametrize("reduction", [{"generators": ["x", "w"]},
                                       {"search": {"seed": 1}}], ids=["declared", "searched"])
def test_macaulay_ring(reduction):
    """h(t) = 1 + 2t + 2t^2 - t^3 in dimension two, Buchsbaum and not
    Cohen-Macaulay: the sums hold for the declared Q = (x, w) and for the
    searched dense Q."""
    cfg = parse_config(macaulay_job(reduction))
    got, ring, _, _, filt, red = run_captured(cfg)
    assert got["verdict"] == "verified"
    assert (ring.h_polynomial, ring.dimension) == ((1, 2, 2, -1), 2)
    assert_series_matches(ring)
    assert_sums_match(verify_admissible(filt, red, cfg.horizon))


@pytest.mark.parametrize("variables, relations, h, d, global_d", [
    (("x", "y", "z"), ["x*z - x", "y*z - y"], (1,), 1, 2),  # k[z]_(z) at the origin
    (("x", "y"), ["y^2 - x^2 - x^3"], (1, 1), 1, 1),  # the node, tangent cone y^2 - x^2
], ids=["plane_and_line", "node"])
def test_rings_with_a_local_answer(variables, relations, h, d, global_d):
    ring = LocalRing(variables, relations)
    assert (ring.h_polynomial, ring.dimension, global_dimension(ring)) == (h, d, global_d)
    assert_series_matches(ring)


TERMS = {
    2: [(i, j) for i in range(4) for j in range(4 - i) if i + j],
    3: [(i, j, k) for i in range(3) for j in range(3 - i) for k in range(3 - i - j) if i + j + k],
}
NAMES = ("x", "y", "z")


@st.composite
def drawn_rings(draw):
    """One or two relations in two or three variables, each with one to
    three terms of degree one to three and no constant term."""
    nvars = draw(st.sampled_from([2, 3]))
    field = draw(st.sampled_from(["q", "fp:101"]))
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.lists(st.sampled_from(TERMS[nvars]), min_size=1, max_size=3,
                              unique=True))
        coeffs = draw(st.lists(st.sampled_from([1, -1, 2, 3]),
                               min_size=len(terms), max_size=len(terms)))
        relations.append(" + ".join(
            f"({c})*" + "*".join(f"{v}^{e}" for v, e in zip(NAMES, t) if e)
            for c, t in zip(coeffs, terms)))
    return NAMES[:nvars], relations, field


@settings(max_examples=40, deadline=None)
@given(drawn_rings())
@example((("x", "y"), ["(1)*y^2 + (-1)*x^2 + (-1)*x^3"], "q"))
@example((("x", "y", "z"), ["(1)*x + (1)*y^2", "(1)*y*z + (2)*z^3"], "fp:101"))
@example((("x", "y"), ["(1)*x + (-1)*x^2", "(1)*x*y"], "q"))
def test_drawn_rings(case):
    """The series matches every l(A/m^k), and the local dimension is at most
    the global one, equal to it where the relations are homogeneous."""
    variables, relations, field = case
    ring = LocalRing(variables, relations, field=field_from_descriptor(field))
    assert_series_matches(ring)
    homogeneous = all(len({sum(m) for m, _ in r.terms}) == 1 for r in ring.relations)
    if homogeneous:
        assert ring.dimension == global_dimension(ring)
    else:
        assert ring.dimension <= global_dimension(ring)
