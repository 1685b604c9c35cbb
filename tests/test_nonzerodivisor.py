"""Whether q is a nonzerodivisor on A/X (``IdealHandle.is_nonzerodivisor``),
and the d-sequence scans that ask it.

The graded test reads Hilbert series where X plus the relations and q are
homogeneous; everywhere else the colon (X : q) is compared with X.  Here
the two routes are compared on every prefix of every corpus and digest
reduction and on drawn rings.  The scans ``check_d_sequence`` and
``check_usd_bounded`` decide each clause by that test and compute
(B : q^e) as a chain of colons by q that stops once it is constant; they
are compared with a reference written straight from the definition, colons
by the powers compared by ``equals_local``, on the same jobs and on drawn
rings where c0 or c1 fails, witness included.
"""
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from filtra.fields import field_from_descriptor
from filtra.filtration import check_d_sequence, check_usd_bounded
from filtra.ideals import LocalRing, _as_poly

from conftest import canonical_key, corpus_and_digest_configs


def reference_d_sequence(ring, elements) -> tuple:
    """(B : q_i q_j) = (B : q_j) for all i <= j, B = (q_1..q_{i-1}), each
    colon computed as such and the two compared by ``equals_local``."""
    elements = [_poly(ring, g) for g in elements]
    for i in range(len(elements)):
        base = ring.ideal(elements[:i])
        for j in range(i, len(elements)):
            if not base.colon(elements[i] * elements[j]).equals_local(base.colon(elements[j])):
                return False, {"i": i + 1, "j": j + 1,
                               "prefix": [str(g) for g in elements[:i]]}
    return True, None


def reference_usd_bounded(ring, elements, power_bound: int) -> tuple:
    """Every permutation of the elements, raised to every exponent vector up
    to the bound, is a d-sequence by ``reference_d_sequence``."""
    elements = [_poly(ring, g) for g in elements]
    d = len(elements)
    for perm in itertools.permutations(range(d)):
        for exps in itertools.product(range(1, power_bound + 1), repeat=d):
            seq = [elements[p] ** e for p, e in zip(perm, exps)]
            ok, wit = reference_d_sequence(ring, seq)
            if not ok:
                return False, {**wit, "permutation": [p + 1 for p in perm],
                               "exponents": list(exps)}
    return True, None


def _poly(ring, g):
    return ring.gb_relations.normal_form(_as_poly(ring, g))


def fresh_ring(cfg) -> LocalRing:
    return LocalRing(cfg.variables, cfg.relations,
                     field=field_from_descriptor(cfg.field_descriptor))


def routes_agree(X, q) -> bool:
    """The graded test, where it applies, says what the colon says; return
    whether it applied."""
    q = _poly(X.ring, q)
    by_series = X._nonzerodivisor_by_series(q)
    by_colon = X._nonzerodivisor_by_colon(q)
    assert by_series in (None, by_colon), (X, q)
    assert X.is_nonzerodivisor(q) is by_colon
    return by_series is not None


@pytest.fixture(scope="module")
def jobs(without_closed_forms):
    """(config, its certified reduction's generators as text) for every
    corpus and digest job that certified one."""
    out = []
    for cfg in corpus_and_digest_configs():
        red = without_closed_forms[canonical_key(cfg)][5]
        if red is not None:
            out.append((cfg, [str(g) for g in red.generators]))
    return out


def test_graded_test_matches_the_colon_on_every_prefix(jobs):
    """For every prefix B = (q_1..q_i) of every certified reduction, each q_j
    and each B : q_j: the graded test, where it applies, matches the colon.
    It applies in 486 of the 584 comparisons; the rest have relations or
    parameters that are not homogeneous, as the curves."""
    graded, total = 0, 0
    for cfg, gens in jobs:
        ring = fresh_ring(cfg)
        for i in range(len(gens)):
            base = ring.ideal(gens[:i])
            for q in gens:
                for X in (base, base.colon(_poly(ring, q))):
                    graded += routes_agree(X, q)
                    total += 1
    assert (graded, total) == (486, 584)


def test_scans_match_the_reference_on_every_job(jobs):
    """c0 and c1, with the job's power bound, give the reference's
    (holds, witness) on every corpus and digest job, each route on its own
    ring."""
    for cfg, gens in jobs:
        ring, reference = fresh_ring(cfg), fresh_ring(cfg)
        assert check_d_sequence(ring, gens) == reference_d_sequence(reference, gens), cfg.name
        assert (check_usd_bounded(ring, gens, cfg.power_bound)
                == reference_usd_bounded(reference, gens, cfg.power_bound)), cfg.name


# (variables, relations): homogeneous rings of dimension one and two; the
# plane and the three axes are Cohen-Macaulay, the others are not
HOMOGENEOUS = [
    (("x", "y"), ["x^2", "x*y"]),
    (("x", "y"), ["x^2", "x*y^2"]),
    (("x", "y", "z"), ["x*y", "x*z", "y*z"]),
    (("x", "y"), []),
    (("x", "y", "z"), ["x^2", "x*y"]),
    (("x", "y", "z"), ["x*z", "y*z"]),
    (("x", "y", "z"), ["x*z^2", "y*z"]),
    (("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"]),
    (("x", "y", "z", "w"), ["x*w - y*z", "y^3 - x^2*z", "z^3 - y*w^2", "y^2*w - x*z^2"]),
]


def form(variables, coeffs, degree) -> str:
    """The linear form of ``coeffs`` to the given power."""
    lin = " + ".join(f"({c})*{v}" for v, c in zip(variables, coeffs) if c) or "0"
    return f"({lin})^{degree}"


COEFFS = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HOMOGENEOUS), st.sampled_from(["q", "fp:101"]),
       st.lists(st.tuples(COEFFS, st.integers(1, 2)), max_size=2),
       COEFFS, st.integers(1, 2), st.integers(0, 2))
@example(HOMOGENEOUS[-2], "q", [([1, 0, -1, 0], 1)], [0, 1, 0, -1], 1, 1)
@example(HOMOGENEOUS[1], "q", [], [0, 1, 0, 0], 1, 2)
def test_graded_test_matches_the_colon_on_drawn_rings(spec, field, xs, coeffs, degree, colons):
    """X drawn as forms, then divided by q up to twice so that X need not be
    generated by forms of q's kind; q a power of a linear form."""
    variables, relations = spec
    ring = LocalRing(variables, relations, field=field_from_descriptor(field))
    X = ring.ideal([form(variables, c, e) for c, e in xs])
    q = _poly(ring, form(variables, coeffs, degree))
    for _ in range(colons):
        X = X.colon(q)
    routes_agree(X, q)


@pytest.mark.parametrize("spec", HOMOGENEOUS[:3], ids=["x2_xy", "x2_xy2", "axes"])
def test_zero_and_unit_elements(spec):
    """A zero q is a nonzerodivisor only on the zero module, A/A; a nonzero
    constant, of degree 0, always is, and (1 - t^0) = 0 makes the series
    test say so.  The series test leaves a zero q to the colon."""
    ring = LocalRing(*spec)
    one, zero = _poly(ring, "1"), _poly(ring, "0")
    for X in (ring.zero_ideal(), ring.maximal_ideal(), ring.ideal(["x^2"])):
        assert X._nonzerodivisor_by_series(zero) is None
        assert X.is_nonzerodivisor(zero) is False
        assert X._nonzerodivisor_by_series(one) is True
        assert X.is_nonzerodivisor(one) is True
    unit = ring.unit_ideal()
    assert unit.is_nonzerodivisor(zero) is True
    assert unit.is_nonzerodivisor(one) is True


def test_inhomogeneous_input_takes_the_colon():
    """On y^2 = x^3, or with q = y + y^2, no series is read."""
    cusp = LocalRing(("x", "y"), ["y^2 - x^3"])
    assert cusp.zero_ideal()._nonzerodivisor_by_series(_poly(cusp, "x")) is None
    assert cusp.zero_ideal().is_nonzerodivisor("x")
    line = LocalRing(("x", "y"), ["x^2", "x*y"])
    q = _poly(line, "y + y^2")
    assert line.zero_ideal()._nonzerodivisor_by_series(q) is None
    assert not line.zero_ideal().is_nonzerodivisor(q)


# (variables, relations, reduction) where c0 or c1 fails, the witnesses
# spread over both clauses, several exponents and both orders
FAILING = [
    (("x", "y"), ["x^2", "x*y^2"], ["y"]),
    (("x", "y"), ["x^2", "x*y^2"], ["y + x"]),
    (("x", "y", "z"), ["x^2", "x*y"], ["y", "z"]),
    (("x", "y", "z"), ["x^2", "x*y^2"], ["y", "z"]),
    (("x", "y", "z"), ["x*z", "y*z"], ["x - z", "y"]),
    (("x", "y", "z"), ["x*z", "y*z"], ["x + z", "y + z"]),
    (("x", "y", "z"), ["x*z^2", "y*z"], ["x + z", "y"]),
    (("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"], ["x", "w"]),
    (("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"], ["x + z", "y"]),
    (("x", "y"), ["x^2", "x*y^2"], ["y + y^2"]),
    (("x", "y"), ["x^2 + 2*x*y^2 + y^4", "x*y^3 + y^5"], ["y"]),
]


@pytest.mark.parametrize("variables, relations, gens", FAILING)
def test_failing_scans_match_the_reference(variables, relations, gens):
    ring, reference = LocalRing(variables, relations), LocalRing(variables, relations)
    got = (check_d_sequence(ring, gens), check_usd_bounded(ring, gens, 2))
    assert got == (reference_d_sequence(reference, gens),
                   reference_usd_bounded(reference, gens, 2))
    assert not got[1][0]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([spec for spec in HOMOGENEOUS if len(spec[0]) >= 3]),
       st.lists(COEFFS, min_size=2, max_size=2), st.integers(1, 2))
def test_drawn_scans_match_the_reference(spec, rows, power_bound):
    """Linear parameters of drawn rings of dimension two, none of them
    Cohen-Macaulay, so that some draws fail c0 or c1."""
    variables, relations = spec
    ring, reference = LocalRing(variables, relations), LocalRing(variables, relations)
    gens = [form(variables, row, 1) for row in rows]
    if ring.dimension != 2 or ring.ideal(gens).colength() is None:
        return  # not a system of parameters
    assert check_d_sequence(ring, gens) == reference_d_sequence(reference, gens)
    assert (check_usd_bounded(ring, gens, power_bound)
            == reference_usd_bounded(reference, gens, power_bound))
