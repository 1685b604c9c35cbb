"""Buchberger kernel: frozen bases, independent oracles, equivalences.

The staircase counter is rebuilt here from scratch (brute lattice walk) so
lengths have an oracle that shares no code with the implementation.
"""
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from filtra import groebner, ideals
from filtra.config import load_config, parse_config
from filtra.fields import PrimeField, QQ, field_from_descriptor
from filtra.groebner import eliminate, groebner_basis
from filtra.ideals import LocalRing
from filtra.monomial import (count_box_complement, divides, hilbert_series, mul,
                             pure_power_bounds)
from filtra.orders import elimination_block, grevlex
from filtra.parser import parse_polynomial
from filtra.poly import ContextMismatch, PolyContext, Polynomial

from conftest import CORPUS_DIR, counting_work

CTX2 = PolyContext.get(("x", "y"), QQ, grevlex(2))
CTX3 = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))


def gb_strings(strs, ctx):
    polys = [parse_polynomial(s, ctx) for s in strs]
    return [str(p) for p in groebner_basis(polys, ctx=ctx).polys]


# -- frozen reduced bases (canonical: monic, autoreduced, ascending) -------

def test_frozen_simple_basis():
    assert gb_strings(["x^2 + y", "x*y + x"], CTX2) == [
        "y^2 + y", "x*y + x", "x^2 + y"]


def test_frozen_twisted_cubic():
    assert gb_strings(["y - x^2", "z - x^3"], CTX3) == [
        "y^2 - x*z", "x*y - z", "x^2 - y"]


def test_frozen_katsura2():
    assert gb_strings(
        ["x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y"],
        CTX3) == [
        "x + 2*y + 2*z - 1",
        "y*z + 6/5*z^2 - 1/10*y - 2/5*z",
        "y^2 - 3/5*z^2 - 1/5*y + 1/5*z",
        "z^3 - 79/210*z^2 + 1/30*y + 1/70*z"]


def test_unit_ideal_detection():
    g = groebner_basis([parse_polynomial("x + 1", CTX2),
                        parse_polynomial("x", CTX2)], ctx=CTX2)
    assert g.is_unit_ideal()
    assert [str(p) for p in g.polys] == ["1"]


def test_membership_and_normal_form():
    polys = [parse_polynomial(s, CTX3) for s in ["y - x^2", "z - x^3"]]
    g = groebner_basis(polys, ctx=CTX3)
    assert g.normal_form(parse_polynomial("y^2 - x*z", CTX3)).is_zero
    assert g.normal_form(parse_polynomial("(y - x^2) * (z + x*y)", CTX3)).is_zero
    assert not g.normal_form(parse_polynomial("x", CTX3)).is_zero
    r = g.normal_form(parse_polynomial("x^2 + z", CTX3))
    assert g.normal_form(parse_polynomial("x^2 + z", CTX3) - r).is_zero


def test_permutation_invariance():
    strs = ["x^2 + 2*y^2 + 2*z^2 - x", "x + 2*y + 2*z - 1", "2*x*y + 2*y*z - y"]
    base = gb_strings(strs, CTX3)
    for perm in itertools.permutations(strs):
        assert gb_strings(list(perm), CTX3) == base


# -- monomial staircases: independent oracle (criterion: zero mismatches) --

def brute_standard_count(gens, bounds):
    """Walk the whole finite box and count monomials outside the ideal."""
    count = 0
    for mono in itertools.product(*[range(b) for b in bounds]):
        if not any(divides(g, mono) for g in gens):
            count += 1
    return count


def minimalize(monos):
    out = []
    for m in sorted(monos, key=sum):
        if not any(divides(k, m) for k in out):
            out.append(m)
    return out


def random_artinian_monomial_ideal(rng, nvars):
    """Pure power of every variable plus a few extra monomials."""
    gens = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = rng.randint(1, 5)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 4)):
        gens.append(tuple(rng.randint(0, 4) for _ in range(nvars)))
    return minimalize(gens)


def test_staircase_length_oracle_100():
    """>= 100 random monomial instances in <= 3 variables; GB standard
    monomial counting must equal the brute staircase count exactly."""
    rng = random.Random(20240817)
    checked = 0
    for trial in range(120):
        nvars = rng.choice((1, 2, 3))
        ctx = PolyContext.get(tuple("xyz"[:nvars]), QQ, grevlex(nvars))
        gens = random_artinian_monomial_ideal(rng, nvars)
        polys = [Polynomial.monomial(ctx, m) for m in gens]
        g = groebner_basis(polys, ctx=ctx)
        # monomial input: the reduced basis is exactly the minimal gens
        assert sorted(p.lead_monomial() for p in g.polys) == sorted(gens)
        assert all(p.is_monomial() for p in g.polys)
        bounds = pure_power_bounds(g.leads, nvars)
        assert bounds is not None
        count = count_box_complement(bounds, g.leads)
        assert count == brute_standard_count(gens, [b + 1 for b in bounds])
        checked += 1
    assert checked >= 100


def test_count_box_complement_against_brute():
    rng = random.Random(7)
    for _ in range(60):
        nvars = rng.choice((2, 3))
        gens = minimalize([tuple(rng.randint(0, 5) for _ in range(nvars))
                           for _ in range(rng.randint(1, 5))])
        if any(sum(g) == 0 for g in gens):
            continue  # unit ideal, complement empty
        bounds = [max(g[i] for g in gens) + rng.randint(0, 2)
                  for i in range(nvars)]
        got = count_box_complement(bounds, gens)
        want = sum(1 for mono in itertools.product(*[range(b) for b in bounds])
                   if not any(divides(g, mono) for g in gens))
        assert got == want


# -- criteria-free equivalence (criterion: reduced GB identity) ------------

def random_poly(rng, ctx, deg, terms):
    out = Polynomial.zero(ctx)
    for _ in range(terms):
        m = [0] * ctx.nvars
        for _ in range(rng.randint(0, deg)):
            m[rng.randrange(ctx.nvars)] += 1
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        out = out + Polynomial.monomial(ctx, tuple(m), ctx.field.from_int(c))
    return out


def test_criteria_equivalence_general():
    """Buchberger with the Gebauer-Moller criteria and the criterion-free run
    must produce the identical canonical basis."""
    rng = random.Random(99)
    fast_ctx = PolyContext.get(("x", "y", "z"), PrimeField(101), grevlex(3))
    done = 0
    for trial in range(60):
        ctx = CTX3 if trial % 2 else fast_ctx
        gens = [random_poly(rng, ctx, 2, rng.randint(1, 3))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        with_c = groebner_basis(gens, ctx=ctx, use_criteria=True)
        without = groebner_basis(gens, ctx=ctx, use_criteria=False)
        assert with_c.polys == without.polys
        done += 1
    assert done >= 50


def test_criteria_equivalence_monomial():
    rng = random.Random(4242)
    for _ in range(60):
        nvars = rng.choice((2, 3))
        ctx = PolyContext.get(tuple("xyz"[:nvars]), QQ, grevlex(nvars))
        gens = [Polynomial.monomial(ctx, m)
                for m in random_artinian_monomial_ideal(rng, nvars)]
        a = groebner_basis(gens, ctx=ctx, use_criteria=True)
        b = groebner_basis(gens, ctx=ctx, use_criteria=False)
        assert a.polys == b.polys


def test_monomial_input_bypasses_buchberger(monkeypatch):
    """With the criteria on, all-monomial input never reaches Buchberger,
    and with them off it still does, so the test above keeps comparing the
    monomial layer with a full Buchberger run."""
    from filtra.report import run_job

    def forbidden(*args):
        raise AssertionError("Buchberger ran on all-monomial input")

    monkeypatch.setattr(groebner, "_buchberger_raw", forbidden)
    cfg = parse_config({
        "name": "monomial_guard",
        "horizon": 6,
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x^3", "x^2*y", "y^3"]}},
        "reduction": {"generators": ["x^3", "y^3"]},
    })
    assert run_job(cfg)["verdict"] == "verified"
    gens = [parse_polynomial(s, CTX2) for s in ["x^2", "x*y"]]
    with pytest.raises(AssertionError, match="Buchberger ran"):
        groebner_basis(gens, ctx=CTX2, use_criteria=False)


# -- a monomial ideal presented with non-monomial generators ---------------

@st.composite
def nearly_monomial_inputs(draw):
    """(ctx, seed, gens) in 2-3 variables over Q or F_101: a few monomials M,
    and up to three more generators of at most three terms each, all of
    them multiples of M but for zero, one or two free terms of low degree,
    which may or may not lie in M.  With a seed, its polys open gens: it is
    the reduced basis of some of the drawn generators, which may be
    non-monomial, and the rest follow it."""
    field = draw(st.sampled_from([QQ, PrimeField(101)]))
    nvars = draw(st.sampled_from([2, 3]))
    ctx = PolyContext.get(tuple("xyz"[:nvars]), field, grevlex(nvars))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    low = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def term(m):
        return Polynomial.monomial(ctx, m, field.from_int(draw(coeff)))

    variable = st.integers(0, nvars - 1).map(ctx.var_mono)
    monos = [mul(draw(expo), draw(variable)) for _ in range(draw(st.integers(1, 3)))]
    gens = [term(m) for m in monos]
    for _ in range(draw(st.integers(1, 3))):
        free = [draw(low) for _ in range(draw(st.sampled_from([0, 1, 2])))]
        inside = [mul(draw(st.sampled_from(monos)), draw(expo))
                  for _ in range(draw(st.integers(1, 3 - len(free))))]
        g = sum((term(m) for m in inside + free), Polynomial.zero(ctx))
        if not g.is_zero:
            gens.append(g)
    gens = draw(st.permutations(gens))
    if not draw(st.booleans()):
        return ctx, None, gens
    cut = draw(st.integers(1, len(gens)))
    seed = groebner_basis(gens[:cut], ctx=ctx)
    return ctx, seed, list(seed.polys) + gens[cut:]


def spans_a_monomial_ideal(polys) -> bool:
    """The rule restated: with M the monomial generators, every generator
    has at most one term outside M."""
    M = [g.lead_monomial() for g in polys if g.is_monomial()]
    return all(sum(not any(divides(a, m) for a in M) for m, _ in g.terms) <= 1
               for g in polys)


@settings(max_examples=100, deadline=None)
@given(nearly_monomial_inputs())
def test_a_monomial_ideal_takes_its_basis_without_buchberger(case):
    """The basis equals the criteria-off run and sympy's reduced grevlex
    basis, and Buchberger runs exactly when the seed check and the monomial
    rule both fall through: the rule reads the seed's polys and the other
    generators reduced by the seed."""
    sympy = pytest.importorskip("sympy")
    ctx, seed, gens = case
    with counting_work() as census:
        got = groebner_basis(gens, ctx=ctx, seed=seed)
    assert got.polys == groebner_basis(gens, ctx=ctx, use_criteria=False).polys
    xs = sympy.symbols(ctx.variables)
    modulus = {} if ctx.field.p is None else {"modulus": ctx.field.p}
    theirs = sympy.groebner([to_sympy(g) for g in gens], *xs, order="grevlex",
                            **modulus)
    ref = {str(from_sympy(e, ctx, xs).monic()) for e in theirs.exprs}
    assert {str(p) for p in got.polys} == ref
    polys = gens
    if seed is not None:
        rest = [seed.normal_form(g) for g in gens[len(seed.polys):]]
        rest = [r for r in rest if not r.is_zero]
        if not rest:
            assert got is seed and not census["buchberger"]
            return
        polys = list(seed.polys) + rest
    assert bool(census["buchberger"]) != spans_a_monomial_ideal(polys)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, PrimeField(101)]), st.sampled_from([2, 3]),
       st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_a_single_generator_takes_its_basis_without_buchberger(
        field, nvars, draw_seed, zeros):
    """One nonzero generator, among any zero ones, made monic is its own
    reduced basis: no Buchberger runs, and the basis equals the
    criteria-off run and sympy's."""
    sympy = pytest.importorskip("sympy")
    ctx = PolyContext.get(tuple("xyz"[:nvars]), field, grevlex(nvars))
    g = random_poly(random.Random(draw_seed), ctx, 4, 4)
    assume(not g.is_zero)
    gens = [Polynomial.zero(ctx)] * zeros + [g]
    with counting_work() as census:
        got = groebner_basis(gens, ctx=ctx)
    assert not census["buchberger"]
    assert got.polys == (g.monic(),)
    assert got.polys == groebner_basis(gens, ctx=ctx, use_criteria=False).polys
    xs = sympy.symbols(ctx.variables)
    modulus = {} if field.p is None else {"modulus": field.p}
    theirs = sympy.groebner([to_sympy(g)], *xs, order="grevlex", **modulus)
    assert [str(from_sympy(e, ctx, xs).monic()) for e in theirs.exprs] == [str(g.monic())]


# -- a seed basis taken as complete ----------------------------------------

@st.composite
def seeded_inputs(draw):
    """(ctx, A, B) in k[x, y, z] over Q or F_101, under grevlex or an order
    eliminating x; each side all monomials or mixed, and B may be empty."""
    field = draw(st.sampled_from([QQ, PrimeField(101)]))
    order = draw(st.sampled_from([grevlex(3), elimination_block(1, 3)]))
    ctx = PolyContext.get(("x", "y", "z"), field, order)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def side(low):
        most = 1 if draw(st.booleans()) else 3
        gens = [random_poly(rng, ctx, 3, rng.randint(1, most))
                for _ in range(draw(st.integers(low, 3)))]
        return [g for g in gens if not g.is_zero]

    return ctx, side(1), side(0)


@settings(max_examples=60, deadline=None)
@given(seeded_inputs())
def test_seeded_basis_equals_the_basis_of_the_sum(case):
    """Started from the reduced basis of A, the basis of its polys and B is
    that of A + B, and so is the criteria-off run, which takes the seed as
    plain input.  The fingerprint is that of the unseeded run on the same
    generators, and a B that the seed reduces to zero gets the seed itself
    back."""
    ctx, A, B = case
    seed = groebner_basis(A, ctx=ctx)
    both = list(seed.polys) + B
    got = groebner_basis(both, ctx=ctx, seed=seed)
    assert got.polys == groebner_basis(A + B, ctx=ctx).polys
    assert got.polys == groebner_basis(both, ctx=ctx, seed=seed, use_criteria=False).polys
    if any(not seed.normal_form(b).is_zero for b in B):
        assert got.fingerprint == groebner_basis(both, ctx=ctx).fingerprint
    else:
        assert got is seed
    inside = [a * b for a in A for b in B] + [a + a for a in A]
    assert groebner_basis(list(seed.polys) + inside, ctx=ctx, seed=seed) is seed



def test_the_empty_seed_is_its_own_answer():
    """The seed of the zero ideal has no polys; with no nonzero generator
    after it, it is still returned itself, and one generator after it is
    its own basis, made monic."""
    ctx = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))
    seed = groebner_basis([], ctx=ctx)
    assert groebner_basis([], ctx=ctx, seed=seed) is seed
    assert groebner_basis([Polynomial.zero(ctx)], ctx=ctx, seed=seed) is seed
    f = parse_polynomial("2*y^2 - x^2*z", ctx)
    assert groebner_basis([f], ctx=ctx, seed=seed).polys == (f.monic(),)

def test_a_seed_opens_the_generators():
    """The seed's polys come first among the generators, or the call is
    refused; with the criteria off, the seed is plain input and any
    generators go."""
    seed = groebner_basis([parse_polynomial("x^2 - y", CTX2)], ctx=CTX2)
    extra = parse_polynomial("x*y", CTX2)
    with pytest.raises(ValueError, match="open the generators"):
        groebner_basis([extra], ctx=CTX2, seed=seed)
    with pytest.raises(ValueError, match="open the generators"):
        groebner_basis([extra] + list(seed.polys), ctx=CTX2, seed=seed)
    assert groebner_basis([extra], ctx=CTX2, seed=seed, use_criteria=False).polys == (extra,)


def test_a_monomial_seed_keeps_the_monomial_shortcut(monkeypatch):
    """All-monomial seed and generators take the monomial layer, not
    Buchberger; a generator that the seed already holds returns the seed."""
    seed = groebner_basis([parse_polynomial(s, CTX2) for s in ["x^3", "y^2"]], ctx=CTX2)

    def forbidden(*args):
        raise AssertionError("Buchberger ran on all-monomial input")

    monkeypatch.setattr(groebner, "_buchberger_raw", forbidden)
    more = groebner_basis(list(seed.polys) + [parse_polynomial("x*y", CTX2)],
                          ctx=CTX2, seed=seed)
    assert [str(g) for g in more.polys] == [str(parse_polynomial(s, CTX2))
                                             for s in ["y^2", "x*y", "x^3"]]
    assert groebner_basis(list(seed.polys) + [parse_polynomial("x^4*y", CTX2)],
                          ctx=CTX2, seed=seed) is seed


def test_a_seed_forms_no_pair_of_its_own():
    """Seeded by the twisted cubic's basis (y^2 - xz, xy - z, x^2 - y), a
    generator that it reduces to zero forms no S-polynomial, and xyz - 1
    forms none either, where the unseeded run forms two."""
    cubic = [parse_polynomial(s, CTX3) for s in ["y - x^2", "z - x^3"]]
    extra = parse_polynomial("x*y*z - 1", CTX3)
    seed = groebner_basis(cubic, ctx=CTX3)
    start = list(seed.polys)
    with counting_work() as census:
        assert groebner_basis(start + [cubic[0] * extra], ctx=CTX3, seed=seed) is seed
        seeded = groebner_basis(start + [extra], ctx=CTX3, seed=seed)
        on = census["spolys"]
        census.clear()
        assert groebner_basis(cubic + [extra], ctx=CTX3).polys == seeded.polys
    assert (on, census["spolys"]) == (0, 2)


# -- t-trick input, where the Gebauer-Moller criteria prune most ----------

def t_trick_gens(rng, field, order):
    """t*f_i, (1 - t)*g_j and a curve relation in k[t, x, y]: the shape of
    the intersections that ideals.py hands to an elimination order."""
    ctx = PolyContext.get(("t", "x", "y"), field, order)
    plane = PolyContext.get(("x", "y"), field, grevlex(2))
    t = Polynomial.variable(ctx, "t")
    one = Polynomial.from_int(ctx, 1)

    def lift():
        p = random_poly(rng, plane, 3, rng.randint(1, 3))
        return Polynomial(ctx, {(0,) + m: c for m, c in p.terms})

    fs = [lift() for _ in range(rng.randint(1, 3))]
    gs = [lift() for _ in range(rng.randint(1, 2))]
    a, b = rng.choice(((2, 3), (3, 4), (3, 5)))
    gens = [t * f for f in fs] + [(one - t) * g for g in gs]
    gens.append(parse_polynomial(f"y^{a} - x^{b}", ctx))
    return ctx, [g for g in gens if not g.is_zero]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, PrimeField(101)]))
def test_criteria_equivalence_t_trick(seed, field):
    """On elimination input the pruning criteria must not change the
    reduced basis."""
    ctx, gens = t_trick_gens(random.Random(seed), field, elimination_block(1, 3))
    with_c = groebner_basis(gens, ctx=ctx, use_criteria=True)
    without = groebner_basis(gens, ctx=ctx, use_criteria=False)
    assert with_c.polys == without.polys


def test_spoly_count_guard(census):
    """A noise-free work count: m^8 meet (x) in k[x,y]/(y^4 - x^7 + 3x^6y),
    by the t-trick.  The criteria-on count is pinned, and it must stay below
    the criteria-off count.  With the criteria on, no pair of two monomial
    entries is formed, since its S-polynomial is zero."""
    ctx = PolyContext.get(("t", "x", "y"), QQ, elimination_block(1, 3))
    strs = [f"t*x^{i}*y^{8 - i}" for i in range(9)]
    strs += ["(1 - t)*x", "y^4 - x^7 + 3*x^6*y"]
    gens = [parse_polynomial(s, ctx) for s in strs]
    with_c = groebner_basis(gens, ctx=ctx, use_criteria=True)
    on = census["spolys"]
    census.clear()
    without = groebner_basis(gens, ctx=ctx, use_criteria=False)
    off = census["spolys"]
    assert with_c.polys == without.polys
    assert on == 28
    assert on < off


# -- sympy as an external oracle ------------------------------------------

def to_sympy(f):
    import sympy
    return sympy.sympify(str(f).replace("^", "**"))


def from_sympy(expr, ctx, xs):
    # go through Poly.terms to dodge printed forms like x/2
    import sympy
    p = sympy.Poly(expr, *xs, domain="QQ")
    out = Polynomial.zero(ctx)
    for exp, coeff in p.terms():
        c = ctx.field.rational(coeff.p, coeff.q)
        out = out + Polynomial.monomial(ctx, tuple(int(e) for e in exp), c)
    return out


@pytest.mark.parametrize("order_name", ["grevlex"])
def test_sympy_cross_check(order_name):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")
    ctx = CTX3
    rng = random.Random(31415)
    for _ in range(25):
        gens = [random_poly(rng, ctx, 2, rng.randint(1, 3))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = groebner_basis(gens, ctx=ctx)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *xs,
                                order=order_name)
        ours = {str(p) for p in mine.polys}
        ref = {str(from_sympy(e, ctx, xs).monic()) for e in theirs.exprs}
        assert ours == ref


# -- elimination -----------------------------------------------------------

def test_eliminate_intersection():
    # (x) meet (y) = (xy), computed by the t-trick by hand
    ctxt = PolyContext.get(("t", "x", "y"), QQ, elimination_block(1, 3))
    t = Polynomial.variable(ctxt, "t")
    x = Polynomial.variable(ctxt, "x")
    y = Polynomial.variable(ctxt, "y")
    one = Polynomial.from_int(ctxt, 1)
    out = eliminate([t * x, (one - t) * y], 1, ctx=ctxt)
    assert [str(p) for p in out.polys] == ["x*y"]


def test_eliminate_refuses_an_order_that_does_not_eliminate():
    """Under grevlex the basis elements free of t need not generate the
    elimination ideal, so eliminate refuses the context instead of
    reordering it."""
    ctxt = PolyContext.get(("t", "x", "y"), QQ, grevlex(3))
    t, x = Polynomial.variable(ctxt, "t"), Polynomial.variable(ctxt, "x")
    with pytest.raises(ValueError, match="elim:1"):
        eliminate([t * x], 1, ctx=ctxt)


def test_a_generator_from_another_context_is_refused():
    """A generator is never reordered into the basis's context: reduced
    under the wrong order it would give a wrong basis with no error."""
    foreign = parse_polynomial(
        "x + y^2*z", PolyContext.get(("x", "y", "z"), QQ, elimination_block(1, 3)))
    with pytest.raises(ContextMismatch):
        groebner_basis([parse_polynomial("x", CTX3), foreign], ctx=CTX3)
    with pytest.raises(ContextMismatch):
        groebner_basis([foreign], ctx=CTX3)


def test_eliminate_semigroup_parametrization():
    ctxt = PolyContext.get(("t", "x", "y", "z"), QQ, elimination_block(1, 4))
    t = Polynomial.variable(ctxt, "t")
    gens = [Polynomial.variable(ctxt, "x") - t ** 3,
            Polynomial.variable(ctxt, "y") - t ** 4,
            Polynomial.variable(ctxt, "z") - t ** 5]
    ker = eliminate(gens, 1, ctx=ctxt)
    got = sorted(str(p) for p in ker.polys)
    assert got == ["x^2*y - z^2", "x^3 - y*z", "y^2 - x*z"]


def assert_kept_ring_basis(out, ctx, k):
    """``out`` is a reduced basis in the ring of all but the first k
    variables of ``ctx``, under grevlex."""
    assert out.ctx.variables == ctx.variables[k:]
    assert out.ctx.field == ctx.field
    assert out.ctx.order == grevlex(ctx.nvars - k)
    assert out.polys == groebner_basis(out.polys, ctx=out.ctx).polys


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, PrimeField(101)]))
def test_a_t_trick_elimination_returns_the_reduced_basis_of_the_plane(seed, field):
    """Eliminating t from t-trick input gives the reduced basis of the
    plane ring k[x, y], in the context a local ring on x, y holds."""
    ctx, gens = t_trick_gens(random.Random(seed), field, elimination_block(1, 3))
    out = eliminate(gens, 1, ctx=ctx)
    assert_kept_ring_basis(out, ctx, 1)
    assert out.ctx is LocalRing(("x", "y"), field=field).ctx


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(CORPUS_DIR.glob("*.json"))))
def test_corpus_eliminations_return_the_reduced_basis_of_the_kept_ring(path):
    """On a corpus ring, the eliminations that its torsion ideal W, a t-trick
    meet and the Rees algebra (A/W)[Q u] run each return the reduced basis
    of the ring of the kept variables: A's own context for the meet, and
    k[T, x] for the Rees kernel."""
    cfg = load_config(path)
    ring = LocalRing(cfg.variables, cfg.relations,
                     field=field_from_descriptor(cfg.field_descriptor))
    gens = ring.ideal(cfg.generators or cfg.stages[1]).gens
    seen = []

    def recorded(polys, k, ctx):
        out = eliminate(polys, k, ctx=ctx)
        seen.append((out, ctx, k))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "eliminate", recorded)
        W = ring.torsion_ideal()
        ideals._intersection_in_ambient(ring, ring.maximal_ideal().gens, gens)
        meet = seen[-1][0]
        kernel = ideals.AssociatedGraded(ring, gens, W.gens)._kernel
    assert meet.ctx is ring.ctx
    assert seen[-1][0] is kernel
    assert kernel.ctx.variables[len(gens):] == ring.ctx.variables
    for out, ctx, k in seen:
        assert_kept_ring_basis(out, ctx, k)


# -- staircases of lead ideals ---------------------------------------------

def test_staircase_count_finite():
    polys = [parse_polynomial(s, CTX2) for s in ["x^3", "x*y", "y^2"]]
    g = groebner_basis(polys, ctx=CTX2)
    bounds = pure_power_bounds(g.leads, 2)
    assert bounds == (3, 2)
    assert count_box_complement(bounds, g.leads) == 4


def test_staircase_bounds_infinite():
    g = groebner_basis([parse_polynomial("x", CTX2)], ctx=CTX2)
    assert pure_power_bounds(g.leads, 2) is None
    assert hilbert_series(g.leads, 2)[1] == 1


def test_lead_ideal_dimension_cases():
    gx = groebner_basis([parse_polynomial("x", CTX3)], ctx=CTX3)
    assert hilbert_series(gx.leads, 3)[1] == 2
    gm = groebner_basis([parse_polynomial(s, CTX3) for s in ["x", "y", "z"]],
                        ctx=CTX3)
    assert hilbert_series(gm.leads, 3)[1] == 0
    gu = groebner_basis([parse_polynomial("x - 1", CTX3),
                         parse_polynomial("x", CTX3)], ctx=CTX3)
    assert hilbert_series(gu.leads, 3)[1] == -1


# -- no basis is stored ---------------------------------------------------

def test_bases_are_never_written_to_disk(tmp_path, monkeypatch):
    """With a cache directory named in the environment, no basis is written
    there, so none can be read back."""
    monkeypatch.setenv("FILTRA_CACHE_DIR", str(tmp_path))
    polys = [parse_polynomial(s, CTX3) for s in ["y - x^2", "z - x^3"]]
    groebner_basis(polys, ctx=CTX3)
    groebner_basis(polys, ctx=CTX3)
    assert list(tmp_path.iterdir()) == []
