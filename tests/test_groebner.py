"""Buchberger kernel: frozen bases, independent oracles, equivalences.

The staircase counter is rebuilt here from scratch (brute lattice walk) so
lengths have an oracle that shares no code with the implementation.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from filtra import groebner
from filtra.config import parse_config
from filtra.fields import PrimeField, QQ
from filtra.groebner import (clear_cache, eliminate, groebner_basis,
                             lead_ideal_dimension)
from filtra.monomial import count_box_complement, pure_power_bounds
from filtra.orders import elimination_block, grevlex, lex
from filtra.parser import parse_polynomial
from filtra.poly import PolyContext, Polynomial, mono_divides

CTX2 = PolyContext.get(("x", "y"), QQ, grevlex(2))
CTX3 = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))
CTX3L = PolyContext.get(("x", "y", "z"), QQ, lex(3))


def gb_strings(strs, ctx):
    polys = [parse_polynomial(s, ctx) for s in strs]
    return [str(p) for p in groebner_basis(polys, ctx=ctx).polys]


# -- frozen reduced bases (canonical: monic, autoreduced, ascending) -------

def test_frozen_simple_basis():
    assert gb_strings(["x^2 + y", "x*y + x"], CTX2) == [
        "y^2 + y", "x*y + x", "x^2 + y"]


def test_frozen_twisted_cubic():
    assert gb_strings(["y - x^2", "z - x^3"], CTX3L) == [
        "y^3 - z^2", "x*z - y^2", "x*y - z", "x^2 - y"]
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
        if not any(mono_divides(g, mono) for g in gens):
            count += 1
    return count


def minimalize(monos):
    out = []
    for m in sorted(monos, key=sum):
        if not any(mono_divides(k, m) for k in out):
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
                   if not any(mono_divides(g, mono) for g in gens))
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
    clear_cache()
    cfg = parse_config({
        "name": "monomial_guard",
        "horizon": 6,
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x^3", "x^2*y", "y^3"]}},
        "reduction": {"generators": ["x^3", "y^3"]},
    })
    assert run_job(cfg)["verdict"] == "verified"
    clear_cache()
    gens = [parse_polynomial(s, CTX2) for s in ["x^2", "x*y"]]
    with pytest.raises(AssertionError, match="Buchberger ran"):
        groebner_basis(gens, ctx=CTX2, use_criteria=False)


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


def test_spoly_count_guard(monkeypatch):
    """A noise-free work count: m^8 meet (x) in k[x,y]/(y^4 - x^7 + 3x^6y),
    by the t-trick.  The criteria-on count is pinned, and it must stay below
    the criteria-off count."""
    ctx = PolyContext.get(("t", "x", "y"), QQ, elimination_block(1, 3))
    strs = [f"t*x^{i}*y^{8 - i}" for i in range(9)]
    strs += ["(1 - t)*x", "y^4 - x^7 + 3*x^6*y"]
    gens = [parse_polynomial(s, ctx) for s in strs]
    calls = []
    spoly = groebner._spoly_dict

    def counting(a, b, c):
        calls.append(1)
        return spoly(a, b, c)

    monkeypatch.setattr(groebner, "_spoly_dict", counting)
    clear_cache()  # a memo hit would form no S-polynomial at all
    with_c = groebner_basis(gens, ctx=ctx, use_criteria=True)
    on = len(calls)
    calls.clear()
    without = groebner_basis(gens, ctx=ctx, use_criteria=False)
    off = len(calls)
    assert with_c.polys == without.polys
    assert on == 42
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


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_sympy_cross_check(order_name):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")
    ctx = CTX3 if order_name == "grevlex" else CTX3L
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


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_t_trick_sympy_lex(field):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("t x y")
    rng = random.Random(2718)
    modulus = {} if field.p is None else {"modulus": field.p}
    for _ in range(4):
        ctx, gens = t_trick_gens(rng, field, lex(3))
        mine = groebner_basis(gens, ctx=ctx)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *xs,
                                order="lex", **modulus)
        ours = {str(p) for p in mine.polys}
        ref = {str(from_sympy(e, ctx, xs).monic()) for e in theirs.exprs}
        assert ours == ref


# -- elimination -----------------------------------------------------------

def test_eliminate_intersection():
    # (x) meet (y) = (xy), computed by the t-trick by hand
    ctxt = PolyContext.get(("t", "x", "y"), QQ, grevlex(3))
    t = Polynomial.variable(ctxt, "t")
    x = Polynomial.variable(ctxt, "x")
    y = Polynomial.variable(ctxt, "y")
    one = Polynomial.from_int(ctxt, 1)
    out = eliminate([t * x, (one - t) * y], 1, ctx=ctxt)
    assert [str(p) for p in out] == ["x*y"]


def test_eliminate_semigroup_parametrization():
    ctxt = PolyContext.get(("t", "x", "y", "z"), QQ, grevlex(4))
    t = Polynomial.variable(ctxt, "t")
    gens = [Polynomial.variable(ctxt, "x") - t ** 3,
            Polynomial.variable(ctxt, "y") - t ** 4,
            Polynomial.variable(ctxt, "z") - t ** 5]
    ker = eliminate(gens, 1, ctx=ctxt)
    got = sorted(str(p) for p in ker)
    assert got == ["x^2*y - z^2", "x^3 - y*z", "y^2 - x*z"]


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
    assert lead_ideal_dimension(g) == 1


def test_lead_ideal_dimension_cases():
    gx = groebner_basis([parse_polynomial("x", CTX3)], ctx=CTX3)
    assert lead_ideal_dimension(gx) == 2
    gm = groebner_basis([parse_polynomial(s, CTX3) for s in ["x", "y", "z"]],
                        ctx=CTX3)
    assert lead_ideal_dimension(gm) == 0
    gu = groebner_basis([parse_polynomial("x - 1", CTX3),
                         parse_polynomial("x", CTX3)], ctx=CTX3)
    assert lead_ideal_dimension(gu) == -1


# -- memo ----------------------------------------------------------------

def test_bases_are_never_written_to_disk(tmp_path, monkeypatch):
    """The memo lives in memory only: with a cache directory named in the
    environment, no basis is written there, so none can be read back."""
    monkeypatch.setenv("FILTRA_CACHE_DIR", str(tmp_path))
    clear_cache()
    polys = [parse_polynomial(s, CTX3) for s in ["y - x^2", "z - x^3"]]
    first = groebner_basis(polys, ctx=CTX3)
    assert groebner_basis(polys, ctx=CTX3) is first
    assert list(tmp_path.iterdir()) == []
    clear_cache()
