"""The monomial-ideal layer against brute-force enumeration.

Every oracle here walks the lattice point by point and decides membership
by divisibility, sharing no code with ``filtra.monomial``.  The inputs are
deliberately untidy: unsorted, repeated and non-minimal generators, leads
outside the box, zero bounds, one to four variables.
"""
import itertools
import random

import pytest

from filtra import monomial
from filtra.fields import PrimeField, QQ
from filtra.orders import grevlex, lex
from filtra.poly import PolyContext, Polynomial


def member(gens, m):
    return any(all(g[i] <= m[i] for i in range(len(m))) for g in gens)


def box(bounds):
    return itertools.product(*[range(b) for b in bounds])


def brute_minimal(gens):
    """Vectors of gens that no other distinct vector of gens divides."""
    gens = set(gens)
    return {m for m in gens
            if not any(k != m and member([k], m) for k in gens)}


def untidy_gens(rng, nvars, top=5, count=(1, 7)):
    """Random vectors with repeats and multiples of earlier ones, unsorted."""
    gens = [tuple(rng.randint(0, top) for _ in range(nvars))
            for _ in range(rng.randint(*count))]
    for g in list(gens):
        roll = rng.random()
        if roll < 0.3:
            gens.append(g)
        elif roll < 0.6:
            gens.append(tuple(e + rng.randint(0, 2) for e in g))
    rng.shuffle(gens)
    return gens


def with_pure_powers(rng, nvars, gens, top=5):
    pure = [tuple(rng.randint(1, top) if j == i else 0 for j in range(nvars))
            for i in range(nvars)]
    out = gens + pure
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_count_box_complement_untidy_leads(nvars):
    rng = random.Random(1400 + nvars)
    for _ in range(150):
        leads = untidy_gens(rng, nvars, top=4 if nvars == 4 else 6)
        # bounds may sit below, at or above the leads, and may be zero
        bounds = [rng.randint(0, 6 if nvars < 4 else 4) for _ in range(nvars)]
        want = sum(1 for m in box(bounds) if not member(leads, m))
        assert monomial.count_box_complement(bounds, leads) == want, (bounds, leads)
        assert monomial.count_box_complement(tuple(bounds), tuple(leads)) == want


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_count_box_complement_edge_cases(nvars):
    bounds = (3,) * nvars
    full = 3 ** nvars
    assert monomial.count_box_complement(bounds, []) == full
    # every lead outside the box
    assert monomial.count_box_complement(bounds, [(3,) * nvars, (7,) * nvars]) == full
    # the unit ideal, alone and among others
    zero = (0,) * nvars
    assert monomial.count_box_complement(bounds, [(1,) * nvars, zero, zero]) == 0
    for i in range(nvars):
        squashed = tuple(0 if j == i else 3 for j in range(nvars))
        assert monomial.count_box_complement(squashed, [(1,) * nvars]) == 0


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_minimal_is_the_divisibility_definition(nvars):
    rng = random.Random(2400 + nvars)
    for _ in range(150):
        gens = untidy_gens(rng, nvars)
        got = monomial.minimal(gens)
        assert len(got) == len(set(got))
        assert set(got) == brute_minimal(gens), gens
    assert monomial.minimal([]) == ()
    assert monomial.minimal([(2,) * nvars] * 3) == ((2,) * nvars,)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_ideal_operations_accept_non_minimal_generators(nvars):
    rng = random.Random(3400 + nvars)
    for _ in range(60):
        a = untidy_gens(rng, nvars, top=3, count=(1, 4))
        b = untidy_gens(rng, nvars, top=3, count=(1, 4))
        m = tuple(rng.randint(0, 3) for _ in range(nvars))
        prod = monomial.product(a, b)
        meet = monomial.intersect(a, b)
        quot = monomial.colon(a, m)
        for out in (prod, meet, quot):
            assert set(out) == brute_minimal(out)
        sums = [tuple(x + y for x, y in zip(u, v)) for u in a for v in b]
        for p in box((10 - nvars,) * nvars):
            in_a = member(a, p)
            assert member(prod, p) == member(sums, p)
            assert member(meet, p) == (in_a and member(b, p))
            assert member(quot, p) == member(a, tuple(x + y for x, y in zip(p, m)))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_colength_accepts_non_minimal_generators(nvars):
    rng = random.Random(4400 + nvars)
    for trial in range(80):
        gens = untidy_gens(rng, nvars)
        if trial % 4:
            gens = with_pure_powers(rng, nvars, gens)
        pure = [[g[i] for g in gens if sum(g) == g[i]] for i in range(nvars)]
        got = monomial.colength(gens, nvars)
        if not all(pure):
            assert got is None, gens
            continue
        bounds = [min(p) for p in pure]
        assert got == sum(1 for m in box(bounds) if not member(gens, m)), gens
        assert monomial.pure_power_bounds(gens, nvars) == tuple(bounds)


@pytest.mark.parametrize("ctx", [
    PolyContext.get(("x", "y"), QQ, grevlex(2)),
    PolyContext.get(("x", "y", "z"), PrimeField(101), lex(3)),
], ids=["QQ-grevlex", "F101-lex"])
def test_polynomial_monomial_equals_general_constructor(ctx):
    rng = random.Random(5400)
    field = ctx.field
    for _ in range(30):
        m = tuple(rng.randint(0, 4) for _ in range(ctx.nvars))
        c = field.from_int(rng.randint(-5, 5))
        got = Polynomial.monomial(ctx, list(m), c)
        want = Polynomial(ctx, {m: c} if c else {})
        assert got.terms == want.terms
        assert got == want and hash(got) == hash(want)
        assert got.is_zero == (not c)
    one = Polynomial.monomial(ctx, (1,) * ctx.nvars)
    assert one.terms == (((1,) * ctx.nvars, field.one),)
    zero = Polynomial.monomial(ctx, (1,) * ctx.nvars, field.zero)
    assert zero.is_zero and zero == Polynomial.zero(ctx)
    assert hash(zero) == hash(Polynomial.zero(ctx))
