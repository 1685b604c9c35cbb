"""The monomial-ideal layer against brute-force enumeration.

Every oracle here walks the lattice point by point and decides membership
by divisibility, sharing no code with ``filtra.monomial``.  The inputs are
deliberately untidy: unsorted, repeated and non-minimal generators, leads
outside the box, zero bounds, one to four variables.
"""
import itertools
import random
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from filtra import monomial
from filtra.fields import PrimeField, QQ
from filtra.orders import elimination_block, grevlex
from filtra.poly import PolyContext, Polynomial


def member(gens, m):
    return any(all(map(le, g, m)) for g in gens)


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
        quot = monomial.colon(a, (m,))
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
    PolyContext.get(("x", "y", "z"), PrimeField(101), elimination_block(1, 3)),
], ids=["QQ-grevlex", "F101-elim"])
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


def is_minimal_generating_set(got, gens) -> bool:
    """got is, without repeats, the minimal generators of the ideal that gens
    generate: an antichain inside that ideal that divides every one of gens.
    The reduced generating set is unique, so this is ``brute_minimal(gens)``
    without its quadratic pass over gens."""
    return (len(got) == len(set(got))
            and not any(k != m and member([k], m) for k in got for m in got)
            and all(member(gens, m) for m in got)
            and all(member(got, m) for m in gens))


def staircase(rng, count, top):
    """An untidy generating set of a two-variable ideal with ``count``
    minimal generators, x-exponents rising and y-exponents falling."""
    xs = sorted(rng.sample(range(top), count))
    ys = sorted(rng.sample(range(top), count), reverse=True)
    gens = list(zip(xs, ys))
    gens += [(x + rng.randint(0, 2), y + rng.randint(0, 2)) for x, y in rng.sample(gens, count // 4)]
    rng.shuffle(gens)
    return gens


def colength_by_rows(gens):
    """Colength of a two-variable ideal summed over the rows y^j below its
    pure power of y, each row holding the x^i below its least x-exponent;
    None unless there are pure powers of both variables."""
    if not any(g[0] == 0 for g in gens) or not any(g[1] == 0 for g in gens):
        return None
    rows = min(g[1] for g in gens if g[0] == 0)
    return sum(min(g[0] for g in gens if g[1] <= j) for j in range(rows))


def sums(a, b):
    return [tuple(x + y for x, y in zip(u, v)) for u in a for v in b]


def lcms(a, b):
    return [tuple(max(x, y) for x, y in zip(u, v)) for u in a for v in b]


def test_two_variable_staircases_of_a_hundred_generators():
    rng = random.Random(6400)
    for _ in range(2):
        a = staircase(rng, rng.randint(100, 120), 400)
        b = staircase(rng, rng.randint(100, 120), 400)
        small = staircase(rng, 12, 40)
        got = monomial.minimal(a)
        assert len(got) >= 100 and set(got) == brute_minimal(a)
        assert is_minimal_generating_set(monomial.product(a, small), sums(a, small))
        assert is_minimal_generating_set(monomial.intersect(a, b), lcms(a, b))
        for gens in (a, a + [(0, 450)], a + [(450, 0)], a + [(0, 450), (450, 0)] + b):
            assert monomial.colength(gens, 2) == colength_by_rows(gens), gens


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_exponents_past_thirty_one_bits(nvars):
    """Exponents of 2^31 and more beside small ones: the packed fields must
    be as wide as the largest sum plus a guard bit."""
    rng = random.Random(7400 + nvars)
    huge = [2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 40, 3 * 2 ** 62]
    for _ in range(60):
        def vec():
            return tuple(rng.choice(huge) if rng.random() < 0.4 else rng.randint(0, 3)
                         for _ in range(nvars))
        a = [vec() for _ in range(rng.randint(1, 12))]
        b = [vec() for _ in range(rng.randint(1, 12))]
        assert set(monomial.minimal(a)) == brute_minimal(a), a
        assert set(monomial.product(a, b)) == brute_minimal(sums(a, b)), (a, b)
        assert set(monomial.intersect(a, b)) == brute_minimal(lcms(a, b)), (a, b)
    # colength, counted row by row: a huge x-bound beside small y-exponents
    for _ in range(30):
        gens = [(rng.choice(huge + [rng.randint(1, 9)]), rng.randint(1, 4))
                for _ in range(rng.randint(0, 8))]
        gens += [(rng.choice(huge), 0), (rng.randint(0, 9), rng.randint(1, 6))]
        assert monomial.colength(gens, 2) == colength_by_rows(gens), gens


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_zero_vector_and_empty_input(nvars):
    rng = random.Random(8400 + nvars)
    zero = (0,) * nvars
    assert monomial.minimal([]) == ()
    assert monomial.product([], [zero]) == monomial.product([zero], []) == ()
    assert monomial.intersect([], [zero]) == monomial.intersect([zero], []) == ()
    assert monomial.colength([], nvars) is None
    assert monomial.colength([zero], nvars) == 0
    for _ in range(40):
        gens = untidy_gens(rng, nvars)
        want = brute_minimal(gens)
        assert monomial.minimal(gens + [zero]) == (zero,)
        assert set(monomial.product([zero], gens)) == want
        assert set(monomial.product(gens, [zero, zero])) == want
        assert set(monomial.intersect([zero], gens)) == want
        assert set(monomial.intersect(gens, [zero])) == want
        assert monomial.colength(gens + [zero], nvars) == 0


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_minimal_paths_agree(nvars, monkeypatch):
    """``minimal`` compares a few vectors pairwise and packs more; forced
    onto either path, it gives the same generators on every input."""
    rng = random.Random(9400 + nvars)
    inputs = [untidy_gens(rng, nvars, top=rng.choice((3, 6, 2 ** 33)), count=(1, 30))
              for _ in range(150)]
    inputs += [[(0,) * nvars], [(1,) * nvars] * 5,
               [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]]
    got = {}
    for few in (10 ** 9, 0):
        monkeypatch.setattr(monomial, "_FEW", few)
        got[few] = [monomial.minimal(gens) for gens in inputs]
    for gens, pairwise, packed in zip(inputs, got[10 ** 9], got[0]):
        assert sorted(pairwise) == sorted(packed), gens
        assert set(pairwise) == brute_minimal(gens)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_colon_by_an_ideal_is_membership_of_every_product(nvars):
    """x^p lies in (a : b) exactly when x^p x^v lies in a for every v in b,
    on untidy a and b, with and without a pure power of every variable, a
    divisor inside a and the unit divisor among the draws; the output is
    minimal."""
    rng = random.Random(9700 + nvars)
    side = 10 - 2 * nvars
    for trial in range(120):
        a = untidy_gens(rng, nvars, top=4, count=(1, 6))
        if trial % 3 == 0:
            a = with_pure_powers(rng, nvars, a, top=4)
        b = untidy_gens(rng, nvars, top=3, count=(1, 4))
        if trial % 5 == 0:
            b.append(rng.choice(a))
        if trial % 7 == 0:
            b.append((0,) * nvars)
        got = monomial.colon(a, b)
        assert set(got) == brute_minimal(got), (a, b)
        for p in box((side,) * nvars):
            want = all(member(a, tuple(x + y for x, y in zip(p, v))) for v in b)
            assert member(got, p) == want, (a, b, p)
    assert monomial.colon([], [(1,) * nvars]) == ()
    assert monomial.colon([(1,) * nvars], [(0,) * nvars]) == ((1,) * nvars,)
    assert monomial.colon([(1,) * nvars], [(2,) * nvars]) == ((0,) * nvars,)


def test_two_variable_colon_of_a_hundred_generators():
    """The staircase sweep against the meet of the single colons, on
    staircases of a hundred steps divided by up to five monomials."""
    rng = random.Random(9800)
    for _ in range(20):
        a = staircase(rng, rng.randint(100, 120), 400)
        b = [(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(rng.randint(1, 5))]
        meet = None
        for v in b:
            single = monomial.colon(a, (v,))
            assert set(single) == brute_minimal(
                [tuple(max(x - y, 0) for x, y in zip(u, v)) for u in a])
            meet = single if meet is None else monomial.intersect(meet, single)
        assert sorted(monomial.colon(a, b)) == sorted(meet), b


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_first_outside_is_the_first_nonmember(nvars):
    """``first_outside`` returns the first vector, in the order given, that
    no generator divides, as the membership scan does."""
    rng = random.Random(9600 + nvars)
    for _ in range(200):
        gens = untidy_gens(rng, nvars, top=4)
        ms = [tuple(rng.randint(0, 6) for _ in range(nvars))
              for _ in range(rng.randint(0, 8))]
        want = next((m for m in ms if not member(gens, m)), None)
        assert monomial.first_outside(gens, ms) == want, (gens, ms)
    assert monomial.first_outside([], [(1,) * nvars]) == (1,) * nvars
    assert monomial.first_outside([(0,) * nvars], [(3,) * nvars]) is None


def series_by_degree(gens, nvars, top) -> list:
    """dim_k of k[x]/(gens) in each degree up to ``top``, monomial by
    monomial."""
    out = [0] * (top + 1)
    for m in box((top + 1,) * nvars):
        if sum(m) <= top and not member(gens, m):
            out[sum(m)] += 1
    return out


def expand_series(numerator, nvars, top) -> list:
    """The coefficients up to ``top`` of numerator / (1 - t)^nvars."""
    out = list(numerator[:top + 1]) + [0] * (top + 1 - len(numerator))
    for _ in range(nvars):
        for d in range(1, top + 1):
            out[d] += out[d - 1]  # divide by 1 - t: partial sums
    return out


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_hilbert_numerator_counts_monomials_by_degree(nvars):
    """N(t)/(1 - t)^n, expanded, counts the standard monomials of each
    degree, on ideals with and without a pure power of every variable, and
    the numerator has no trailing zero."""
    rng = random.Random(9900 + nvars)
    top = 9 if nvars < 4 else 7
    artinian = 0
    for _ in range(60 if nvars < 4 else 25):
        gens = untidy_gens(rng, nvars, top=4)
        if rng.random() < 0.5:
            gens = with_pure_powers(rng, nvars, gens, top=4)
        artinian += monomial.colength(gens, nvars) is not None
        got = monomial.hilbert_numerator(gens, nvars)
        assert not got or got[-1], gens
        assert expand_series(got, nvars, top) == series_by_degree(gens, nvars, top), gens
    assert artinian >= 10


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_hilbert_numerator_of_the_zero_and_unit_ideals(nvars):
    """k[x] has series 1/(1 - t)^n, the zero ring 0; x_1..x_n and any other
    coprime generators give (1 - t^deg m_1)...(1 - t^deg m_r)."""
    zero = (0,) * nvars
    assert monomial.hilbert_numerator([], nvars) == (1,)
    assert monomial.hilbert_numerator([zero], nvars) == ()
    assert monomial.hilbert_numerator([zero, (1,) * nvars], nvars) == ()
    variables = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    want = (1,)
    for _ in range(nvars):
        want = monomial.shifted_sum(want, want, 1, -1)
    assert monomial.hilbert_numerator(variables, nvars) == want
    assert monomial.hilbert_numerator([(2,) + (0,) * (nvars - 1)], nvars) == (1, 0, -1)


def brute_dimension(gens, nvars) -> int:
    """The size of the largest set of variables that holds no generator's
    support; -1 when a generator is 1."""
    if any(not any(m) for m in gens):
        return -1
    supports = [{i for i, e in enumerate(m) if e} for m in gens]
    return max(len(S) for k in range(nvars + 1)
               for S in map(set, itertools.combinations(range(nvars), k))
               if not any(sup <= S for sup in supports))


@st.composite
def monomial_gens(draw):
    nvars = draw(st.integers(1, 5))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    return draw(st.lists(expo, max_size=6)), nvars


@settings(max_examples=200, deadline=None)
@given(monomial_gens())
def test_dimension_is_the_largest_free_set_of_variables(case):
    """The pole order of the Hilbert series at t = 1 is the largest number
    of variables whose monomials all lie outside the ideal."""
    gens, nvars = case
    assert monomial.hilbert_series(gens, nvars)[1] == brute_dimension(gens, nvars)


@settings(max_examples=100, deadline=None)
@given(monomial_gens())
def test_hilbert_series_divides_the_numerator(case):
    """h(t) (1 - t)^(nvars - d) is the numerator, and h(1) is not zero."""
    gens, nvars = case
    h, d = monomial.hilbert_series(gens, nvars)
    if d < 0:
        assert h == () == monomial.hilbert_numerator(gens, nvars)
        return
    assert sum(h)
    for _ in range(nvars - d):
        h = monomial.shifted_sum(h, h, 1, -1)
    assert h == monomial.hilbert_numerator(gens, nvars)


def test_shifted_sum_trims_trailing_zeros():
    assert monomial.shifted_sum((1, -1), (1, -1), 0, -1) == ()
    assert monomial.shifted_sum((1,), (1,), 2, -1) == (1, 0, -1)
    assert monomial.shifted_sum((1, 0, -1), (1,), 2, 1) == (1,)
