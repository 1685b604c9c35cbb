"""Exponent vectors and monomial ideals on them.

No other module does arithmetic on exponent vectors: the polynomial and
Groebner layers call ``mul``, ``div``, ``divides``, ``lcm`` and ``coprime``.
A monomial ideal is given by any finite collection of exponent vectors.
Its minimal generators, the vectors divisible by no other one, are also its
reduced Groebner basis in every monomial order, so no S-pair is ever
formed.  For products and minimal generators each vector is packed into
one integer, so that a product's sums are integer additions and sorting
the integers puts every divisor before its multiples; the minimal ones
are then kept in one pass over the sorted integers, and only they are
unpacked.  An intersection in two variables merges the two staircases;
in more it takes pairwise lcms.  A colon by an ideal in two variables is
the same sweep over the dividend's staircase shifted by each divisor
vector; in more it meets the colons by single vectors, each the lcms with
that vector divided by it.  Membership is divisibility, found for many
vectors at once by bisecting into a staircase in two variables, and the
colength of an artinian ideal is a staircase count, which reads any
generating set: it needs no minimal generators.  In two variables that
count is one sweep, which also counts a box outside a set of leads.  The
Hilbert series of any monomial quotient is read off the numerator that
Bigatti's pivot recursion computes, and its dimension off the pole of that
series at t = 1; the number of monomials between two nested ideals is the
difference of their quotients' series, read at t = 1 once the pole cancels.
Nothing here builds a polynomial; callers convert at their own boundary.

References: A. M. Bigatti, "Computation of Hilbert-Poincare series",
JPAA 119 (1997); E. Miller and B. Sturmfels, *Combinatorial Commutative
Algebra*, chapters 1-3.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from functools import reduce
from itertools import accumulate, combinations
from math import inf
from operator import add, le, sub


def mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def div(a: tuple, b: tuple) -> tuple:
    """The quotient x^a / x^b, for b dividing a."""
    return tuple(map(sub, a, b))


def divides(a: tuple, b: tuple) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def coprime(a: tuple, b: tuple) -> bool:
    """True when x^a and x^b share no variable."""
    return not any(map(min, a, b))


def of_degree(d: int, nvars: int) -> list:
    """All exponent vectors of total degree exactly d in nvars variables."""
    out = []
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        prev, e = -1, []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + nvars - 2 - prev)
        out.append(tuple(e))
    return out


def contains(gens, m: tuple) -> bool:
    """Membership of the monomial m in the ideal generated by gens."""
    return any(all(map(le, g, m)) for g in gens)


def first_outside(gens, ms):
    """The first of the vectors ms, in their order, outside the ideal that
    gens generates, or None.  In two variables the staircase of gens, its
    breakpoints by ascending x-exponent, is built once and each vector is one
    bisect into it: x^i y^j lies in the ideal exactly when the breakpoint at
    the largest x-exponent at most i has y-exponent at most j."""
    if not gens or len(gens[0]) != 2:
        return next((m for m in ms if not contains(gens, m)), None)
    xs, ys, low = [], [], inf
    for i, j in sorted(gens):
        if j < low:
            xs.append(i)
            ys.append(j)
            low = j
    for m in ms:
        k = bisect_right(xs, m[0])
        if not k or ys[k - 1] > m[1]:
            return m
    return None


# Below this many vectors, testing each against the kept ones costs less than
# packing: the Gebauer-Moller update asks for the minimal lcms of 1 to 6.
_FEW = 8


def minimal(monos) -> tuple:
    """Minimal generators: duplicates and multiples of others dropped, in no
    promised order.

    Fewer than ``_FEW`` vectors are each tested against the kept ones
    (``_minimal_few``).  More are packed (``_pack``), sorted as integers and
    kept by ``_minimal_sorted``, the minimalizer that ``product`` uses too;
    each kept integer maps back to its vector.
    """
    monos = tuple(monos)
    if len(monos) < _FEW:
        return _minimal_few(monos)
    width = max(map(max, zip(*monos))).bit_length() + 1
    vector = dict(zip(_pack(monos, width), monos))
    return tuple(map(vector.__getitem__,
                     _minimal_sorted(sorted(vector), len(monos[0]), width)))


def _minimal_few(monos) -> tuple:
    """``minimal`` by testing each vector, in lex order, against the kept
    ones: every divisor comes first, and a repeat after its first copy."""
    out = []
    for m in sorted(monos):
        for k in out:
            if all(map(le, k, m)):
                break
        else:
            out.append(m)
    return tuple(out)


def _pack(vectors, width: int) -> list:
    """Each vector as one integer, its first exponent in the highest field of
    ``width`` bits.  While every exponent sits below the top bit of its
    field, packed sums are sums of vectors and integer order is lex order,
    which puts every divisor before its multiples."""
    columns = zip(*vectors)
    packed = next(columns)
    for column in columns:
        packed = [p << width | e for p, e in zip(packed, column)]
    return packed


def _unpack(packed, nvars: int, width: int) -> tuple:
    mask = (1 << width) - 1
    shifts = range((nvars - 1) * width, -1, -width)
    return tuple(zip(*[[p >> s & mask for p in packed] for s in shifts]))


def _minimal_sorted(packed: list, nvars: int, width: int) -> list:
    """The minimal ones among distinct packed vectors sorted ascending.

    Every divisor of a vector comes before it, so a vector is kept when no
    kept vector before it divides it.  In at most two variables that holds
    exactly when its last exponent is below every earlier one.  In three,
    the earlier first exponents are no larger, so it holds when the
    staircase of the kept vectors' last two exponents does not contain the
    vector's last two: the staircase is kept sorted by its middle exponent,
    the last one descending, and each vector is one ``bisect`` into it.  In
    more variables each vector is tested against every kept one by a guard
    bit at the top of each field: the guards of (p | guards) - k all survive
    exactly when no field of k exceeds p's.
    """
    mask = (1 << width) - 1
    out = []
    if nvars <= 2:
        low = mask
        for p in packed:
            e = p & mask
            if e < low:
                out.append(p)
                low = e
        return out
    if nvars == 3:
        ys, negzs = [], []  # the staircase; negzs holds -z, so both ascend
        for p in packed:
            y, z = p >> width & mask, p & mask
            i = bisect_right(ys, y)
            if i and -negzs[i - 1] <= z:
                continue
            # drop the staircase points (y, z) now divides: the one of equal
            # y, and those of larger y and no smaller z
            lo = i - 1 if i and ys[i - 1] == y else i
            hi = bisect_right(negzs, -z, i)
            ys[lo:hi] = [y]
            negzs[lo:hi] = [-z]
            out.append(p)
        return out
    guards = 0
    for i in range(nvars):
        guards |= 1 << (i * width + width - 1)
    for p in packed:
        pg = p | guards
        for k in out:
            if (pg - k) & guards == guards:
                break
        else:
            out.append(p)
    return out


def product(a, b) -> tuple:
    """Minimal generators of the product of the ideals that a and b generate.

    The fields are wide enough for the largest sum plus a guard bit, so each
    sum is one integer addition; the sums are deduplicated as a set, sorted,
    minimalized and only the kept ones unpacked."""
    if not a or not b:
        return ()
    width = (max(map(max, zip(*a))) + max(map(max, zip(*b)))).bit_length() + 1
    nvars = len(a[0])
    pb = _pack(b, width)
    sums = sorted({p + q for p in _pack(a, width) for q in pb})
    return _unpack(_minimal_sorted(sums, nvars, width), nvars, width)


def intersect(a, b) -> tuple:
    """Minimal generators of the meet of the ideals that a and b generate.

    In two variables x^i y^j lies in the meet exactly when j is at least
    max(f_a(i), f_b(i)), f the least y-exponent over generators with
    x-exponent at most i.  One sweep over both sets of breakpoints, sorted
    by x-exponent, emits a generator wherever that maximum steps down.  In
    more variables the meet is generated by the pairwise lcms."""
    if not a or not b:
        return ()
    if len(a[0]) != 2:
        return minimal([tuple(map(max, u, v)) for u in a for v in b])
    return _staircase_max(sorted([(*u, 0) for u in a] + [(*v, 1) for v in b]), 2)


def _staircase_max(steps, sides: int) -> tuple:
    """Minimal generators, in two variables, of the meet of ``sides``
    staircase ideals given as their breakpoints (i, j, side) sorted by i:
    x^i y^j lies in it exactly when j is at least the maximum over the sides
    of each one's least step at x-exponent at most i, so one pass emits a
    generator wherever that maximum steps down, and stops at zero."""
    out, f, low = [], [inf] * sides, inf
    for i, j, side in steps:
        if j < f[side]:
            f[side] = j
            h = max(f)
            if h < low:
                low = h
                if out and out[-1][0] == i:
                    out[-1] = (i, h)  # a lower step at the same i
                else:
                    out.append((i, h))
                if not h:
                    break
    return tuple(out)


def colon(a, b) -> tuple:
    """Minimal generators of (a : b), the ideal a generates divided by the one
    a nonempty collection b generates.

    In two variables x^i y^j lies in (a : b) exactly when j is at least
    max over v in b of f_a(i + v_0) - v_1, clipped at zero, f_a the least
    y-exponent over a's generators with x-exponent at most i.  Each term
    steps down only at a shifted breakpoint x_k - v_0, clipped at zero, so
    one sweep over those, sorted, emits a generator wherever the maximum
    steps down.  In more variables (a : v) is generated by the
    lcm(u, v) / v over u in a, and (a : b) is the meet of those."""
    if not a:
        return ()
    if len(a[0]) != 2:
        return reduce(intersect, [minimal([div(lcm(u, v), v) for u in a]) for v in b])
    steps = sorted((i - v0 if i > v0 else 0, j - v1 if j > v1 else 0, k)
                   for i, j in a for k, (v0, v1) in enumerate(b))
    return _staircase_max(steps, len(b))


def count_box_complement(bounds, leads) -> int:
    """Monomials below the bounds divisible by no lead, without enumeration.

    The leads may be any vectors: unsorted, repeated, non-minimal or outside
    the box.  In two variables the box [0, b0) x [0, b1) outside the leads
    is the staircase of the leads and x^b0, y^b1, which ``colength`` counts.
    In more, the leads sorted by first exponent split the box into slabs on
    which the set of active leads is fixed; each slab is counted from the
    raw projections of the active leads, so runtime scales with the number
    of leads rather than the box.  The active projections are kept sorted,
    so a slab's own sort is one linear pass.
    """
    if not bounds:
        return 0 if leads else 1
    b0 = bounds[0]
    if b0 <= 0:
        return 0
    if len(bounds) == 2:
        return colength(tuple(leads) + ((b0, 0), (0, bounds[1])), 2)
    total, lo = 0, 0
    rest, active = bounds[1:], []
    for l in sorted(leads):
        a = l[0]
        if a >= b0:
            break
        if a > lo:
            total += (a - lo) * count_box_complement(rest, active)
            lo = a
        insort(active, l[1:])
    return total + (b0 - lo) * count_box_complement(rest, active)


def pure_power_bounds(gens, nvars: int) -> tuple | None:
    """Per variable, the least exponent of a pure power among gens; None
    when some variable has none, so that the ideal is not artinian."""
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in gens if sum(m) == m[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return tuple(bounds)


def colength(gens, nvars: int) -> int | None:
    """Number of monomials outside the ideal; None when it is infinite.
    The generators need not be minimal.

    In two variables one sweep over the generators sorted by x-exponent
    reads both pure powers and the count: the first generator must be a
    power of y, and the count closes at the first power of x.  It is the
    one two-variable count; ``count_box_complement`` hands its boxes here."""
    if nvars == 2:
        total = lo = 0
        low = None
        for i, j in sorted(gens):
            if low is None:
                if i:
                    return None  # no power of y
                low = j
            elif j < low:
                total += (i - lo) * low
                lo, low = i, j
            if not low:
                return total
        return None  # no power of x
    bounds = pure_power_bounds(gens, nvars)
    return None if bounds is None else count_box_complement(bounds, gens)


def hilbert_numerator(gens, nvars: int) -> tuple:
    """The numerator N(t) of the Hilbert series N(t)/(1 - t)^nvars of
    k[x]/(gens), every variable of degree one, as its coefficients from t^0
    up with no trailing zero: (1,) for the zero ideal and () for the unit
    ideal.  The generators need not be minimal.

    Pairwise coprime generators m_1..m_r are a regular sequence, so
    N = (1 - t^deg m_1)...(1 - t^deg m_r).  Otherwise a pivot p = x_i^e
    splits the ideal M by the exact sequence
    0 -> S/(M : p)(-e) -> S/M -> S/(M + p) -> 0, so
    N(M) = N(M + p) + t^e N(M : p) (Bigatti, JPAA 119, 1997).  The
    pivot's variable is one that the most generators hold, and e the median
    of its exponents in the generators that are not its pure powers.  So p
    lies outside M and properly divides a generator: both sides have a
    smaller sum of generator degrees, and the recursion ends.
    """
    gens = minimal(gens)
    if any(not any(m) for m in gens):
        return ()
    holders = [[m for m in gens if m[i]] for i in range(nvars)]
    i = max(range(nvars), key=lambda v: len(holders[v]))
    if len(holders[i]) < 2:
        out = (1,)
        for m in gens:
            out = shifted_sum(out, out, sum(m), -1)
        return out
    exps = sorted(m[i] for m in holders[i] if sum(m) != m[i])
    e = exps[len(exps) // 2]
    p = tuple(e if j == i else 0 for j in range(nvars))
    return shifted_sum(hilbert_numerator(gens + (p,), nvars),
                        hilbert_numerator(colon(gens, (p,)), nvars), e, 1)


def hilbert_series(gens, nvars: int) -> tuple:
    """(h, d) with HS(k[x]/(gens)) = h(t)/(1 - t)^d and h(1) != 0: d is the
    Krull dimension, the order of the pole at t = 1, found by dividing
    1 - t out of the numerator while it vanishes at 1, and h is what is
    left of it.  ((), -1) for the unit ideal."""
    numerator = hilbert_numerator(gens, nvars)
    if not numerator:
        return (), -1
    while not sum(numerator):
        numerator = _over_one_minus_t(numerator)
        nvars -= 1
    return numerator, nvars


def count_between(inner, outer, nvars: int) -> int | None:
    """Monomials of the ideal ``outer`` outside the smaller ``inner``, or
    None when infinitely many.  Their series is that of S/inner less that
    of S/outer, (N_inner(t) - N_outer(t))/(1 - t)^nvars: finite exactly
    when the pole cancels, and then its value at t = 1."""
    difference = shifted_sum(hilbert_numerator(inner, nvars),
                             hilbert_numerator(outer, nvars), 0, -1)
    for _ in range(nvars):
        if sum(difference):
            return None
        difference = _over_one_minus_t(difference)
    return sum(difference)


def _over_one_minus_t(p: tuple) -> tuple:
    """p(t)/(1 - t) for p(1) = 0: the partial sums of p but the last, p(1)."""
    return tuple(accumulate(p))[:-1]


def shifted_sum(a: tuple, b: tuple, shift: int, sign: int) -> tuple:
    """a + sign t^shift b for coefficient tuples, with no trailing zero."""
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for k, c in enumerate(b, shift):
        out[k] += sign * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)
