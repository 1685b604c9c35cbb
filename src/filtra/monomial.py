"""Exponent vectors and monomial ideals on them.

No other module does arithmetic on exponent vectors: the polynomial and
Groebner layers call ``mul``, ``div``, ``divides``, ``lcm`` and ``coprime``.
A monomial ideal is given by any finite collection of exponent vectors.
Its minimal generators, the vectors divisible by no other one, are also its
reduced Groebner basis in every monomial order, so no S-pair is ever
formed.  Products add exponents, intersections take pairwise lcms, the
colon by a monomial subtracts exponents clipped at zero, membership is
divisibility, and the colength of an artinian ideal is a staircase count,
which reads any generating set: it needs no minimal generators.
Nothing here builds a polynomial; callers convert at their own boundary.

References: A. M. Bigatti, "Computation of Hilbert-Poincare series",
JPAA 119 (1997); E. Miller and B. Sturmfels, *Combinatorial Commutative
Algebra*, chapters 1-2.
"""
from __future__ import annotations

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


def contains(gens, m: tuple) -> bool:
    """Membership of the monomial m in the ideal generated by gens."""
    return any(all(map(le, g, m)) for g in gens)


def minimal(monos) -> tuple:
    """Minimal generators: duplicates and multiples of others dropped, in no
    promised order.

    In two variables, a vector sorted by first exponent is minimal exactly
    when its second exponent is below all earlier ones.  Otherwise each
    vector is packed into one integer with a guard bit above every exponent
    field, so that k | m is a single subtraction: the guard bits of
    (m | guards) - k all survive exactly when no field of k exceeds m's.
    """
    monos = list(dict.fromkeys(monos))
    if len(monos) < 2:
        return tuple(monos)
    if len(monos[0]) == 2:
        out, low = [], None
        for m in sorted(monos):
            if low is None or m[1] < low:
                out.append(m)
                low = m[1]
        return tuple(out)
    width = max(map(max, monos)).bit_length() + 1
    guards = 0
    for i in range(len(monos[0])):
        guards |= 1 << (i * width + width - 1)
    out, packed = [], []
    for m in sorted(monos, key=sum):
        p = 0
        for e in m:
            p = p << width | e
        pg = p | guards
        for k in packed:
            if (pg - k) & guards == guards:
                break
        else:
            out.append(m)
            packed.append(p)
    return tuple(out)


def product(a, b) -> tuple:
    return minimal([tuple(map(add, u, v)) for u in a for v in b])


def intersect(a, b) -> tuple:
    return minimal([tuple(map(max, u, v)) for u in a for v in b])


def colon(a, m: tuple) -> tuple:
    """(a : m) for a single monomial m."""
    return minimal([tuple(x - y if x > y else 0 for x, y in zip(u, m)) for u in a])


def count_box_complement(bounds, leads) -> int:
    """Monomials below the bounds divisible by no lead, without enumeration.

    The leads may be any vectors: unsorted, repeated, non-minimal or outside
    the box.  Sorted by first exponent, they split the box into slabs on
    which the set of active leads is fixed; each slab is counted from the
    raw projections of the active leads, so runtime scales with the number
    of leads rather than the box.  In two variables a slab's count is the
    least second exponent seen so far, kept in one sweep.
    """
    if not bounds:
        return 0 if leads else 1
    b0 = bounds[0]
    if b0 <= 0:
        return 0
    if len(bounds) == 1:
        return min([b0] + [l[0] for l in leads])
    total, lo = 0, 0
    if len(bounds) == 2:
        width = max(bounds[1], 0)
        for a, b in sorted(leads):
            if a >= b0:
                break
            if b < width:
                total += (a - lo) * width
                lo, width = a, b
        return total + (b0 - lo) * width
    rest, active = bounds[1:], []
    for l in sorted(leads):
        a = l[0]
        if a >= b0:
            break
        if a > lo:
            total += (a - lo) * count_box_complement(rest, active)
            lo = a
        active.append(l[1:])
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
    The generators need not be minimal."""
    bounds = pure_power_bounds(gens, nvars)
    return None if bounds is None else count_box_complement(bounds, gens)
