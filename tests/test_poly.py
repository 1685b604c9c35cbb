"""Sparse polynomial arithmetic over exact fields."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtra.fields import PrimeField, QQ
from filtra.orders import grevlex
from filtra.monomial import coprime, div, divides, lcm, mul
from filtra.poly import PolyContext, Polynomial, add_multiple, poly_to_str

CTX = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))
CTXP = PolyContext.get(("x", "y", "z"), PrimeField(101), grevlex(3))


def v(name, ctx=CTX):
    return Polynomial.variable(ctx, name)


def test_context_interning():
    again = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))
    assert again is CTX
    assert PolyContext.get(("x", "y"), QQ, grevlex(2)) is not CTX


def test_mono_helpers():
    u, w = (2, 1, 0), (1, 1, 1)
    assert mul(u, w) == (3, 2, 1)
    assert lcm(u, w) == (2, 1, 1)
    assert divides(w, mul(u, w))
    assert not divides((0, 0, 2), u)
    assert coprime((1, 0, 0), (0, 3, 1))
    assert not coprime(u, w)
    assert div((3, 2, 1), u) == w


def _vector_pairs():
    vec = lambda n: st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    return st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(vec(n), vec(n)))


@given(_vector_pairs())
@settings(max_examples=100)
def test_exponent_arithmetic_is_componentwise(pair):
    a, b = pair
    idx = range(len(a))
    assert mul(a, b) == tuple(a[i] + b[i] for i in idx)
    assert lcm(a, b) == tuple(max(a[i], b[i]) for i in idx)
    assert divides(a, b) == all(a[i] <= b[i] for i in idx)
    assert coprime(a, b) == all(a[i] == 0 or b[i] == 0 for i in idx)
    assert div(mul(a, b), b) == a
    if divides(b, a):
        assert div(a, b) == tuple(a[i] - b[i] for i in idx)


def test_lead_and_degree():
    x, y, z = v("x"), v("y"), v("z")
    f = x * x + x * y * z + y * y * y
    assert f.degree() == 3
    # grevlex tie-break on cubics: y^3 beats x*y*z (smaller last exponent wins)
    assert f.lead_monomial() == (0, 3, 0)
    g = x.scale(QQ.from_int(2)) + z
    assert g.lead_monomial() == (1, 0, 0)
    assert g.lead_coefficient() == 2


def test_print_known_forms():
    x, y = v("x"), v("y")
    f = x * x - y
    assert str(f) == "x^2 - y"
    assert str(Polynomial.zero(CTX)) == "0"
    assert str(Polynomial.from_int(CTX, -3)) == "-3"
    assert poly_to_str(x + Polynomial.from_int(CTX, 1)) == "x + 1"


def test_pow_and_scale():
    x, y = v("x"), v("y")
    xy2 = (x * y).scale(QQ.from_int(2))
    assert (x + y) ** 2 == x * x + xy2 + y * y
    assert (x - y).scale(QQ.rational(1, 2)) * Polynomial.from_int(CTX, 2) == x - y
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_shift_is_monomial_multiplication():
    x, y, z = v("x"), v("y"), v("z")
    f = x + y * y
    assert f.shift((0, 0, 2)) == f * z * z


def _to_prime_field(f):
    from filtra.parser import parse_polynomial
    return parse_polynomial(str(f), CTXP)


small_coeff = st.integers(min_value=-4, max_value=4)
small_mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


@st.composite
def polys(draw, ctx=CTX):
    terms = draw(st.dictionaries(small_mono, small_coeff, max_size=5))
    out = Polynomial.zero(ctx)
    for m, c in terms.items():
        out = out + Polynomial.monomial(ctx, m, ctx.field.from_int(c))
    return out


@st.composite
def accumulations(draw, field):
    """(out, terms, c, shift) with canonical coefficients of the field."""
    if field.p is None:
        coeff = st.builds(field.rational, st.integers(-6, 6), st.integers(1, 4))
    else:
        coeff = st.integers(min_value=0, max_value=field.p - 1)
    nonzero = coeff.filter(bool)
    out = draw(st.dictionaries(small_mono, nonzero, max_size=6))
    terms = tuple(draw(st.dictionaries(small_mono, nonzero, max_size=6)).items())
    return out, terms, draw(coeff), draw(small_mono)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["QQ", "F101"])
@given(data=st.data())
@settings(max_examples=80)
def test_add_multiple_matches_naive_sum(field, data):
    """out + c * x^shift * terms, summed naively in Fractions: the kernel
    agrees, keeps no zero, and stores an int exactly when a value is
    integral (never a float, never an integral Fraction)."""
    out, terms, c, shift = data.draw(accumulations(field))
    want = {m: Fraction(v) for m, v in out.items()}
    for m, t in terms:
        mm = tuple(m[i] + shift[i] for i in range(3))
        want[mm] = want.get(mm, 0) + Fraction(c) * t
    if field.p is not None:
        want = {m: v % field.p for m, v in want.items()}
    want = {m: v for m, v in want.items() if v}
    work = dict(out)
    got = add_multiple(work, terms, c, shift, field)
    assert got is work
    assert got == want
    for v in got.values():
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_ring_axioms_rational(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(CTX) == f
    assert f * Polynomial.from_int(CTX, 1) == f
    assert f - f == Polynomial.zero(CTX)


@given(polys(), polys())
@settings(max_examples=60)
def test_mod_p_reduction_commutes(f, g):
    """Reducing mod p after multiplying over Q equals multiplying mod p."""
    fp, gp = _to_prime_field(f), _to_prime_field(g)
    assert _to_prime_field(f * g) == fp * gp
    assert _to_prime_field(f + g) == fp + gp


@given(polys())
@settings(max_examples=60)
def test_lead_term_really_leads(f):
    if f.is_zero:
        return
    lm = f.lead_monomial()
    key = CTX.key
    assert all(key(lm) >= key(m) for m in f.as_dict())


@given(polys(), polys())
@settings(max_examples=60)
def test_degree_subadditive(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
        return
    assert (f * g).degree() == f.degree() + g.degree()  # domain, no cancellation
