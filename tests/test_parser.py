"""Polynomial text syntax: parsing, errors, round trips."""
import time

import pytest
from hypothesis import given, settings, strategies as st

from filtra.fields import QQ, PrimeField
from filtra.orders import grevlex
from filtra.parser import (NESTING_LIMIT, PRODUCT_LIMIT, ExponentOverflow, parse_polynomial,
                           PolySyntaxError, ProductOverflow, UnknownVariable)
from filtra.poly import PolyContext, Polynomial

CTX = PolyContext.get(("x", "y", "z"), QQ, grevlex(3))


def p(text):
    return parse_polynomial(text, CTX)


def test_basic_forms():
    x = Polynomial.variable(CTX, "x")
    y = Polynomial.variable(CTX, "y")
    assert p("x") == x
    assert p("x + y") == x + y
    assert p("x^2 - y") == x * x - y
    assert p("x*y") == x * y
    assert p(" x \t* y ") == x * y
    assert p("(x + y)^2") == (x + y) ** 2
    assert p("0") == Polynomial.zero(CTX)
    assert p("2 - 2") == Polynomial.zero(CTX)
    assert p("-x") == Polynomial.zero(CTX) - x


def test_rational_literals():
    f = p("1/2 * x")
    assert f.lead_coefficient() == QQ.rational(1, 2)
    assert p("3/6*x") == f
    ctxp = PolyContext.get(("x", "y", "z"), PrimeField(7), grevlex(3))
    g = parse_polynomial("1/2 * x", ctxp)
    assert g.lead_coefficient() == 4  # 2^{-1} mod 7


def test_error_offsets():
    with pytest.raises(PolySyntaxError) as e:
        p("x + $")
    assert e.value.offset == 4
    with pytest.raises(UnknownVariable) as e:
        p("x + q^2")
    assert e.value.name == "q"
    with pytest.raises(PolySyntaxError):
        p("x +")
    with pytest.raises(PolySyntaxError):
        p("(x")
    with pytest.raises(PolySyntaxError):
        p("")
    with pytest.raises(ExponentOverflow):
        p("x^1000001")


def test_nesting_limit():
    """Parentheses as deep as the limit parse; one more is refused at the
    offset of the paren that goes too deep, well before the recursion
    limit of the interpreter."""
    deep = NESTING_LIMIT * "(" + "x - y" + NESTING_LIMIT * ")"
    assert p(deep) == p("x - y")
    with pytest.raises(PolySyntaxError, match=f"NESTING_LIMIT={NESTING_LIMIT}") as e:
        p("x*" + "(" + deep + ")")
    assert e.value.offset == 2 + NESTING_LIMIT
    with pytest.raises(PolySyntaxError, match="NESTING_LIMIT"):
        p(1000 * "(" + "x" + 1000 * ")")


def test_denominator_zero_in_the_field():
    ctxp = PolyContext.get(("x", "y", "z"), PrimeField(7), grevlex(3))
    with pytest.raises(PolySyntaxError, match="zero in the field fp:7") as e:
        parse_polynomial("x + 1/14*y", ctxp)
    assert e.value.offset == 6
    assert parse_polynomial("1/15*y", ctxp) == parse_polynomial("y", ctxp)


def test_product_limit():
    """A small exponent can still ask for a huge expansion: (x+y+z)^200 has
    20 301 terms.  Each product, a power's squarings included, is refused
    before it multiplies out more than PRODUCT_LIMIT term pairs, at the
    offset of its operator and well within a second."""
    start = time.perf_counter()
    with pytest.raises(ProductOverflow, match=f"PRODUCT_LIMIT={PRODUCT_LIMIT}") as e:
        p("(x + y + z)^200")
    assert time.perf_counter() - start < 1
    assert e.value.offset == 11
    with pytest.raises(ProductOverflow) as e:
        p("(x+y+z)^40 * (x+y+z)^40")
    assert e.value.offset == 11
    assert p("(x - 2*y + z)^13") == p("x - 2*y + z") ** 13


def test_exponent_edge():
    assert p("x^0") == Polynomial.from_int(CTX, 1)
    assert p("x^1") == Polynomial.variable(CTX, "x")


CTX101 = PolyContext.get(("x", "y", "z"), PrimeField(101), grevlex(3))


@pytest.mark.parametrize("ctx", [CTX, CTX101], ids=["q", "fp101"])
@pytest.mark.parametrize("text, product", [
    ("x^0", "1"), ("x^2^3", "x*x*x*x*x*x"), ("(x*y^2)^3", "x*y*y*x*y*y*x*y*y"),
    ("(2*x)^3", "2*x*2*x*2*x"), ("(-x)^3", "-x*x*x")])
def test_one_term_powers(ctx, text, product):
    """A one-term power parses to the product it stands for; with
    coefficient one it is built as its exponents times e, otherwise by
    squaring."""
    assert parse_polynomial(text, ctx).terms == parse_polynomial(product, ctx).terms


@given(st.sampled_from([CTX, CTX101]), st.sampled_from([1, -1, 2, 102]),
       st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 9), st.booleans())
@settings(max_examples=60)
def test_one_term_power_matches_its_product(ctx, c, exps, e, powers):
    """(c x^a y^b z^c)^e, its base written with powers or with repeated
    factors, parses to the same terms as e copies of the base multiplied
    out with no power at all.  102 is one in fp:101."""
    factors = ["x"] * exps[0] + ["y"] * exps[1] + ["z"] * exps[2]
    if powers:
        factors = [f"{v}^{a}" for v, a in zip("xyz", exps) if a]
    base = "*".join([str(c)] + factors)
    product = "*".join([f"({base})"] * e) or "1"
    assert (parse_polynomial(f"({base})^{e}", ctx).terms
            == parse_polynomial(product, ctx).terms)


small = st.integers(min_value=-4, max_value=4)
mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(mono, small, max_size=5))
    out = Polynomial.zero(CTX)
    for m, c in terms.items():
        out = out + Polynomial.monomial(CTX, m, QQ.from_int(c))
    return out


@given(polys())
@settings(max_examples=80)
def test_print_parse_round_trip(f):
    assert p(str(f)) == f
