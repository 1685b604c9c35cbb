"""Monomial order properties: totality, multiplicativity, elimination."""
from hypothesis import given, strategies as st

from filtra.orders import elimination_block, grevlex, lex

import pytest

NV = 3
mono = st.tuples(*[st.integers(min_value=0, max_value=9)] * NV)
ORDERS = [grevlex(NV), lex(NV), elimination_block(1, NV), elimination_block(2, NV)]


def test_known_grevlex_comparisons():
    o = grevlex(3)
    # degree first
    assert o.key((2, 0, 0)) < o.key((1, 1, 1))
    # same degree: grevlex prefers smaller exponent in the last variable
    assert o.key((1, 0, 1)) < o.key((0, 2, 0))
    assert o.key((2, 0, 0)) > o.key((1, 1, 0))
    assert o.key((1, 1, 0)) > o.key((1, 0, 1))


def test_known_lex_comparisons():
    o = lex(3)
    assert o.key((1, 0, 0)) > o.key((0, 9, 9))
    assert o.key((0, 1, 0)) > o.key((0, 0, 9))


def test_descriptor_round_trip():
    with pytest.raises(ValueError):
        elimination_block(3, 3)


@given(mono, mono)
def test_total_and_antisymmetric(u, v):
    for o in ORDERS:
        ku, kv = o.key(u), o.key(v)
        assert (ku < kv) + (ku == kv) + (ku > kv) == 1
        assert (ku == kv) == (u == v)


@given(mono, mono, mono)
def test_multiplicative(u, v, w):
    """u > v implies u+w > v+w; the defining property of a monomial order."""
    for o in ORDERS:
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert (o.key(uw) > o.key(vw)) == (o.key(u) > o.key(v))
        assert (o.key(uw) == o.key(vw)) == (o.key(u) == o.key(v))


@given(mono)
def test_one_is_minimal(u):
    zero = (0,) * NV
    for o in ORDERS:
        assert o.key(u) >= o.key(zero)


@given(mono, mono)
def test_elimination_property(u, v):
    """A monomial free of the block never beats one that uses the block
    under an order that eliminates it."""
    o = elimination_block(1, NV)
    # grevlex does not eliminate: a block-free monomial of higher degree wins
    assert grevlex(NV).key((0, 2, 0)) > grevlex(NV).key((1, 0, 0))
    u_free = (0,) + u[1:]
    if v[0] > 0:
        assert o.key(u_free) < o.key(v)


def test_elim_key_heap_safety():
    # keys must be flat int tuples so heaps can negate them componentwise
    for o in ORDERS:
        k = o.key((2, 1, 0))
        assert isinstance(k, tuple)
        assert all(isinstance(c, int) for c in k)
