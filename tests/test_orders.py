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
    assert o.compare((2, 0, 0), (1, 1, 1)) < 0
    # same degree: grevlex prefers smaller exponent in the last variable
    assert o.compare((1, 0, 1), (0, 2, 0)) < 0
    assert o.compare((2, 0, 0), (1, 1, 0)) > 0
    assert o.compare((1, 1, 0), (1, 0, 1)) > 0


def test_known_lex_comparisons():
    o = lex(3)
    assert o.compare((1, 0, 0), (0, 9, 9)) > 0
    assert o.compare((0, 1, 0), (0, 0, 9)) > 0


def test_descriptor_round_trip():
    with pytest.raises(ValueError):
        elimination_block(3, 3)


@given(mono, mono)
def test_total_and_antisymmetric(u, v):
    for o in ORDERS:
        c, back = o.compare(u, v), o.compare(v, u)
        assert c == -back
        assert (c == 0) == (u == v)


@given(mono, mono, mono)
def test_multiplicative(u, v, w):
    """u > v implies u+w > v+w; the defining property of a monomial order."""
    for o in ORDERS:
        c = o.compare(u, v)
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert o.compare(uw, vw) == c


@given(mono)
def test_one_is_minimal(u):
    zero = (0,) * NV
    for o in ORDERS:
        assert o.compare(u, zero) >= 0


@given(mono, mono)
def test_elimination_property(u, v):
    """A monomial free of the block never beats one that uses the block
    under an order that eliminates it."""
    o = elimination_block(1, NV)
    assert o.eliminates(1)
    assert not grevlex(NV).eliminates(1)
    u_free = (0,) + u[1:]
    if v[0] > 0:
        assert o.compare(u_free, v) < 0


def test_elim_key_heap_safety():
    # keys must be flat int tuples so heaps can negate them componentwise
    for o in ORDERS:
        k = o.key((2, 1, 0))
        assert isinstance(k, tuple)
        assert all(isinstance(c, int) for c in k)
