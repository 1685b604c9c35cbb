"""Coefficient field kernels: exact rationals and prime fields."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtra import groebner
from filtra.config import load_config
from filtra.fields import (PrimeField, QQ, Rationals, field_from_descriptor,
                           is_prime)
from filtra.ideals import LocalRing
from filtra.parser import parse_polynomial
from filtra.poly import Polynomial
from filtra.report import run_job

from conftest import CORPUS_DIR


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 32003, 101]
    composites = [0, 1, 4, 6, 9, 15, 32001, 32005]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_rationals_basics():
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.rational(7, 2) == Fraction(7, 2)
    assert QQ.from_int(7) == Fraction(7)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.zero == 0 and F.one == 1
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_descriptor_round_trip():
    assert field_from_descriptor("q") is QQ
    F = field_from_descriptor("fp:101")
    assert F.p == 101
    assert F.descriptor == "fp:101"
    assert field_from_descriptor(F.descriptor).p == 101
    with pytest.raises(ValueError):
        field_from_descriptor("fp:15")  # not prime
    with pytest.raises(ValueError):
        field_from_descriptor("gf:4")


rat = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
fp_el = st.integers(min_value=0, max_value=100)
F101 = PrimeField(101)


@given(rat, rat, rat)
def test_rationals_field_axioms(a, b, c):
    assert QQ.add(a, QQ.add(b, c)) == QQ.add(QQ.add(a, b), c)
    assert QQ.mul(a, QQ.mul(b, c)) == QQ.mul(QQ.mul(a, b), c)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(fp_el, fp_el, fp_el)
def test_prime_field_axioms(a, b, c):
    F = F101
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a % 101:
        assert F.mul(a, F.inv(a)) == F.one


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_from_int_is_a_homomorphism(n):
    F = F101
    assert F.from_int(n) == n % 101
    assert F.from_int(n + 1) == F.add(F.from_int(n), F.one)


# -- canonical form of the rationals ---------------------------------------

canon = rat.map(lambda a: a.numerator if a.denominator == 1 else a)


@given(canon, canon, st.integers(-50, 50), st.integers(1, 50))
def test_rationals_operations_are_canonical(a, b, num, den):
    """Each operation equals its Fraction result, is an int exactly when that
    result is integral, and is never a float."""
    fa, fb = Fraction(a), Fraction(b)
    cases = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
             (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa),
             (QQ.rational(num, den), Fraction(num, den)),
             (QQ.from_int(num), Fraction(num))]
    if b:
        cases += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    for got, want in cases:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
    assert type(QQ.zero) is int and type(QQ.one) is int


def test_canonical_coefficients_on_corpus_jobs(monkeypatch):
    """No coefficient reaching a Polynomial is a Fraction with denominator 1,
    and a job whose every polynomial is integral builds no Fraction at all."""
    seen = []
    init = Polynomial.__init__

    def recording(self, ctx, terms):
        seen.extend(c for c in terms.values() if type(c) is Fraction)
        init(self, ctx, terms)

    monkeypatch.setattr(Polynomial, "__init__", recording)
    for name in ("cusp", "two_planes", "sally_rr_equality"):
        groebner.clear_cache()
        seen.clear()
        run_job(load_config(CORPUS_DIR / f"{name}.json"))
        assert not [c for c in seen if c.denominator == 1], name
        if name == "cusp":
            assert not seen


class FractionRationals(Rationals):
    """The rationals with every value a Fraction, integral or not: the
    representation the canonical form replaced, kept as a reference."""

    descriptor = "q-fractions"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def rational(self, num, den):
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, FractionRationals)

    def __hash__(self):
        return hash(self.descriptor)


@st.composite
def rational_polys(draw, variables, count):
    """``count`` polynomials in ``variables`` with one to three terms of
    degree one to three and small coefficients, integral or not."""
    expo = st.tuples(*[st.integers(0, 2)] * len(variables)).filter(
        lambda e: 0 < sum(e) <= 3)
    coeff = st.tuples(st.integers(-3, 3).filter(bool), st.sampled_from((1, 1, 2, 3)))
    out = []
    for _ in range(count):
        terms = draw(st.lists(st.tuples(coeff, expo), min_size=1, max_size=3,
                              unique_by=lambda t: t[1]))
        parts = []
        for (num, den), e in terms:
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, e) if k)
            body = f"{abs(num)}/{den}*{mono}"
            parts.append(("- " if num < 0 else "+ ") + body)
        out.append(" ".join(parts))
    return out


def _same_polys(got, want):
    assert [p.terms for p in got] == [p.terms for p in want]
    assert [str(p) for p in got] == [str(p) for p in want]
    assert not [c for p in got for _, c in p.terms
                if type(c) is Fraction and c.denominator == 1]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_canonical_rationals_match_all_fraction_rationals(data):
    """Bases, normal forms, colons and intersections over QQ equal, term by
    term and in print, those over rationals kept as Fractions throughout."""
    variables = data.draw(st.sampled_from((("x", "y"), ("x", "y", "z"))))
    gens, other = data.draw(rational_polys(variables, 2)), data.draw(rational_polys(variables, 2))
    f, = data.draw(rational_polys(variables, 1))

    def compute(field):
        ring = LocalRing(variables, field=field)
        gb = groebner.groebner_basis(
            [parse_polynomial(g, ring.ctx) for g in gens], ctx=ring.ctx)
        I, J = ring.ideal(gens), ring.ideal(other)
        return (gb.polys, [gb.normal_form(parse_polynomial(f, ring.ctx))],
                I.colon(f).gens, I.intersect(J).gens)

    with pytest.MonkeyPatch.context() as mp:
        # the reference also skips the canonical form inlined in _nf_dict
        mp.setattr(groebner, "canonical", lambda a: a)
        want = compute(FractionRationals())
    assert all(type(c) is Fraction for part in want for p in part for _, c in p.terms)
    for got_part, want_part in zip(compute(QQ), want):
        _same_polys(got_part, want_part)
