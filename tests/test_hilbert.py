"""Exact binomial-basis fitting.

Oracle layout: coefficients are drawn first, values generated from them by
direct evaluation, and the fitter must return exactly what went in, with
the postulation index pinned by a deliberate early corruption.
"""
import math
import random

import pytest

from filtra.hilbert import (HorizonTooSmall, NoPolynomialTail, binom,
                            fit_binomial, fit_hilbert_samuel, fit_sally)


def test_binom_conventions():
    assert binom(-1, 0) == 1
    assert binom(0, 0) == 1
    assert binom(5, 0) == 1
    assert binom(3, -1) == 0
    assert binom(2, 3) == 0
    for a in range(8):
        for b in range(8):
            if a >= b:
                assert binom(a, b) == math.comb(a, b)


def hs_value(e, d, n):
    total = 0
    for i, c in enumerate(e):
        term = c * binom(n - 1 + d - i, d - i)
        total += -term if i % 2 else term
    return total


def test_round_trip_random_coefficients():
    rng = random.Random(2718)
    for _ in range(40):
        d = rng.randint(1, 3)
        e = tuple(rng.randint(-6, 9) for _ in range(d + 1))
        horizon = 12
        values = [hs_value(e, d, n) for n in range(horizon + 1)]
        cut = rng.randint(0, 3)
        for k in range(cut):
            values[k] += rng.randint(1, 5)
        fit = fit_hilbert_samuel(values, d)
        assert fit.coefficients == e
        assert fit.postulation <= cut
        for n in range(fit.postulation, horizon + 1):
            assert fit.value(n) == values[n]
        if fit.postulation > 0:
            assert fit.value(fit.postulation - 1) != values[fit.postulation - 1]


def test_round_trip_shift_zero():
    """The graded-module basis C(n + k - i, k - i) of ``fit_sally``: the
    fitter returns the drawn coefficients and the postulation index."""
    rng = random.Random(31415)
    for _ in range(40):
        k = rng.randint(0, 2)
        e = tuple(rng.randint(-6, 9) for _ in range(k + 1))
        values = [sum((-c if i % 2 else c) * binom(n + k - i, k - i)
                      for i, c in enumerate(e)) for n in range(11)]
        cut = rng.randint(0, 3)
        for j in range(cut):
            values[j] += rng.randint(1, 5)
        coeffs, n0 = fit_binomial(values, k, 0)
        assert coeffs == e
        assert n0 <= cut
        if e[0] > 0:
            fit = fit_sally(values, k + 1)
            assert fit.e_top == e and fit.e == e
            assert fit.dim == k + 1


def test_fit_against_sympy_solver():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(161803)
    for _ in range(6):
        d = rng.randint(1, 3)
        e = tuple(rng.randint(-4, 8) for _ in range(d + 1))
        values = [hs_value(e, d, n) for n in range(d + 4)]
        syms = sympy.symbols(f"c0:{d + 1}")
        eqs = []
        N = len(values) - 1
        for n in range(N - d, N + 1):
            expr = 0
            for i, s in enumerate(syms):
                term = s * sympy.binomial(n - 1 + d - i, d - i)
                expr += -term if i % 2 else term
            eqs.append(sympy.Eq(expr, values[n]))
        sol = sympy.solve(eqs, syms)
        assert tuple(sol[s] for s in syms) == e
        assert fit_hilbert_samuel(values, d).coefficients == e


# -- frozen sequences ------------------------------------------------------

def test_frozen_cusp_sequence():
    values = [0] + [2 * n - 1 for n in range(1, 13)]
    fit = fit_hilbert_samuel(values, 1)
    assert fit.coefficients == (2, 1)
    assert fit.postulation == 1


def test_frozen_depth_zero_sequence():
    values = [0, 1] + [n + 1 for n in range(2, 13)]
    fit = fit_hilbert_samuel(values, 1)
    assert fit.coefficients == (1, -1)
    assert fit.postulation == 2


def test_frozen_quadratic_sequences():
    adic = [0, 11] + [8 * n * n + 2 * n for n in range(2, 12)]
    fit = fit_hilbert_samuel(adic, 2)
    assert fit.coefficients == (16, 6, 0) and fit.postulation == 2
    closed = [0] + [8 * n * n + 2 * n for n in range(1, 12)]
    fit = fit_hilbert_samuel(closed, 2)
    assert fit.coefficients == (16, 6, 0) and fit.postulation == 0


def test_frozen_regular_sequences():
    for d in (1, 2, 3):
        values = [binom(n + d - 1, d) for n in range(d + 5)]
        fit = fit_hilbert_samuel(values, d)
        assert fit.coefficients == (1,) + (0,) * d
        assert fit.postulation == 0


# -- refusals --------------------------------------------------------------

def test_horizon_too_small():
    with pytest.raises(HorizonTooSmall):
        fit_hilbert_samuel([0, 1, 3], 2)
    with pytest.raises(ValueError):
        fit_hilbert_samuel([0, 1, 2, 3, 4], 0)


def test_tail_agreement_guard():
    # linear only on the trailing window; one extra point must also match
    with pytest.raises(NoPolynomialTail):
        fit_hilbert_samuel([0, 0, 3, 9, 4, 5], 1)


# -- graded-module fits ----------------------------------------------------

def test_sally_zero():
    fit = fit_sally([0] * 12, 1)
    assert fit.vanishes and fit.dim == 0 and fit.e == ()
    fit = fit_sally([0] * 12, 2)
    assert fit.vanishes and fit.dim == 0
    assert fit.e_top == (0, 0)


def test_sally_spike_not_vanishing():
    # finite length but nonzero: dimension 0 without the vanishing flag
    for d in (1, 2):
        fit = fit_sally([0, 1] + [0] * 8, d)
        assert fit.dim == 0
        assert not fit.vanishes
        assert fit.e == ()


def test_sally_full_dimension():
    fit = fit_sally([0] + list(range(2, 12)), 2)
    assert fit.e_top == (1, 0)
    assert fit.e == (1, 0)
    assert fit.dim == 2


def test_sally_dimension_drop_sign_twist():
    # constant tail under a degree-1 basis: one leading zero stripped,
    # sign flipped once
    fit = fit_sally([0] + [1] * 9, 2)
    assert fit.e_top == (0, -1)
    assert fit.e == (1,)
    assert fit.dim == 1


def test_sally_rejects_nonpositive_leading_term():
    with pytest.raises(NoPolynomialTail):
        fit_sally([5 - n for n in range(9)], 2)
