"""Exact fits of eventually-polynomial numerical functions in binomial bases.

Colength sequences n -> l(A/I_n) eventually agree with a polynomial written
as an alternating sum of binomial coefficients; the signed coefficients are
the normalized invariants this package is about.  Fitting is exact in
integers: peel the coefficients off the trailing window by finite
differences, then scan backward for the postulation index and insist on one
extra point of agreement so the window never masquerades as a tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class HorizonTooSmall(ValueError):
    """Not enough values to determine the polynomial tail."""


class NoPolynomialTail(ValueError):
    """The trailing values do not come from an integer binomial polynomial."""


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the numerical-function conventions.

    b == 0 gives 1 for every a (including a = -1, which occurs at n = 0 in
    dimension-zero basis terms); out-of-range arguments give 0.
    """
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class PolynomialFit:
    """Signed coefficients of a binomial-basis polynomial plus postulation data."""

    coefficients: tuple
    degree: int
    shift: int
    postulation: int

    def value(self, n: int) -> int:
        deg, shift = self.degree, self.shift
        total = 0
        for i, e in enumerate(self.coefficients):
            term = e * binom(n + shift + deg - i, deg - i)
            total += -term if i % 2 else term
        return total


def fit_binomial(values, degree: int, shift: int):
    """Fit the tail of ``values`` (indexed from 0) in the binomial basis
    C(n + shift + degree - i, degree - i), i = 0..degree.

    Returns (coefficients, postulation).  Since the difference of
    C(n + c, k) is C(n + c, k - 1), the (degree - i)-th difference of the
    window, once the terms before i are taken off, is constant and equal to
    (-1)^i e_i.  So the coefficients are integer differences of the values:
    these binomials are a Z-basis of the integer-valued polynomials
    (Bruns-Herzog, *Cohen-Macaulay Rings*, 4.1), and no window of integer
    values is degenerate or fits non-integral coefficients.  The window must
    extend by at least one extra matching value, otherwise any d+1 points
    would "fit".
    """
    ncoef = degree + 1
    N = len(values) - 1
    if len(values) < ncoef + 2:
        raise HorizonTooSmall(
            f"need at least {ncoef + 2} values for a degree-{degree} fit, got {len(values)}")
    window = range(N - degree, N + 1)
    rest = [values[n] for n in window]
    coeffs = []
    for i in range(ncoef):
        k = degree - i
        diffs = rest
        for _ in range(k):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        signed = diffs[0]
        coeffs.append(-signed if i % 2 else signed)
        rest = [r - signed * binom(n + shift + k, k) for r, n in zip(rest, window)]
    fit = PolynomialFit(tuple(coeffs), degree, shift, 0)
    n0 = N + 1
    for n in range(N, -1, -1):
        if fit.value(n) == values[n]:
            n0 = n
        else:
            break
    if N - n0 + 1 < ncoef + 1:
        raise NoPolynomialTail(
            "tail agreement shorter than the fit window plus one; "
            "increase the horizon")
    return tuple(coeffs), n0


def fit_hilbert_samuel(values, dim: int) -> PolynomialFit:
    """Invariants of a colength sequence l(A/I_n) in a dim-dimensional ring."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    coeffs, n0 = fit_binomial(values, dim, -1)
    return PolynomialFit(coeffs, dim, -1, n0)


@dataclass(frozen=True)
class SallyFit:
    """Graded-module fit with leading zeros stripped off.

    e_top keeps the full length-d coefficient vector of the degree-(d-1)
    basis; e holds the re-based coefficients of the actual dimension, with
    the sign twist picked up when dropping j leading zeros.
    """

    e_top: tuple
    e: tuple
    dim: int
    postulation: int
    vanishes: bool

    def e_coeff(self, i: int):
        return self.e[i] if 0 <= i < len(self.e) else 0


def fit_sally(values, dim: int) -> SallyFit:
    """Fit piece lengths of a graded module of dimension at most ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    coeffs, n0 = fit_binomial(values, dim - 1, 0)
    j = 0
    while j < len(coeffs) and coeffs[j] == 0:
        j += 1
    s = dim - j
    sign = -1 if j % 2 else 1
    e = tuple(sign * c for c in coeffs[j:])
    vanishes = s <= 0 and all(v == 0 for v in values)
    if s > 0 and e[0] <= 0:
        raise NoPolynomialTail(
            f"leading fitted coefficient {e[0]} of a graded module must be positive")
    return SallyFit(tuple(coeffs), e, max(s, 0), n0, vanishes)

