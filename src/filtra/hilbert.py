"""Exact fits of eventually-polynomial numerical functions in binomial bases.

Colength sequences n -> l(A/I_n) eventually agree with a polynomial written
as an alternating sum of binomial coefficients; the signed coefficients are
the normalized invariants this package is about.  Fitting is exact over the
rationals: solve on the trailing window, then scan backward for the
postulation index and insist on one extra point of agreement so the window
never masquerades as a tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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


def _solve_exact(matrix, rhs):
    """Solve a small square system over the rationals; matrix must be invertible."""
    n = len(matrix)
    M = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise NoPolynomialTail("degenerate fit window")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


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

    Returns (coefficients, postulation).  The solved window must extend by at
    least one extra matching value, otherwise any d+1 points would "fit".
    """
    ncoef = degree + 1
    N = len(values) - 1
    if len(values) < ncoef + 2:
        raise HorizonTooSmall(
            f"need at least {ncoef + 2} values for a degree-{degree} fit, got {len(values)}")
    rows = []
    rhs = []
    for n in range(N - degree, N + 1):
        row = []
        for i in range(ncoef):
            b = binom(n + shift + degree - i, degree - i)
            row.append(-b if i % 2 else b)
        rows.append(row)
        rhs.append(values[n])
    sol = _solve_exact(rows, rhs)
    coeffs = []
    for c in sol:
        if c.denominator != 1:
            raise NoPolynomialTail(f"non-integral fitted coefficient {c}")
        coeffs.append(int(c))
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

