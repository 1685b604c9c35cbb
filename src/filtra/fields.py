"""Exact coefficient fields: the rationals, and Z/p for any prime p below 2^63.

Coefficients are stored raw and the field object supplies the arithmetic.  A
prime field stores an int in [0, p).  The rationals store every value in one
canonical form: a Python int when the value is integral, a Fraction only when
it is not (see ``canonical``).  Ints are much cheaper than Fractions, and
almost every coefficient met in practice is integral.  The form must be
canonical, not merely equal: no hot loop should pay for a Fraction holding an
integer, and ``groebner.GroebnerBasis.fingerprint`` hashes the repr of the
terms, where ``repr(3) != repr(Fraction(3))``.  Coefficient loops go through
the field's methods, in ``poly.add_multiple``.  The one exception, the normal
form ``groebner._nf_dict``, inlines the arithmetic in one loop for both kinds
of field and normalizes each result itself: by ``canonical`` over the
rationals, by reduction mod p over a prime field.
"""
from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 2**64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def canonical(a):
    """The canonical form of a rational: an int when integral, else the Fraction."""
    if type(a) is Fraction and a.denominator == 1:
        return a.numerator
    return a


class Rationals:
    """The field of arbitrary-precision rationals, in canonical form."""

    p = None
    descriptor = "q"

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def add(self, a, b):
        return canonical(a + b)

    def mul(self, a, b):
        return canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if type(a) is int and type(b) is int and a % b == 0:
            return a // b
        # through Fraction: int / int would be a float
        return canonical(Fraction(a) / b)

    def rational(self, num: int, den: int):
        return canonical(Fraction(num, den))

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")


class PrimeField:
    """Z/p for a prime p below 2^63, p = 2 included."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 2**63:
            raise ValueError(f"modulus {p} does not fit in a signed 64-bit word")
        self.p = p
        self.descriptor = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def rational(self, num: int, den: int) -> int:
        return num * self.inv(den % self.p) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.descriptor)


QQ = Rationals()


def field_from_descriptor(desc: str):
    if desc == "q":
        return QQ
    if desc.startswith("fp:"):
        return PrimeField(int(desc[3:]))
    raise ValueError(f"unknown field descriptor {desc!r}")
