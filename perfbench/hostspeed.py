"""Host-speed reference: a fixed pure-Python kernel sampled during the work.

On a shared host the same instructions run at different speeds from one
second to the next, by a third or more, and every timing of a run moves
with it.  So the benchmark measures the host's speed while the work runs:
an interval timer interrupts the main thread every TICK_S of wall time,
and the handler runs and times one slice of a fixed kernel.  A timing is
then scaled by

    NOMINAL_SLICE_S / (seconds of the slices run during it / their number)

The slices are spread evenly through the work they interrupt, so they see
the speed the work saw; slices run after the work do not, because the
speed moves within a fraction of a second.  The slices' own time is taken
out of the work's wall time.

A reported time is therefore the wall time the work would have taken on a
host where one slice takes NOMINAL_SLICE_S, which is about what a slice
takes on a 2.1 GHz vCPU running Python 3.11.  The kernel does the kind of
work filtra does (division of sparse polynomials, stored as dicts of
exponent tuples, over QQ and mod p), so it slows down and speeds up with
it.
The kernel is part of the benchmark and never changes with filtra, so a
change that makes filtra faster makes the scaled times smaller by the same
factor.
"""
from __future__ import annotations

import gc
import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter, sleep

NOMINAL_SLICE_S = 0.0013
TICK_S = 0.025     # one slice per tick: about 5% of the wall time
MIN_SLICES = 8     # slices behind each scale


class _Rationals:
    zero = Fraction(0)

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return Fraction(a) / b


class _PrimeField:
    zero = 0

    def __init__(self, p: int):
        self.p = p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, self.p - 2, self.p) % self.p


def _grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _power(f: dict, n: int, field) -> dict:
    out = {(0, 0, 0): field.div(1, 1)}
    for _ in range(n):
        prod = {}
        for m1, c1 in out.items():
            for m2, c2 in f.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                prod[m] = field.sub(prod.get(m, field.zero), field.mul(-c1, c2))
        out = prod
    return out


def _normal_form(f: dict, basis: list, field) -> dict:
    """Remainder of f on division by basis, leading terms first."""
    leads = [(max(g, key=_grevlex), g) for g in basis]
    rest, rem = dict(f), {}
    while rest:
        m = max(rest, key=_grevlex)
        c = rest.pop(m)
        for lead, g in leads:
            if all(x <= y for x, y in zip(lead, m)):
                q = tuple(x - y for x, y in zip(m, lead))
                c = field.div(c, g[lead])
                for k, v in g.items():
                    if k != lead:
                        km = tuple(x + y for x, y in zip(k, q))
                        value = field.sub(rest.get(km, field.zero), field.mul(c, v))
                        if value:
                            rest[km] = value
                        else:
                            rest.pop(km, None)
                break
        else:
            rem[m] = c
    return rem


_BASIS = [{(2, 0, 0): 1, (0, 1, 1): Fraction(-3, 2), (0, 0, 1): Fraction(1, 5)},
          {(0, 2, 0): 2, (1, 0, 1): Fraction(-1, 3), (1, 0, 0): 1},
          {(0, 0, 3): 1, (1, 1, 0): Fraction(-7, 4)}]
_SEED = {(1, 0, 0): 1, (0, 1, 0): Fraction(2, 3), (0, 0, 1): -1, (0, 0, 0): Fraction(1, 7)}


def _over(field, poly: dict) -> dict:
    return {m: field.div(c.numerator, c.denominator) if isinstance(c, Fraction)
            else field.div(c, 1) for m, c in poly.items()}


_FIELDS = tuple((field, [_over(field, g) for g in _BASIS], _over(field, _SEED))
                for field in (_Rationals(), _PrimeField(32003)))


def reference_slice() -> int:
    """One slice of fixed work: the normal form of a power of a linear form
    modulo three polynomials, once over QQ and once mod 32003."""
    size = 0
    for field, basis, seed in _FIELDS:
        size += len(_normal_form(_power(seed, 3, field), basis, field))
    return size


class HostSpeed:
    """Samples the host's speed while the work inside ``with speed:`` runs.

    Each tick appends (clock when its slice ended, the slice's seconds) to
    ``samples``; entering the ``with`` starts a new list, and leaving it
    waits until the list holds MIN_SLICES samples.  The garbage
    collector is paused during a slice: the slice makes no cycles, and a
    collection of filtra's objects is filtra's time, not the host's."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:      # a tick that lands inside a slice is dropped
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_slice()
            t1 = perf_counter()
            self.samples.append((t1, t1 - t0))
        finally:
            if was_enabled:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        while len(self.samples) < MIN_SLICES:   # work shorter than MIN_SLICES ticks
            sleep(TICK_S)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, start: float, end: float) -> tuple:
        """(seconds of slices between the clock readings start and end,
        host-speed scale there).

        A slice runs whole between two bytecodes of the work, so it lies
        between the readings exactly when it ended between them.  The
        scale comes from the slices between the readings if there are at
        least MIN_SLICES of them, and otherwise from the MIN_SLICES slices
        that ended nearest to the middle of the interval."""
        ends = [t for t, _ in self.samples]
        lo, hi = bisect_right(ends, start), bisect_right(ends, end)
        inside = sum(d for _, d in self.samples[lo:hi])
        mid = (start + end) / 2
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(ends)):
            if hi == len(ends) or (lo > 0 and mid - ends[lo - 1] < ends[hi] - mid):
                lo -= 1
            else:
                hi += 1
        used = self.samples[lo:hi]
        return inside, NOMINAL_SLICE_S * len(used) / sum(d for _, d in used)
