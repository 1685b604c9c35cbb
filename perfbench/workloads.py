"""Job streams for the filtra benchmark.

A workload is a list of ``Job`` records run in order as one pass.  Each job
carries its config as JSON text and the facts its oracle needs.  The
generated streams depend only on the seed; the corpus stream ignores it.

The shape of each generated job (number of variables, exponents, number of
extra monomials, whether a curve has the extra term) comes from a fixed
list, and the seed draws the rest (which monomials, which coefficient, the
order of the jobs).  Every pass therefore holds the same mix of job
shapes, so the work per pass differs little from seed to seed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("corpus", "monomial_adic", "curves")
VARIABLES = ("x", "y", "z")

# monomial_adic: in two variables, distinct ideals for each field, exponent
# and extra count; in three variables, the six jobs with a = 2 and one extra
# of degree 2, with or without xyz.  The Groebner cache is shared within a
# pass, so a job identical to an earlier one would cost almost nothing, and
# which jobs share work must not depend on the seed.  A three-variable job
# costs about twelve two-variable ones; with two extras of degree 2 or a
# larger horizon a single job takes tens of seconds.  They are 6 of the 34
# jobs, so p90 falls among them, and 3 passes give 100 job times.  Horizon 6
# is the smallest the config schema allows; at horizon 6 some ideals with
# a = 6 have no exact reduction yet.
MONOMIAL_FIELDS = ("q", "fp:101")
# a -> the extra counts of its jobs, per field.  Half the jobs have a = 5,
# so the median job time falls inside that group, not between two groups.
TWO_VAR_EXTRAS = {3: (1, 2), 4: (1, 2, 3), 5: (1, 1, 1, 2, 2, 2, 3, 3, 3)}
THREE_VAR_PAIRS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
HORIZON = 6

# curves: every coprime (a, b) with 2 <= a <= 5 and a < b <= a + 4, three
# times: without the extra term over each field, and with it over the field
# the shape's place in this list fixes.  A job with the term costs two to
# four times one without it, and twice as much over QQ as over F_32003, so
# a field drawn from the seed would move pass_s and p90 by 10-20%.
CURVE_SHAPES = tuple((a, b) for a in range(2, 6) for b in range(a + 1, a + 5)
                     if math.gcd(a, b) == 1)
CURVE_FIELDS = ("q", "fp:32003")


@dataclass(frozen=True)
class Job:
    name: str
    text: str                      # the config, as JSON
    path: Path | None = None       # corpus jobs are loaded from this file
    facts: dict = field(default_factory=dict)


def _text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _mono(exps) -> str:
    parts = []
    for v, e in zip(VARIABLES, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def corpus_jobs(root: Path) -> list:
    paths = sorted((root / "corpus").glob("*.json"))
    return [Job(p.stem, p.read_text(), path=p) for p in paths]


def _antichains(a: int, count: int) -> list:
    """Sets of `count` exponent vectors in two variables, every entry below a
    and total degree >= a, none dividing another: the extra generators of
    distinct monomial ideals."""
    box = [(i, j) for i in range(a) for j in range(a) if i + j >= a]
    return [c for c in itertools.combinations(box, count)
            if not any(u != v and u[0] <= v[0] and u[1] <= v[1] for u in c for v in c)]


def _colength(a: int, extra) -> int:
    """Monomials of k[x,y] outside (x^a, y^a) + extra.  Over all the jobs
    with a = 5, a job's time falls as this grows (correlation -0.9)."""
    return sum(1 for i in range(a) for j in range(a)
               if not any(i >= u and j >= v for u, v in extra))


def _spread_sample(rng, choices: list, k: int, key) -> list:
    """k of ``choices``: sorted by ``key`` and cut into k runs of near-equal
    length, one drawn from each run."""
    ordered = sorted(choices, key=key)
    n = len(ordered)
    return [rng.choice(ordered[n * s // k:n * (s + 1) // k]) for s in range(k)]


def _monomial_job(seed: int, index: int, nvars: int, a: int, extra: list,
                  field_: str) -> Job:
    pure = [tuple(a if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    name = f"monomial_adic_{seed}_{index:02d}"
    obj = {
        "name": name,
        "field": field_,
        "horizon": HORIZON,
        "ring": {"variables": list(VARIABLES[:nvars])},
        "filtration": {"kind": "adic",
                       "stages": {"1": [_mono(e) for e in pure + extra]}},
        "reduction": {"generators": [_mono(e) for e in pure]},
    }
    facts = {"nvars": nvars, "a": a, "horizon": HORIZON,
             "stage_one": [list(e) for e in pure + extra]}
    return Job(name, _text(obj), facts=facts)


def monomial_adic_jobs(seed: int) -> list:
    """m-primary monomial I_1 = (x_i^a) + extra monomials, Q = (x_i^a).

    Each extra monomial has degree >= a and every exponent below a, so it is
    integral over Q and Q is a reduction of I_1.  In k[x,y] the seed draws
    which 1-3 extras each job gets, no two jobs of a field sharing an ideal.
    Where a field has several jobs with the same a and extra count, each is
    drawn from its own part of the candidates sorted by colength, so that
    every seed gets cheap and dear ones alike and the median job time
    depends little on the seed.  The seed also draws the order of the jobs.
    """
    rng = random.Random(f"monomial_adic:{seed}")
    shapes = []
    for field_ in MONOMIAL_FIELDS:
        for a, counts in TWO_VAR_EXTRAS.items():
            for count in sorted(set(counts)):
                for extra in _spread_sample(rng, _antichains(a, count), counts.count(count),
                                            key=lambda c, a=a: (_colength(a, c), c)):
                    shapes.append((2, a, list(extra), field_))
    for field_, more in zip(MONOMIAL_FIELDS, ([], [(1, 1, 1)])):
        for pair in THREE_VAR_PAIRS:
            shapes.append((3, 2, [pair] + more, field_))
    rng.shuffle(shapes)
    return [_monomial_job(seed, k, *shape) for k, shape in enumerate(shapes)]


def curves_jobs(seed: int) -> list:
    """Plane curves y^a - x^b (+ c x^(b-1) y) with gcd(a, b) = 1 and a < b.

    I_1 = m and Q = (x).  Each (a, b) runs without the extra term over QQ
    and over F_32003, and once with it, over QQ and F_32003 in turn along
    CURVE_SHAPES; the seed draws c in 1..9 and the order of the jobs.
    """
    rng = random.Random(f"curves:{seed}")
    shapes = []
    for k, (a, b) in enumerate(CURVE_SHAPES):
        shapes += [(a, b, None, f) for f in CURVE_FIELDS]
        shapes.append((a, b, rng.randint(1, 9), CURVE_FIELDS[k % 2]))
    rng.shuffle(shapes)
    jobs = []
    for k, (a, b, c, field_) in enumerate(shapes):
        f = f"y^{a} - x^{b}" if c is None else f"y^{a} - x^{b} + {c}*x^{b - 1}*y"
        name = f"curves_{seed}_{k:02d}"
        obj = {
            "name": name,
            "field": field_,
            "ring": {"variables": ["x", "y"], "relations": [f]},
            "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
            "reduction": {"generators": ["x"]},
        }
        jobs.append(Job(name, _text(obj), facts={"a": a}))
    return jobs


def make_jobs(workload: str, seed: int, root: Path) -> list:
    if workload == "corpus":
        return corpus_jobs(root)
    if workload == "monomial_adic":
        return monomial_adic_jobs(seed)
    if workload == "curves":
        return curves_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs) -> str:
    """sha256 over every job's config text, in pass order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.text.encode())
        h.update(b"\0")
    return h.hexdigest()
