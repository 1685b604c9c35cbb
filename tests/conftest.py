import json
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = PKG_ROOT / "corpus"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _depth_zero_job(name, variables, relations, stage_one, reduction):
    return {"name": name, "ring": {"variables": variables, "relations": relations},
            "filtration": {"kind": "adic", "stages": {"1": stage_one}},
            "reduction": {"generators": reduction}}


# Depth-zero jobs whose relations are not all monomials, each with a torsion
# ideal W of length 1; no benchmark workload holds such a job.
_NM1 = ["x^2 + 2*x*y^2 + y^4", "x*y + y^3"]   # (x + y^2)^2, (x + y^2) y
NON_MONOMIAL_DEPTH_ZERO = [
    _depth_zero_job("nm1", ["x", "y"], _NM1, ["x", "y"], ["y"]),
    _depth_zero_job("nm2", ["x", "y", "z"],
                    ["(x+y*z)^2", "(x+y*z)*y", "(x+y*z)*z"], ["x", "y", "z"], ["y", "z"]),
    _depth_zero_job("nm3", ["x", "y"], _NM1, ["x", "y^2"], ["y^2"]),
    _depth_zero_job("nm4", ["x", "y", "z"], ["x^2", "x*y", "x*z - x*y"],
                    ["x", "y", "z"], ["y", "z"]),
]


def torsion_free_quotient(ring):
    """C = A/W built as its own ring on the same variables, W the torsion
    ideal: the reference that lengths of X + W in A are checked against."""
    from filtra.ideals import LocalRing
    return LocalRing(ring.ctx.variables,
                     ring.gb_relations.polys + ring.torsion_ideal().gens,
                     field=ring.field)


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """Run the whole bundled corpus once per session through the real CLI.

    Returns (summary dict, {config filename: full report dict}, elapsed seconds).
    """
    import time
    from filtra.cli import main

    out = tmp_path_factory.mktemp("corpus_out")
    summary_path = out / "summary.json"
    reports_dir = out / "reports"
    t0 = time.perf_counter()
    code = main(["corpus", str(CORPUS_DIR), "--summary", str(summary_path),
                 "--reports", str(reports_dir), "--quiet"])
    elapsed = time.perf_counter() - t0
    assert code == 0, "corpus sweep must exit 0"
    summary = json.loads(summary_path.read_text())
    reports = {p.name: json.loads(p.read_text())
               for p in sorted(reports_dir.glob("*.json"))}
    return summary, reports, elapsed


def corpus_and_digest_configs() -> list:
    """Every corpus job and every job of ``golden/report_digests.json``."""
    from filtra.config import load_config, parse_config
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    configs += [parse_config(e["config"]) for e in
                json.loads((GOLDEN_DIR / "report_digests.json").read_text())]
    return configs


def graded_by_scan(data, W):
    """The graded clause as it is defined, at every n: the first n with a
    generator of (Q^n + W) meet (I_{n+1} + W) outside Q^n I_1 + W, and that
    generator.  Admissibility puts Q^n I_1 + W inside the meet, so the
    clause holds exactly when this is None."""
    filt, Q = data.filt, data.red.handle
    for n in range(1, data.horizon):
        meet = (Q.power(n) + W).intersect(filt.get_ideal(n + 1) + W)
        bad = (Q.power(n) * filt.i1 + W).missing_generator(meet)
        if bad is not None:
            return {"n": n, "generator": str(bad)}
    return None


def canonical_key(cfg) -> str:
    return json.dumps(cfg.canonical(), sort_keys=True)


# The engine functions whose calls the work counts read, each under the
# name that ``Census`` counts it by: (module of filtra, attribute path).
WORK = {
    "buchberger": ("groebner", "_buchberger_raw"),
    "spolys": ("groebner", "_spoly_dict"),
    "bases": ("ideals", "groebner_basis"),
    "eliminations": ("ideals", "_intersection_in_ambient"),
    "nilpotency": ("ideals", "_variables_nilpotent"),
    "colons": ("ideals", "IdealHandle._colon_element"),
    "ideal_colons": ("ideals", "IdealHandle._colon_ideal"),
    "intersections": ("ideals", "IdealHandle._intersect"),
    "subquotients": ("ideals", "LocalRing.subquotient_length"),
    "rings": ("ideals", "LocalRing.__init__"),
    "colengths": ("ideals", "IdealHandle._colength_compute"),
    "products": ("ideals", "IdealHandle._mul"),
}


class Call(NamedTuple):
    args: tuple
    kwargs: dict
    result: object


class Census:
    """The calls of the ``WORK`` functions made while it counts, each kept
    in ``calls[name]`` as it returns; ``census[name]`` is their number."""

    def __init__(self):
        self.calls = {name: [] for name in WORK}

    def __getitem__(self, name: str) -> int:
        return len(self.calls[name])

    def clear(self):
        for calls in self.calls.values():
            calls.clear()


def _recorded(calls: list, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(Call(args, kwargs, result))
        return result
    return wrapper


@contextmanager
def counting_work():
    """A ``Census`` of every ``WORK`` call made inside the block.  Each
    function is wrapped where its callers look it up, by module or class
    attribute, and is restored on exit.  Hypothesis tests and session
    fixtures use this; other tests take the ``census`` fixture."""
    import importlib
    census = Census()
    with pytest.MonkeyPatch.context() as mp:
        for name, (module, path) in WORK.items():
            owner = importlib.import_module(f"filtra.{module}")
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            mp.setattr(owner, attr, _recorded(census.calls[name], getattr(owner, attr)))
        yield census


@pytest.fixture
def census():
    with counting_work() as counted:
        yield counted


def run_captured(cfg, closed_forms=True):
    """Run one job, with ``filtration.closed_form`` giving nothing unless
    ``closed_forms``; return its report, its ring, the bases built from a
    seed other than the relations' basis, the boundary data that
    evaluate_structural read with the torsion ideal W, as (data, W), or
    None if the job stopped before it, and the
    (filtration, reduction) that run_job certified, or (None, None) if it
    stopped before."""
    from filtra import filtration, report
    certified, structural_args = [], [None]
    verify, structural = report.verify_admissible, report.evaluate_structural

    def captured(filt, red, horizon):
        certified.append((filt, red))
        return verify(filt, red, horizon)

    def kept(data):
        structural_args[0] = (data, data.ring.torsion_ideal())
        return structural(data)

    with pytest.MonkeyPatch.context() as mp, counting_work() as census:
        mp.setattr(report, "verify_admissible", captured)
        mp.setattr(report, "evaluate_structural", kept)
        if not closed_forms:
            mp.setattr(filtration, "closed_form", lambda lengths, n, k, plus: None)
        got = report.run_job(cfg)
    assert census["rings"] == 1, got["name"]
    ring = census.calls["rings"][0].args[0]
    seeds = [(c.kwargs.get("seed"), c.result) for c in census.calls["bases"]]
    seeded = [out for seed, out in seeds if seed is not None and seed is not ring.gb_relations]
    return (got, ring, seeded, structural_args[0],
            *(certified[-1] if certified else (None, None)))


@pytest.fixture(scope="session")
def without_closed_forms():
    """``run_captured(cfg, closed_forms=False)`` for every job of
    ``corpus_and_digest_configs``, by ``canonical_key``: the route on which
    every length table entry is a colength, the reference for the closed
    forms."""
    return {canonical_key(cfg): run_captured(cfg, closed_forms=False)
            for cfg in corpus_and_digest_configs()}


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())
