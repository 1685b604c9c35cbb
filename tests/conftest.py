import json
from pathlib import Path

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


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())
