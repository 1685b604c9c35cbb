"""Correctness oracles, one per workload, independent of filtra's algebra.

An oracle is built once per run from the workload's jobs and then called on
every (job, report, report text) a pass produces.  It returns None when the
report is right and a one-line reason when it is not.
"""
from __future__ import annotations

import json
from pathlib import Path

VERIFIED = "verified"


def summary_entry(report: dict, filename: str) -> dict:
    """The per-job entry of ``filtra corpus --summary``, rebuilt here."""
    numbers = report.get("numbers")
    return {
        "name": report["name"],
        "file": filename,
        "verdict": report["verdict"],
        "exit_code": report["exit_code"],
        "equality": numbers["boundary"]["equality"] if numbers else None,
        "gap": numbers["boundary"]["gap"] if numbers else None,
        "e_filtration": numbers["e_filtration"] if numbers else None,
        "e_reduction": numbers["e_reduction"] if numbers else None,
        "failed_checks": [c["name"] for c in report["checks"]
                          if c["status"] == "fail"],
    }


class CorpusOracle:
    """Summary entries against tests/golden/corpus_summary.json, and the
    cusp report bytes against tests/golden/cusp_report.json."""

    def __init__(self, root: Path):
        golden = root / "tests" / "golden"
        summary = json.loads((golden / "corpus_summary.json").read_text())
        self.entries = {e["file"]: e for e in summary["instances"]}
        self.cusp_text = (golden / "cusp_report.json").read_text()

    def __call__(self, job, report: dict, text: str):
        filename = job.path.name
        want = self.entries.get(filename)
        if want is None:
            return f"{filename} has no golden summary entry"
        if summary_entry(report, filename) != want:
            return f"{filename} summary differs from the golden entry"
        if filename == "cusp.json" and text != self.cusp_text:
            return "cusp report bytes differ from the golden report"
        return None


def monomial_colengths(gens, nvars: int, top: int) -> list:
    """l(k[x]/(gens)^n) for n = 0..top by counting lattice points.

    The n-th power is generated by the n-fold sums of the exponent vectors.
    Membership is closed upwards, so one sweep in lexicographic order marks
    every point of the box [0, b)^nvars that lies in the ideal, where b is
    the largest pure power among the n-fold sums.
    """
    gens = [tuple(g) for g in gens]
    out = [0]
    sums = {tuple([0] * nvars)}
    for n in range(1, top + 1):
        sums = {tuple(s + g for s, g in zip(a, b)) for a in sums for b in gens}
        bound = max(s[i] for s in sums for i in range(nvars)
                    if s[i] == sum(s))
        strides = [bound ** (nvars - 1 - i) for i in range(nvars)]
        size = bound ** nvars
        member = bytearray(size)
        for s in sums:
            if all(e < bound for e in s):
                member[sum(e * st for e, st in zip(s, strides))] = 1
        for idx in range(size):
            if member[idx]:
                continue
            rest = idx
            for st in strides:
                e, rest = divmod(rest, st)
                if e and member[idx - st]:
                    member[idx] = 1
                    break
        out.append(size - sum(member))
    return out


class MonomialOracle:
    """Both length tables against lattice counts of I_1^n and Q^n."""

    def __init__(self, jobs):
        self.expected = {}
        for job in jobs:
            f = job.facts
            nvars, a, top = f["nvars"], f["a"], f["horizon"]
            pure = [[a if j == i else 0 for j in range(nvars)] for i in range(nvars)]
            self.expected[job.name] = (
                monomial_colengths(f["stage_one"], nvars, top),
                monomial_colengths(pure, nvars, top))

    def __call__(self, job, report: dict, text: str):
        if report["verdict"] != VERIFIED:
            return f"{job.name}: verdict {report['verdict']}"
        filt, red = self.expected[job.name]
        numbers = report["numbers"]
        if numbers["lengths_filtration"] != filt:
            return f"{job.name}: lengths_filtration differ from the lattice count"
        if numbers["lengths_reduction"] != red:
            return f"{job.name}: lengths_reduction differ from the lattice count"
        return None


class CurveOracle:
    """l(A/(x^n)) = n*a, the intersection number of x^n with y^a - ..., and
    e_0(m) = a, the order of the curve at the origin."""

    def __call__(self, job, report: dict, text: str):
        if report["verdict"] != VERIFIED:
            return f"{job.name}: verdict {report['verdict']}"
        a = job.facts["a"]
        numbers = report["numbers"]
        lengths = numbers["lengths_reduction"]
        if lengths != [n * a for n in range(len(lengths))]:
            return f"{job.name}: lengths_reduction are not n*{a}"
        if numbers["e_filtration"][0] != a:
            return f"{job.name}: e_0 is {numbers['e_filtration'][0]}, not {a}"
        return None


def make_oracle(workload: str, jobs, root: Path):
    if workload == "corpus":
        return CorpusOracle(root)
    if workload == "monomial_adic":
        return MonomialOracle(jobs)
    if workload == "curves":
        return CurveOracle()
    raise ValueError(f"unknown workload {workload!r}")
