"""Run one job end to end and shape the result for output.

Reports are deterministic: same config, same bytes.  No timestamps, no
environment echoes, sorted keys.
"""
from __future__ import annotations

import json

from .checkers import (compute_boundary_data, evaluate_conditions,
                       evaluate_structural, run_checks)
from .config import ConfigError, JobConfig, validate_report
from .fields import field_from_descriptor
from .filtration import (ADIC, EXPLICIT, Filtration, HorizonExceeded,
                         NotAdmissible, RatliffRushNotStabilized,
                         SearchExhausted, explicit_filtration, find_reduction,
                         reduction_system, reduction_tail, verify_admissible)
from .hilbert import HorizonTooSmall, NoPolynomialTail
from .ideals import (LocalRing, NotFiniteLength, NotMPrimary, NotNested,
                     SaturationNotStabilized)
from .parser import PolySyntaxError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2

VERDICT_OK = "verified"
VERDICT_INVALID = "invalid-input"
VERDICT_VIOLATION = "violation"

# anything here means the input (not the mathematics) is at fault
_INPUT_ERRORS = (ConfigError, NotAdmissible, HorizonTooSmall, NoPolynomialTail,
                 HorizonExceeded, RatliffRushNotStabilized, SaturationNotStabilized,
                 SearchExhausted, NotMPrimary, NotNested,
                 NotFiniteLength, PolySyntaxError, ValueError)


def build_filtration(ring: LocalRing, cfg: JobConfig) -> Filtration:
    cap = cfg.horizon + 8
    if cfg.kind == EXPLICIT:
        return explicit_filtration(ring, cfg.stages, hard_cap=cap)
    return Filtration(ring, cfg.kind, ring.ideal(cfg.stages[1]), hard_cap=cap)


def _strict_warnings(filt: Filtration, red, horizon: int) -> list:
    """In strict mode, also ask whether the reduction tail holds for the
    plain power filtration of the seed; a closure or explicit tower can
    hide a Q that never reduces the seed ideal itself."""
    if filt.kind == ADIC:
        return []
    if reduction_tail(filt._base_power, red, horizon)[0] < horizon - 1:
        return []
    return ["reduction never becomes exact for the plain power "
            "filtration of stage one within the horizon"]


def run_job(cfg: JobConfig) -> dict:
    report = {
        "format": 1,
        "name": cfg.name,
        "verdict": VERDICT_INVALID,
        "exit_code": EXIT_INVALID,
        "error": None,
        "config": cfg.canonical(),
        "ring": None,
        "filtration": None,
        "reduction": None,
        "admissibility": None,
        "numbers": None,
        "conditions": None,
        "structural": None,
        "checks": [],
        "strict_warnings": [],
    }
    try:
        field = field_from_descriptor(cfg.field_descriptor)
        ring = LocalRing(cfg.variables, cfg.relations, field=field, name=cfg.name)
        filt = build_filtration(ring, cfg)
        if cfg.generators is not None:
            red = reduction_system(ring, list(cfg.generators))
            searched = False
        else:
            red = find_reduction(filt, cfg.horizon, seed=cfg.search_seed,
                                 attempts=cfg.search_attempts)
            searched = True
        W = ring.torsion_ideal()
        report["ring"] = {
            "variables": list(ring.ctx.variables),
            "relations": [str(r) for r in ring.relations],
            "field": field.descriptor,
            "dimension": ring.dimension,
            "depth_positive": ring.has_positive_depth(),
            "torsion_length": ring.torsion_length(),
            "torsion_generators": [str(g) for g in W.gens],
        }
        report["filtration"] = {
            "kind": cfg.kind,
            "stage_one": [str(g) for g in filt.i1.gens],
            "horizon": cfg.horizon,
        }
        report["reduction"] = {
            "generators": [str(g) for g in red.generators],
            "searched": searched,
        }
        if searched:
            report["reduction"]["seed"] = cfg.search_seed
        cert = verify_admissible(filt, red, cfg.horizon)
        report["admissibility"] = {
            "reduction_postulation": cert.reduction_postulation,
            "stage_equalities": list(cert.stage_equalities),
        }
        # the reduction is a system of parameters, so it certifies CM-ness
        report["ring"]["cm_certificate"] = ring.is_cm_via_parameters(red.generators)
        data = compute_boundary_data(ring, filt, red, cfg.horizon)
        conditions = evaluate_conditions(ring, filt, red, cfg.power_bound)
        structural = evaluate_structural(data, W)
        checks = run_checks(data, conditions, structural, cfg.checks)
        if cfg.strict:
            report["strict_warnings"] = _strict_warnings(filt, red, cfg.horizon)
        report["numbers"] = {
            "lengths_filtration": list(data.h_filt),
            "lengths_reduction": list(data.h_red),
            "e_filtration": list(data.fit_filt.coefficients),
            "postulation_filtration": data.fit_filt.postulation,
            "e_reduction": list(data.fit_red.coefficients),
            "postulation_reduction": data.fit_red.postulation,
            "stage_one_colength": data.stage_one_colength,
            "graded_colength": data.graded_colength,
            "sally_values": list(data.sally_values),
            "sally": {
                "e_top": list(data.sally.e_top),
                "e": list(data.sally.e),
                "dimension": data.sally.dim,
                "vanishes": data.sally.vanishes,
            },
            "boundary": {
                "lhs": data.lhs,
                "rhs": data.rhs,
                "gap": data.gap,
                "equality": data.equality,
                "second_part_nonnegative": data.second_nonnegative,
            },
        }
        report["conditions"] = conditions
        report["structural"] = structural
        report["checks"] = checks
        failed = [c["name"] for c in checks if c["status"] == "fail"]
        if "fit_stability" in failed:
            # unstable fits poison every number downstream: input problem
            report["verdict"] = VERDICT_INVALID
            report["exit_code"] = EXIT_INVALID
            report["error"] = {
                "type": "UnstableFit",
                "message": "coefficients changed when the horizon grew; "
                           "raise the horizon",
            }
        elif failed:
            report["verdict"] = VERDICT_VIOLATION
            report["exit_code"] = EXIT_VIOLATION
        else:
            report["verdict"] = VERDICT_OK
            report["exit_code"] = EXIT_OK
    except _INPUT_ERRORS as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness:
            err["witness"] = witness
        report["error"] = err
        report["verdict"] = VERDICT_INVALID
        report["exit_code"] = EXIT_INVALID
    validate_report(report)
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _status_mark(status: str) -> str:
    return {"pass": "ok", "fail": "FAIL", "skipped": "--"}[status]


def to_markdown(report: dict) -> str:
    lines = [f"# {report['name']}", ""]
    lines.append(f"Verdict: **{report['verdict']}** (exit {report['exit_code']})")
    lines.append("")
    if report["error"]:
        lines.append(f"Error `{report['error']['type']}`: {report['error']['message']}")
        lines.append("")
    ring = report.get("ring")
    if ring:
        rel = ", ".join(ring["relations"]) or "0"
        lines.append(f"Ring: k[{', '.join(ring['variables'])}] / ({rel}), "
                     f"dim {ring['dimension']}, field {ring['field']}")
        if not ring["depth_positive"]:
            lines.append(f"Depth zero; torsion length {ring['torsion_length']}.")
        lines.append("")
    numbers = report.get("numbers")
    if numbers:
        b = numbers["boundary"]
        lines.append(f"e(filtration) = {numbers['e_filtration']}, "
                     f"e(reduction) = {numbers['e_reduction']}")
        lines.append(f"Inequality: lhs {b['lhs']} >= rhs {b['rhs']} "
                     f"(gap {b['gap']}, equality {b['equality']})")
        lines.append("")
    if report["checks"]:
        lines.append("| check | status |")
        lines.append("|---|---|")
        for c in report["checks"]:
            lines.append(f"| {c['name']} | {_status_mark(c['status'])} |")
        lines.append("")
    for w in report.get("strict_warnings", []):
        lines.append(f"Warning: {w}")
    text = "\n".join(lines)
    return text if text.endswith("\n") else text + "\n"
