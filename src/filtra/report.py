"""Run one job end to end and shape the result for output.

Reports are deterministic: same config, same bytes.  No timestamps, no
environment echoes, sorted keys.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .checkers import (compute_boundary_data, evaluate_conditions,
                       evaluate_structural, run_checks)
from .config import ConfigError, JobConfig, report_schema, validate_report
from .fields import field_from_descriptor
from .filtration import (ADIC, Filtration, NotAdmissible, SearchExhausted,
                         find_reduction, reduction_system, verify_admissible)
from .hilbert import HorizonTooSmall, NoPolynomialTail
from .ideals import CapReached, LocalRing, NotMPrimary, NotNested
from .parser import PolySyntaxError

VERDICT_OK = "verified"
VERDICT_INVALID = "invalid-input"
VERDICT_VIOLATION = "violation"

# the one verdict table; the exit codes rank the verdicts, worst highest
EXIT_CODES = {VERDICT_OK: 0, VERDICT_INVALID: 1, VERDICT_VIOLATION: 2}
EXIT_INVALID = EXIT_CODES[VERDICT_INVALID]   # also the CLI's usage errors

# anything here means the input (not the mathematics) is at fault;
# CapReached covers every hard cap
_INPUT_ERRORS = (ConfigError, NotAdmissible, HorizonTooSmall, NoPolynomialTail,
                 CapReached, SearchExhausted, NotMPrimary, NotNested,
                 PolySyntaxError, ValueError)


def _strict_warnings(filt: Filtration, red, horizon: int) -> list:
    """In strict mode, also ask whether the reduction tail holds for the
    plain power filtration of the seed; a closure or explicit tower can
    hide a Q that never reduces the seed ideal itself.  For powers a true
    flag stays true, as I^{n+2} = I Q I^n = Q I^{n+1}, so the last one
    decides."""
    if filt.kind == ADIC:
        return []
    power = filt.seed.power
    if power(horizon - 1).equals_local(red.handle * power(horizon - 2)):
        return []
    return ["reduction never becomes exact for the plain power "
            "filtration of stage one within the horizon"]


def _set_verdict(report: dict, verdict: str) -> dict:
    report.update(verdict=verdict, exit_code=EXIT_CODES[verdict])
    return report


def _new_report(name: str, config: dict) -> dict:
    """Every key the schema requires, None until the job fills it in, with
    the verdict invalid input until the job gets further."""
    report = dict.fromkeys(report_schema()["required"])
    report.update(format=1, name=name, config=config, checks=[],
                  strict_warnings=[])
    return _set_verdict(report, VERDICT_INVALID)


def _mark_invalid(report: dict, exc: Exception) -> dict:
    """Record ``exc`` on ``report`` as the input fault that ended the job."""
    err = {"type": type(exc).__name__, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness:
        err["witness"] = witness
    report["error"] = err
    return _set_verdict(report, VERDICT_INVALID)


def config_error_report(name: str, exc: ConfigError) -> dict:
    """The validated report of a job whose config could not be loaded; its
    ``config`` is empty."""
    report = _mark_invalid(_new_report(name, {}), exc)
    validate_report(report)
    return report


def run_job(cfg: JobConfig) -> dict:
    report = _new_report(cfg.name, cfg.canonical())
    try:
        field = field_from_descriptor(cfg.field_descriptor)
        ring = LocalRing(cfg.variables, cfg.relations, field=field)
        filt = Filtration(ring, cfg.kind, cfg.stages)
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
        lengths = verify_admissible(filt, red, cfg.horizon)
        report["admissibility"] = {
            "reduction_postulation": lengths.postulation,
            "stage_equalities": list(lengths.flags),
        }
        # the reduction is a system of parameters, so it certifies CM-ness
        report["ring"]["cm_certificate"] = lengths.cohen_macaulay
        data = compute_boundary_data(lengths)
        conditions = evaluate_conditions(data, cfg.power_bound)
        structural = evaluate_structural(data)
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
            report["error"] = {
                "type": "UnstableFit",
                "message": "coefficients changed when the horizon grew; "
                           "raise the horizon",
            }
            _set_verdict(report, VERDICT_INVALID)
        else:
            _set_verdict(report, VERDICT_VIOLATION if failed else VERDICT_OK)
    except _INPUT_ERRORS as exc:
        _mark_invalid(report, exc)
    validate_report(report)
    return report


def to_json(report: dict) -> str:
    """The JSON writer of reports and the corpus summary.  It writes the
    bytes of ``json.dumps(report, sort_keys=True, indent=2,
    ensure_ascii=True)`` and a final newline, for dicts with str keys,
    lists, tuples, str, int, bool and None; any other type, float and the
    package's NamedTuple records included, raises TypeError.  ``filtra
    schema`` calls that ``json.dumps`` itself, so that printing a schema
    loads no engine module; the bytes are the same."""
    out: list = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys are written as str, not {type(key).__name__}")
            out.append(f"{sep}{_quote(key)}: ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(value) in (list, tuple):  # a record is a tuple subclass, and refused
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")


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
