"""Command line behavior: exit codes, determinism, schemas, corpus sweeps."""
import ast
import concurrent.futures
import importlib
import json
import pkgutil
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import filtra
import filtra.checkers as checkers
import filtra.filtration as filtration
import filtra.ideals as ideals
import filtra.parser as parser
from filtra.cli import main
from filtra.config import ConfigError, config_schema, parse_config, validate_report
from filtra.filtration import ADIC, EXPLICIT, Filtration, reduction_system
from filtra.ideals import LocalRing
from filtra.report import _strict_warnings

from conftest import CORPUS_DIR, PKG_ROOT

CUSP = CORPUS_DIR / "cusp.json"


def base_config(**over):
    cfg = {
        "name": "job",
        "ring": {"variables": ["x", "y"], "relations": ["y^2 - x^3"]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["x"]},
        "horizon": 8,
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(path):
    report = json.loads(path.read_text())
    validate_report(report)
    return report


# -- verify ----------------------------------------------------------------

def test_verify_ok(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", str(CUSP), "--report", str(out), "--quiet"])
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "verified"
    assert report["exit_code"] == 0
    assert report["error"] is None
    assert report["ring"]["cm_certificate"] is True
    assert report["numbers"]["boundary"]["gap"] == 0


def test_verify_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", str(CUSP), "--report", str(a), "--quiet"])
    capsys.readouterr()
    main(["verify", str(CUSP), "--report", str(b)])
    stdout = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert stdout == a.read_text()
    assert "\\u" not in stdout  # ascii-safe output stays readable


def test_verify_horizon_override(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", str(CUSP), "--horizon", "8",
                 "--report", str(out), "--quiet"])
    assert code == 0
    assert read_report(out)["config"]["horizon"] == 8


@pytest.mark.parametrize("horizon", ["5", "41"])
def test_verify_horizon_override_out_of_range(tmp_path, capsys, horizon):
    out = tmp_path / "report.json"
    code = main(["verify", str(CUSP), "--horizon", horizon,
                 "--report", str(out), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "horizon" in err
    assert not out.exists()


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json"), "--quiet"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_rejects_schema_violation(tmp_path, capsys):
    path = write_config(tmp_path, {"name": "bad"})
    assert main(["verify", path, "--quiet"]) == 1


def test_verify_bad_polynomial(tmp_path):
    cfg = base_config(ring={"variables": ["x", "y"], "relations": ["y^2 - $"]})
    out = tmp_path / "report.json"
    code = main(["verify", write_config(tmp_path, cfg),
                 "--report", str(out), "--quiet"])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "invalid-input"
    assert report["error"]["type"] == "PolySyntaxError"


def test_verify_not_admissible(tmp_path):
    cfg = base_config(
        ring={"variables": ["x", "y"], "relations": []},
        filtration={"kind": "adic", "stages": {"1": ["x"]}},
        reduction={"generators": ["x", "y"]})
    out = tmp_path / "report.json"
    code = main(["verify", write_config(tmp_path, cfg),
                 "--report", str(out), "--quiet"])
    assert code == 1
    report = read_report(out)
    assert report["error"]["type"] == "NotAdmissible"
    assert report["error"]["witness"]["check"] == "m_primary"


# -- inputs that must end in exit 1, not a traceback -----------------------

DEEP = "(" * 300 + "y^2 - x^3" + ")" * 300


def hostile_configs():
    """name -> file bytes of configs that once raised out of the CLI."""
    plain = json.dumps(base_config(name="hostile"))
    nested = "[" * 600 + "]" * 600
    return {
        "not_utf8": plain.encode().replace(b"hostile", b"host\xffile"),
        "deep_json": b"[" * 100_000,
        "deep_schema": plain[:-1].encode() + f', "checks": [{nested}, {nested}]}}'.encode(),
        "deep_parens": json.dumps(base_config(
            ring={"variables": ["x", "y"], "relations": [DEEP]})).encode(),
        "zero_denominator": json.dumps(base_config(
            field="fp:101",
            ring={"variables": ["x", "y"], "relations": ["y^2 - 1/101*x^3"]})).encode(),
        "long_expansion": json.dumps(base_config(
            ring={"variables": ["x", "y", "z"], "relations": ["(x+y+z)^200"]})).encode(),
    }


@pytest.mark.parametrize("name", ["not_utf8", "deep_json", "deep_schema"])
def test_verify_unreadable_config_is_invalid_input(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(hostile_configs()[name])
    assert main(["verify", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, message", [
    ("deep_parens", "NESTING_LIMIT=64 (at byte 64)"),
    ("zero_denominator", "zero in the field fp:101 (at byte 8)"),
    ("long_expansion", f"PRODUCT_LIMIT={parser.PRODUCT_LIMIT} (at byte 7)"),
])
def test_verify_unparsable_relation_is_invalid_input(tmp_path, name, message):
    path = tmp_path / f"{name}.json"
    path.write_bytes(hostile_configs()[name])
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--report", str(out), "--quiet"]) == 1
    report = read_report(out)
    assert issubclass(getattr(parser, report["error"]["type"]), parser.PolySyntaxError)
    assert report["error"]["message"].endswith(message)


def forced_fail(name):
    return {"name": name, "applicable": True, "status": "fail",
            "details": {"forced": True}}


def test_violation_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(checkers, "check_master_inequality",
                        lambda data: forced_fail("master_inequality"))
    out = tmp_path / "report.json"
    code = main(["verify", str(CUSP), "--report", str(out), "--quiet"])
    assert code == 2
    report = read_report(out)
    assert report["verdict"] == "violation"
    assert report["exit_code"] == 2


def test_nonpositive_multiplicity_is_a_violation(tmp_path):
    """k[x,y,z]/(xz - x, yz - y) is k[z]_(z) at the origin, of local
    dimension 1, which the tangent cone's series reads.  With Q = (z) the
    job verifies with e(I) = e(Q) = (1, 0); Q = (z, x) has two generators,
    one too many.  While the dimension was read globally as 2, Q = (z, x)
    gave e(I) = e(Q) = (0, -1, 0) and ended in a violation of the master
    inequality, which requires e_0(I) > 0, and Q = (z) ended as invalid
    input.  No known job reaches e_0 <= 0 now; the master inequality still
    requires e_0 > 0."""
    ring = {"variables": ["x", "y", "z"], "relations": ["x*z - x", "y*z - y"]}
    stages = {"kind": "adic", "stages": {"1": ["x", "y", "z"]}}
    out = tmp_path / "report.json"
    cfg = base_config(ring=ring, filtration=stages, reduction={"generators": ["z"]})
    code = main(["verify", write_config(tmp_path, cfg), "--report", str(out), "--quiet"])
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "verified"
    assert report["ring"]["dimension"] == 1
    assert report["numbers"]["e_filtration"] == report["numbers"]["e_reduction"] == [1, 0]
    cfg = base_config(ring=ring, filtration=stages, reduction={"generators": ["z", "x"]})
    code = main(["verify", write_config(tmp_path, cfg), "--report", str(out), "--quiet"])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "invalid-input"
    assert report["error"]["witness"] == {"check": "parameter_count"}


def test_unstable_fit_is_invalid_input(tmp_path, monkeypatch):
    monkeypatch.setattr(checkers, "check_fit_stability",
                        lambda data: forced_fail("fit_stability"))
    out = tmp_path / "report.json"
    code = main(["verify", str(CUSP), "--report", str(out), "--quiet"])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "invalid-input"
    assert report["error"]["type"] == "UnstableFit"


def test_ratliff_rush_cap_is_an_input_error(tmp_path, monkeypatch, capsys):
    """A closure that outruns its iteration bound ends the job as invalid
    input, with a message and a witness that name the cap, instead of a
    traceback."""
    monkeypatch.setattr(filtration, "RR_ITERATION_BOUND", 1)
    out = tmp_path / "report.json"
    code = main(["verify", str(CORPUS_DIR / "sally_rr_equality.json"),
                 "--report", str(out), "--quiet"])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "invalid-input"
    assert report["exit_code"] == 1
    assert report["error"]["type"] == "RatliffRushNotStabilized"
    assert "RR_ITERATION_BOUND=1" in report["error"]["message"]
    assert report["error"]["witness"] == {"cap": "RR_ITERATION_BOUND", "value": 1}
    assert "Traceback" not in capsys.readouterr().err


def test_markdown_rendering(tmp_path):
    md = tmp_path / "report.md"
    main(["verify", str(CUSP), "--markdown", str(md), "--quiet"])
    text = md.read_text()
    assert "cusp" in text
    assert "verified" in text
    assert "master_inequality" in text
    assert "—" not in text


# -- corpus ----------------------------------------------------------------

def test_corpus_mixed_verdicts(tmp_path, capsys):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    (cdir / "good.json").write_text(CUSP.read_text())
    (cdir / "broken.json").write_text(json.dumps({"name": "broken"}))
    (cdir / "ignored.txt").write_text("not a config")
    summary_path = tmp_path / "summary.json"
    reports_dir = tmp_path / "reports"
    code = main(["corpus", str(cdir), "--summary", str(summary_path),
                 "--reports", str(reports_dir), "--quiet"])
    assert code == 1  # invalid input present, no violation
    summary = json.loads(summary_path.read_text())
    assert summary["counts"] == {"verified": 1, "violation": 0,
                                 "invalid-input": 1}
    files = [e["file"] for e in summary["instances"]]
    assert files == sorted(files) == ["broken.json", "good.json"]
    assert (reports_dir / "good.json").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_corpus_sweep_survives_hostile_configs(tmp_path):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for name, data in hostile_configs().items():
        (cdir / f"{name}.json").write_bytes(data)
    (cdir / "cusp.json").write_text(CUSP.read_text())
    summary_path = tmp_path / "summary.json"
    assert main(["corpus", str(cdir), "--summary", str(summary_path), "--quiet"]) == 1
    summary = json.loads(summary_path.read_text())
    assert summary["counts"] == {"verified": 1, "violation": 0,
                                 "invalid-input": len(hostile_configs())}


def test_corpus_config_error_reports_are_schema_valid(tmp_path):
    """A config that cannot be loaded still gets a full report, with an
    empty ``config``, and every file written passes the report schema."""
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    (cdir / "cusp.json").write_text(CUSP.read_text())
    (cdir / "malformed.json").write_text(json.dumps({"name": 5}))
    reports_dir = tmp_path / "reports"
    assert main(["corpus", str(cdir), "--reports", str(reports_dir), "--quiet"]) == 1
    written = sorted(reports_dir.glob("*.json"))
    assert [p.name for p in written] == ["cusp.json", "malformed.json"]
    reports = [read_report(p) for p in written]
    bad = reports[1]
    assert (bad["name"], bad["verdict"], bad["config"]) == ("malformed", "invalid-input", {})
    assert bad["error"]["type"] == "ConfigError"


def test_corpus_violation_wins(tmp_path, monkeypatch):
    monkeypatch.setattr(checkers, "check_master_inequality",
                        lambda data: forced_fail("master_inequality"))
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    (cdir / "good.json").write_text(CUSP.read_text())
    (cdir / "broken.json").write_text(json.dumps({"name": "broken"}))
    assert main(["corpus", str(cdir), "--quiet"]) == 2


def test_corpus_empty_directory(tmp_path, capsys):
    assert main(["corpus", str(tmp_path), "--quiet"]) == 1
    assert "error" in capsys.readouterr().err


def test_corpus_parallel_byte_identity(tmp_path):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for name in ("cusp.json", "depth_zero.json", "regular_d1.json"):
        (cdir / name).write_text((CORPUS_DIR / name).read_text())
    seq_sum, par_sum = tmp_path / "seq.json", tmp_path / "par.json"
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    assert main(["corpus", str(cdir), "--summary", str(seq_sum),
                 "--reports", str(seq_dir), "--quiet"]) == 0
    assert main(["corpus", str(cdir), "--jobs", "4", "--summary", str(par_sum),
                 "--reports", str(par_dir), "--quiet"]) == 0
    assert seq_sum.read_bytes() == par_sum.read_bytes()
    for name in ("cusp.json", "depth_zero.json", "regular_d1.json"):
        assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()


def test_corpus_jobs_capped_at_config_count(tmp_path, monkeypatch):
    """The pool never asks for more workers than there are configs, since
    the fork start method starts all of them up front."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for name in ("cusp.json", "regular_d1.json"):
        (cdir / name).write_text((CORPUS_DIR / name).read_text())
    assert main(["corpus", str(cdir), "--jobs", "64", "--quiet"]) == 0
    assert asked == [2]


def test_cli_import_leaves_the_pool_unloaded():
    """Only ``corpus --jobs`` above 1 uses a process pool, so importing the
    command line loads no multiprocessing machinery."""
    code = ("import sys, filtra.cli; "
            "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


def test_cli_import_loads_no_introspection():
    """The records are NamedTuples and the schemas are read beside the
    package's files, so importing the command line loads neither
    ``dataclasses``, with its ``inspect``, nor ``importlib.resources``; and
    only the reduction search imports ``random``.  ``-S`` keeps site hooks
    from importing them first."""
    code = ("import sys, filtra.cli; "
            "loaded = {'dataclasses', 'inspect', 'importlib.resources', 'random'}"
            " & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


def test_cli_import_loads_no_hashlib():
    """Only the benchmark's trace reads ``GroebnerBasis.fingerprint``, which
    imports ``hashlib`` when read, so importing the command line does not."""
    code = ("import sys, filtra.cli; "
            "assert 'hashlib' not in sys.modules, 'hashlib imported'")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


def test_cli_import_loads_no_pathlib():
    """Only the commands that read or write files import ``pathlib``, so
    importing the command line does not."""
    code = ("import sys, filtra.cli; "
            "assert 'pathlib' not in sys.modules, 'pathlib imported'")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_one(tmp_path, capsys, jobs):
    (tmp_path / "cusp.json").write_text(CUSP.read_text())
    assert main(["corpus", str(tmp_path), "--jobs", jobs, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --jobs")
    assert captured.out == ""


# -- schema subcommand and config validation -------------------------------

def test_schema_subcommand(capsys):
    assert main(["schema", "config"]) == 0
    config_schema = json.loads(capsys.readouterr().out)
    assert config_schema["$schema"].endswith("2020-12/schema")
    assert main(["schema", "report"]) == 0
    report_schema = json.loads(capsys.readouterr().out)
    assert "verdict" in report_schema["required"]


def test_config_semantic_errors():
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=["not_a_check"]))
    with pytest.raises(ConfigError):
        parse_config(base_config(filtration={
            "kind": "explicit",
            "stages": {"1": ["x", "y"], "3": ["x^3"]}}))
    with pytest.raises(ConfigError):
        parse_config(base_config(filtration={
            "kind": "adic",
            "stages": {"1": ["x", "y"], "2": ["x^2"]}}))
    with pytest.raises(ConfigError):
        parse_config(base_config(horizon=3))


def test_explicit_stage_validation():
    """``parse_config`` is the one check of a stage table."""
    with pytest.raises(ConfigError, match="must include stage 1"):
        parse_config(base_config(filtration={
            "kind": "explicit", "stages": {"2": ["x^2"]}}))
    with pytest.raises(ConfigError, match="consecutive from 1"):
        parse_config(base_config(filtration={
            "kind": "explicit", "stages": {"1": ["x", "y"], "3": ["x^3"]}}))
    # a name too long for int() is refused, not a traceback
    with pytest.raises(ConfigError, match="consecutive from 1"):
        parse_config(base_config(filtration={
            "kind": "explicit", "stages": {"1": ["x", "y"], "1" + "0" * 5000: ["x"]}}))


@pytest.mark.parametrize("stages", [{"1": ["x", "y"], "1\n": ["x"]},
                                    {"1\n": ["x", "y"]}])
def test_stage_name_with_a_newline_is_refused(tmp_path, capsys, stages):
    """The schema's stage-name pattern refuses "1\\n", which Python's ``$``
    alone would let through; read as stage 1 it would silently replace or
    rename a declared stage."""
    cfg = base_config(filtration={"kind": "explicit", "stages": stages})
    with pytest.raises(ConfigError, match=re.escape(repr("1\n"))):
        parse_config(cfg)
    assert main(["verify", write_config(tmp_path, cfg), "--quiet"]) == 1
    assert repr("1\n") in capsys.readouterr().err


@pytest.mark.parametrize("over, name", [
    ({"ring": {"variables": ["x\n", "y"], "relations": ["y^2 - x^3"]}}, "x\n"),
    ({"field": "q\n"}, "q\n"),
    ({"field": "fp:7\n"}, "fp:7\n"),
])
def test_names_with_a_newline_are_refused(tmp_path, capsys, over, name):
    """The schema's patterns refuse a variable "x\\n" and a field "q\\n" or
    "fp:7\\n", which Python's ``$`` alone would let through; the variable
    would then fail as an unknown variable 'x', and the field as a bare
    ValueError."""
    cfg = base_config(**over)
    with pytest.raises(ConfigError, match=re.escape(repr(name))):
        parse_config(cfg)
    assert main(["verify", write_config(tmp_path, cfg), "--quiet"]) == 1
    assert repr(name) in capsys.readouterr().err


STAGE_NAMES = st.builds(lambda digits, newline: digits + newline,
                        st.text("0123456789", min_size=1, max_size=2),
                        st.sampled_from(["", "", "\n"]))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(STAGE_NAMES, st.just(["x", "y"]), min_size=1, max_size=4),
       st.sampled_from(["adic", "ratliff_rush", "explicit"]))
@example({"1": ["x", "y"], "2": ["x", "y"]}, "explicit")
@example({"1\n": ["x", "y"]}, "adic")
def test_accepted_stage_tables_echo_their_names(stages, kind):
    try:
        cfg = parse_config(base_config(filtration={"kind": kind, "stages": stages}))
    except ConfigError:
        return
    assert set(cfg.canonical()["filtration"]["stages"]) == set(stages)


def test_config_defaults_echo():
    cfg = parse_config(base_config())
    echo = cfg.canonical()
    assert echo["horizon"] == 8
    assert echo["power_bound"] == 2
    assert echo["checks"] == "all"
    assert echo["strict"] is False
    assert echo["reduction"] == {"generators": ["x"]}


def test_config_search_echo():
    cfg = parse_config(base_config(reduction={"search": {"seed": 3}}))
    echo = cfg.canonical()
    assert echo["reduction"]["search"]["seed"] == 3
    assert echo["reduction"]["search"]["attempts"] == 60


def test_integral_floats_run_as_ints(tmp_path):
    """JSON Schema counts 8.0 as an integer, so a config may write one
    where an int is meant; the job runs, and reports, as with the int."""
    search = {"seed": 5, "attempts": 40}
    with_ints = base_config(power_bound=2, reduction={"search": search})
    with_floats = base_config(horizon=8.0, power_bound=2.0, reduction={
        "search": {k: float(v) for k, v in search.items()}})
    texts = []
    for name, cfg in (("ints", with_ints), ("floats", with_floats)):
        out = tmp_path / f"{name}.report.json"
        assert main(["verify", write_config(tmp_path, cfg, f"{name}.json"),
                     "--report", str(out), "--quiet"]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    cdir, reports = tmp_path / "corpus", tmp_path / "reports"
    cdir.mkdir()
    write_config(cdir, with_floats)
    assert main(["corpus", str(cdir), "--reports", str(reports), "--quiet"]) == 0
    assert (reports / "job.json").read_bytes() == texts[0]


def _readme_config_rows() -> dict:
    """The README configuration table, as {key: meaning}."""
    text = (PKG_ROOT / "README.md").read_text()
    table = text.split("## Configuration", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        key, meaning = line.strip("|").split("|", 1)
        rows[key.strip().strip("`")] = meaning
    return rows


def test_readme_config_table_matches_schema():
    """The README names exactly the schema's keys, nested objects by their
    dotted keys, and every literal value its field row shows is accepted."""
    want = set()
    for key, sub in config_schema()["properties"].items():
        if "properties" in sub:
            want |= {f"{key}.{k}" for k in sub["properties"]}
        else:
            want.add(key)
    rows = _readme_config_rows()
    assert set(rows) == want
    literals = [json.loads(t) for t in re.findall(r"`([^`]*)`", rows["field"])
                if t[:1] in ('"', "{", "[")]
    assert literals
    for value in literals:
        assert parse_config(base_config(field=value)).field_descriptor == value


def _cap_names() -> dict:
    """Each subclass of ``CapReached`` in filtra, by name, with the cap
    names its raise sites pass as the witness: the string literal next to
    the constant of that name, as in ``raise X(msg, "HARD_CAP", HARD_CAP)``."""
    for info in pkgutil.iter_modules(filtra.__path__):
        importlib.import_module(f"filtra.{info.name}")
    classes, todo = {}, [ideals.CapReached]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("filtra."):
                classes[sub.__name__] = set()
                todo.append(sub)
    for path in (PKG_ROOT / "src" / "filtra").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in classes):
                args = node.args
                classes[node.func.id] |= {
                    a.value for a, b in zip(args, args[1:])
                    if isinstance(a, ast.Constant) and isinstance(b, ast.Name)
                    and a.value == b.id}
    return classes


def test_readme_exit_code_row_names_every_cap():
    """The exit-code row names each hard cap's error class and constant,
    and counts the caps, so a cap added or deleted without the README
    fails here."""
    text = (PKG_ROOT / "README.md").read_text()
    row = next(line for line in text.splitlines() if line.startswith("| 1 |"))
    caps = _cap_names()
    assert caps
    for name, constants in caps.items():
        assert len(constants) == 1, name
        assert f"`{name}`" in row, name
        assert f"`{constants.pop()}`" in row, name
    words = ["one", "two", "three", "four", "five", "six", "seven", "eight"]
    count = re.search(r"one of the (\w+) caps", row).group(1)
    assert words.index(count) + 1 == len(caps)


# -- strict mode -----------------------------------------------------------

def test_strict_warning_unit():
    ring = LocalRing(("x", "y"))
    filt = Filtration(ring, EXPLICIT, {1: ["x", "y"]})
    narrow = reduction_system(ring, ["x^2", "y^2"])
    warnings = _strict_warnings(filt, narrow, 8)
    assert len(warnings) == 1 and "never becomes exact" in warnings[0]
    wide = reduction_system(ring, ["x", "y"])
    assert _strict_warnings(filt, wide, 8) == []
    assert _strict_warnings(Filtration(ring, ADIC, {1: ["x", "y"]}), narrow, 8) == []


def test_strict_run_clean(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", str(CORPUS_DIR / "sally_rr_equality.json"),
                 "--report", str(out), "--quiet"])
    assert code == 0
    report = read_report(out)
    assert report["config"]["strict"] is True
    assert report["strict_warnings"] == []
