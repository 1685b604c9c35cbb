"""Tests of the benchmark itself: inputs, oracles and the layer trace.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from run import Bench  # noqa: E402
from filtra import config, report  # noqa: E402

GENERATED = ("monomial_adic", "curves")


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_jobs(workload):
    a = workloads.make_jobs(workload, 7, ROOT)
    b = workloads.make_jobs(workload, 7, ROOT)
    c = workloads.make_jobs(workload, 8, ROOT)
    assert [j.text for j in a] == [j.text for j in b]
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(c)


def test_corpus_ignores_seed():
    a = workloads.make_jobs("corpus", 1, ROOT)
    b = workloads.make_jobs("corpus", 2, ROOT)
    assert len(a) == 13
    assert workloads.digest(a) == workloads.digest(b)


@pytest.mark.parametrize("workload", GENERATED)
@pytest.mark.parametrize("seed", range(5))
def test_generated_configs_parse(workload, seed):
    for job in workloads.make_jobs(workload, seed, ROOT):
        cfg = config.parse_config(json.loads(job.text))
        assert cfg.name == job.name


def test_lattice_count_of_known_powers():
    # (x^2, xy, y^2)^n = m^(2n) has colength n(2n+1); the parameter ideal
    # (x^3, y^3) has l(A/Q^n) = e_0(Q) C(n+1, 2) = 9 n(n+1)/2
    assert oracles.monomial_colengths([(2, 0), (1, 1), (0, 2)], 2, 4) == \
        [n * (2 * n + 1) for n in range(5)]
    assert oracles.monomial_colengths([(3, 0), (0, 3)], 2, 3) == [0, 9, 27, 54]
    assert oracles.monomial_colengths([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 3) == \
        [0, 1, 4, 10]


def _cheap(jobs, count):
    """The jobs with the fewest characters, which are the quickest ones."""
    return sorted(jobs, key=lambda j: (len(j.text), j.name))[:count]


def _check_all(workload, jobs):
    oracle = oracles.make_oracle(workload, jobs, ROOT)
    for job in jobs:
        cfg = (config.load_config(job.path) if job.path
               else config.parse_config(json.loads(job.text)))
        rep = report.run_job(cfg)
        assert oracle(job, rep, report.to_json(rep)) is None, job.name
    return oracle


@pytest.mark.parametrize("workload", GENERATED)
def test_oracles_agree_with_filtra(workload):
    jobs = _cheap(workloads.make_jobs(workload, 3, ROOT), 3)
    _check_all(workload, jobs)


def test_corpus_oracle_agrees_and_catches_a_wrong_report():
    jobs = [j for j in workloads.make_jobs("corpus", 0, ROOT)
            if j.name in ("cusp", "regular_d1")]
    oracle = _check_all("corpus", jobs)
    cusp = jobs[0]
    rep = report.run_job(config.load_config(cusp.path))
    rep["numbers"]["boundary"]["gap"] += 1
    assert oracle(cusp, rep, report.to_json(rep)) is not None


def test_oracles_catch_wrong_lengths():
    for workload in GENERATED:
        job = _cheap(workloads.make_jobs(workload, 3, ROOT), 1)[0]
        oracle = oracles.make_oracle(workload, [job], ROOT)
        rep = report.run_job(config.parse_config(json.loads(job.text)))
        rep["numbers"]["lengths_reduction"][1] += 1
        assert oracle(job, rep, report.to_json(rep)) is not None


@pytest.fixture(scope="module")
def corpus_passes():
    """One untraced and one traced pass over the corpus."""
    jobs = workloads.make_jobs("corpus", 0, ROOT)
    bench = Bench(jobs, oracles.make_oracle("corpus", jobs, ROOT))
    _, _, plain = bench.run_pass()
    tracer = layers.Tracer()
    with tracer:
        _, _, traced = bench.run_pass()
    return bench, plain, traced, tracer


def test_every_boundary_is_called_on_corpus(corpus_passes):
    _, _, _, tracer = corpus_passes
    missed = [name for name, (calls, _, _) in tracer.snapshot().items() if calls == 0]
    assert missed == []


def test_traced_reports_are_byte_identical(corpus_passes):
    bench, plain, traced, _ = corpus_passes
    assert bench.failures == []
    assert bench.attempted == 26
    assert plain == traced


def test_tracer_restores_every_binding(corpus_passes):
    import filtra.checkers
    import filtra.groebner
    import filtra.ideals
    from filtra.ideals import IdealHandle
    for fn in (filtra.groebner.groebner_basis, filtra.ideals.groebner_basis,
               filtra.checkers.check_fit_stability, IdealHandle.colon,
               report.to_json, config.load_config):
        assert not hasattr(fn, "__wrapped__"), fn


def test_self_time_never_exceeds_total(corpus_passes):
    _, _, _, tracer = corpus_passes
    for name, (calls, total, self_s) in tracer.snapshot().items():
        assert 0 <= self_s <= total + 1e-9, name


def test_metric_names_fit_the_benchmark_file():
    metrics = layers.layer_metrics([({n: (1, 2.0, 1.0) for n in layers.span_names()}, 1)], 0.1)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in listed["per_layer"])
    for m in listed["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]



@pytest.mark.parametrize("workload, unused", [
    ("monomial_adic", "groebner.groebner_basis.general"),
    ("curves", "groebner.groebner_basis.monomial"),
])
def test_generated_streams_keep_to_one_buchberger_path(workload, unused):
    jobs = _cheap(workloads.make_jobs(workload, 3, ROOT), 3)
    bench = Bench(jobs, oracles.make_oracle(workload, jobs, ROOT))
    tracer = layers.Tracer()
    with tracer:
        bench.run_pass()
    stats = tracer.snapshot()
    assert bench.failures == []
    assert stats["ideals.LocalRing.__init__"][0] == len(jobs)
    assert stats[unused][0] == 0

@pytest.mark.parametrize("workload", workloads.WORKLOADS + ("all",))
def test_refuses_to_run_without_the_program(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_samples_during_the_work():
    import signal
    import time
    import hostspeed
    speed = hostspeed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with speed:
        start = time.perf_counter()
        while time.perf_counter() < start + 20 * hostspeed.TICK_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for t, d in speed.samples if start < t <= end]
    assert len(inside) >= 10
    slices_s, scale = speed.measure(start, end)
    assert slices_s == pytest.approx(sum(inside))
    assert 0.05 < scale < 20

    with speed:   # shorter than a tick: scaled by the slices after it
        start = end = time.perf_counter()
    assert len(speed.samples) == hostspeed.MIN_SLICES
    slices_s, scale = speed.measure(start, end)
    assert slices_s == 0 and 0.05 < scale < 20


def test_pass_times_share_one_scale():
    jobs = _cheap(workloads.make_jobs("curves", 3, ROOT), 2)
    bench = Bench(jobs, oracles.make_oracle("curves", jobs, ROOT))
    pass_s, times, _ = bench.run_pass()
    assert bench.scales[-1] > 0
    assert pass_s == pytest.approx(sum(times))
    assert pass_s == pytest.approx(bench.wall_passes[-1] * bench.scales[-1])
    bench.run_pass(sampled=False)
    assert bench.scales[-1] == pytest.approx(bench.scale)
