"""Benchmark of filtra: closed-loop passes over one job stream.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

A pass runs every job of the workload in order, one at a time, through the
public API the CLI uses (config.load_config or config.parse_config, then
report.run_job, then report.to_json), with the in-memory Groebner cache
cleared at its start.  Every report is checked by the workload's oracle.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics with the tracing overhead.
Every time reported is scaled to a nominal host speed, measured by slices
of a fixed reference kernel run during the jobs (see hostspeed.py).  The
last line of stdout is the result as one JSON object.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 11         # fresh interpreters timed per run; the median is reported
MIN_JOB_SAMPLES = 100     # leaves at least ten job times above p90
MIN_PASSES = 3
HARD_STOP_S = 150         # no pass starts once it would end past this
CACHE_ENV_VAR = "FILTRA_CACHE_DIR"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One workload's jobs, its oracle and the failures seen so far."""

    def __init__(self, jobs, oracle):
        from filtra import config, groebner, report
        self.config, self.groebner, self.report = config, groebner, report
        self.jobs = jobs
        self.oracle = oracle
        self.attempted = 0
        self.failures = []
        self.speed = hostspeed.HostSpeed()
        self.scale = 1.0        # host-speed scale of the last sampled pass
        self.wall_passes = []   # unscaled pass seconds, for the log
        self.scales = []        # scaled over unscaled time, per pass

    def _run_job(self, job):
        config, report = self.config, self.report
        if job.path is not None:
            cfg = config.load_config(job.path)
        else:
            cfg = config.parse_config(json.loads(job.text))
        rep = report.run_job(cfg)
        return rep, report.to_json(rep)

    def run_pass(self, sampled=True):
        """Returns (pass seconds, per-job seconds, report texts).

        With ``sampled``, the host's speed is sampled during the pass and
        each job's time is scaled by the slices around it.  Without it,
        every job is scaled by the last sampled pass's scale; traced passes
        run so, because a slice would land in the self time of whatever
        layer it interrupts."""
        gc.collect()
        self.groebner.clear_cache()
        outputs, clocks = [], []
        with self.speed if sampled else contextlib.nullcontext():
            for job in self.jobs:
                start = time.perf_counter()
                try:
                    rep, text = self._run_job(job)
                except Exception as exc:   # a crash is a failed job, not a failed run
                    rep, text = None, f"{type(exc).__name__}: {exc}"
                clocks.append((start, time.perf_counter()))
                outputs.append((rep, text))
        walls, times = [], []
        for start, end in clocks:
            if sampled:
                slices_s, scale = self.speed.measure(start, end)
            else:
                slices_s, scale = 0.0, self.scale
            walls.append(end - start - slices_s)
            times.append(walls[-1] * scale)
        pass_s, wall = sum(times), sum(walls)
        if sampled:
            self.scale = pass_s / wall
        self.wall_passes.append(wall)
        self.scales.append(pass_s / wall)
        for job, (rep, text) in zip(self.jobs, outputs):
            self.attempted += 1
            reason = text if rep is None else self.oracle(job, rep, text)
            if reason is not None:
                self.failures.append(f"{job.name}: {reason}")
        return pass_s, times, [text for _, text in outputs]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class SetupProbe:
    """Times fresh interpreters that import filtra and parse and validate
    the workload's configs.  Each probe samples the host's speed itself; its
    wall time, without its slices and its sampling after the set-up, is
    scaled by them."""

    def __init__(self, jobs):
        self.payload = json.dumps([{"path": None if j.path is None else str(j.path),
                                    "text": j.text} for j in jobs])
        self.env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
        self.times = []

    def run_once(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, input=self.payload, text=True, env=self.env,
                              capture_output=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        self.times.append((wall - probe["slices_s"] - probe["after_s"]) * probe["scale"])


def p90(values) -> tuple:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _keep_going(started: float, seconds: float, last_round_s: float, enough: bool) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed + last_round_s > HARD_STOP_S:
        return False
    return elapsed < seconds or not enough


def run_untraced(bench: Bench, seconds: float) -> dict:
    # one set-up probe before each pass, so that they sample the same
    # stretch of time as the passes
    setup = SetupProbe(bench.jobs)
    passes, job_times = [], []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, last,
                      len(passes) >= MIN_PASSES and len(job_times) >= MIN_JOB_SAMPLES):
        t0 = time.perf_counter()
        if len(setup.times) < SETUP_PROBES:
            setup.run_once()
        pass_s, times, _ = bench.run_pass()
        last = time.perf_counter() - t0
        passes.append(pass_s)
        job_times.extend(times)
    while len(setup.times) < SETUP_PROBES:
        setup.run_once()
    high, above = p90(job_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"passes {len(passes)}, job samples {len(job_times)}, "
          f"{above} above p90, setup probes {len(setup.times)}, "
          f"unscaled pass_s {median(bench.wall_passes):.4f}, "
          f"host-speed scale {median(bench.scales):.4f}")
    return {
        "setup_s": (median(setup.times), "s"),
        "pass_s": (median(passes), "s"),
        "job_s.p50": (median(job_times), "s"),
        "job_s.p90": (high, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(bench: Bench, seconds: float) -> dict:
    import layers
    tracer = layers.Tracer()
    plain, traced, snapshots = [], [], []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, last, len(traced) >= 2):
        t0 = time.perf_counter()
        t_plain, _, want = bench.run_pass()
        tracer.reset()
        with tracer:
            t_traced, _, got = bench.run_pass(sampled=False)
        snapshots.append((layers.scaled(tracer.snapshot(), bench.scale),
                          len(tracer.fingerprints)))
        for job, a, b in zip(bench.jobs, want, got):
            if a != b:
                bench.failures.append(f"{job.name}: traced report differs")
        plain.append(t_plain)
        traced.append(t_traced)
        last = time.perf_counter() - t0
    overhead = median(traced) / median(plain) - 1
    print(f"pass pairs {len(traced)}, untraced pass_s {median(plain):.4f}, "
          f"traced pass_s {median(traced):.4f}")
    return layers.layer_metrics(snapshots, overhead)


def run_all(args) -> int:
    """Run every workload in its own process, one after another.  The
    result line merges theirs, with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.pop(CACHE_ENV_VAR, None)   # an inherited cache dir must not reach filtra
    src = ROOT / "src"
    if not (src / "filtra" / "__init__.py").is_file():
        print(f"error: no filtra sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import filtra
    if Path(filtra.__file__).resolve().parent != (src / "filtra").resolve():
        print(f"error: imported filtra from {filtra.__file__}", file=sys.stderr)
        return 2

    import oracles
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, ROOT)
        oracle = oracles.make_oracle(args.workload, jobs, ROOT)
    except OSError as exc:
        print(f"error: cannot read the workload's inputs: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"error: workload {args.workload} has no jobs", file=sys.stderr)
        return 2

    print("inputs " + json.dumps({
        "workload": args.workload, "seed": args.seed, "jobs": len(jobs),
        "sha256": workloads.digest(jobs), "python": platform.python_version(),
        "nproc": nproc(), "trace": args.trace}, sort_keys=True))
    bench = Bench(jobs, oracle)
    run = run_traced if args.trace else run_untraced
    metrics = run(bench, args.seconds)

    failed = len(bench.failures)
    for reason in bench.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:14.6f} {unit}")
    print(f"{'failed_frac':55s} {failed / max(bench.attempted, 1):14.6f} fraction "
          f"({failed} of {bench.attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
