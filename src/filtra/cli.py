"""Command line front end: verify one job or sweep a corpus directory.

The commands that run jobs import ``report``, and with it the algebra
engine, and ``pathlib``; importing this module, or printing a schema,
loads neither."""
from __future__ import annotations

import argparse
import sys

from .config import (ConfigError, config_schema, load_config, parse_config,
                     report_schema)


def _cmd_verify(args) -> int:
    from pathlib import Path
    from .report import EXIT_INVALID, run_job, to_json, to_markdown
    try:
        cfg = load_config(args.config)
        if args.horizon is not None:
            cfg = parse_config({**cfg.canonical(), "horizon": args.horizon}, cfg.name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = run_job(cfg)
    text = to_json(report)
    if args.report:
        Path(args.report).write_text(text)
    if args.markdown:
        Path(args.markdown).write_text(to_markdown(report))
    if args.quiet:
        print(f"{report['name']}: {report['verdict']}")
    else:
        sys.stdout.write(text)
    return report["exit_code"]


def _summarize(report: dict, filename: str) -> dict:
    numbers = report.get("numbers")
    entry = {
        "name": report["name"],
        "file": filename,
        "verdict": report["verdict"],
        "exit_code": report["exit_code"],
        "equality": None,
        "gap": None,
        "e_filtration": None,
        "e_reduction": None,
        "failed_checks": [c["name"] for c in report["checks"]
                          if c["status"] == "fail"],
    }
    if numbers:
        entry["equality"] = numbers["boundary"]["equality"]
        entry["gap"] = numbers["boundary"]["gap"]
        entry["e_filtration"] = numbers["e_filtration"]
        entry["e_reduction"] = numbers["e_reduction"]
    return entry


def _corpus_worker(path: str):
    """Top level so it pickles for the process pool."""
    from pathlib import Path
    from .report import config_error_report, run_job, to_json
    p = Path(path)
    try:
        cfg = load_config(p)
        report = run_job(cfg)
    except ConfigError as exc:
        report = config_error_report(p.stem, exc)
    return p.name, _summarize(report, p.name), to_json(report)


def _cmd_corpus(args) -> int:
    from .report import EXIT_CODES, EXIT_INVALID, to_json
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_INVALID
    from pathlib import Path
    root = Path(args.directory)
    paths = sorted(str(p) for p in root.glob("*.json"))
    if not paths:
        print(f"error: no *.json configs under {root}", file=sys.stderr)
        return EXIT_INVALID
    # the fork start method starts every worker up front, so never ask for
    # more workers than there are configs
    workers = min(args.jobs, len(paths))
    if workers > 1:
        # imported here, so that a run without a pool never loads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_corpus_worker, paths))
    else:
        results = [_corpus_worker(p) for p in paths]
    results.sort(key=lambda r: r[0])
    if args.reports:
        outdir = Path(args.reports)
        outdir.mkdir(parents=True, exist_ok=True)
        for fname, _, text in results:
            (outdir / fname).write_text(text)
    entries = [entry for _, entry, _ in results]
    counts = dict.fromkeys(EXIT_CODES, 0)
    for e in entries:
        counts[e["verdict"]] += 1
    summary = {"format": 1, "instances": entries, "counts": counts}
    text = to_json(summary)
    if args.summary:
        Path(args.summary).write_text(text)
    if not args.quiet:
        sys.stdout.write(text)
    else:
        for e in entries:
            print(f"{e['name']}: {e['verdict']}")
    # the exit codes rank the verdicts, so the worst entry decides
    return max(e["exit_code"] for e in entries)


def _cmd_schema(args) -> int:
    import json  # config has loaded it already
    schema = config_schema() if args.which == "config" else report_schema()
    # the bytes of report.to_json, written without loading the engine
    sys.stdout.write(json.dumps(schema, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtra",
        description="Verify coefficient inequalities of admissible filtrations "
                    "on Noetherian local rings, over exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one job configuration")
    v.add_argument("config", help="path to a JSON job configuration")
    v.add_argument("--report", metavar="FILE", help="write the JSON report here")
    v.add_argument("--markdown", metavar="FILE", help="write a markdown summary here")
    v.add_argument("--horizon", type=int, help="override the configured horizon")
    v.add_argument("--quiet", action="store_true", help="print only the verdict")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("corpus", help="run every *.json config in a directory")
    c.add_argument("directory")
    c.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes, at least 1; capped at the "
                        "number of configs")
    c.add_argument("--summary", metavar="FILE", help="write the summary JSON here")
    c.add_argument("--reports", metavar="DIR", help="write full per-job reports here")
    c.add_argument("--quiet", action="store_true", help="print one line per job")
    c.set_defaults(func=_cmd_corpus)

    s = sub.add_parser("schema", help="print a published JSON schema")
    s.add_argument("which", choices=["config", "report"])
    s.set_defaults(func=_cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
