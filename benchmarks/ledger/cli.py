"""Command line.

One workload, in this process (the form ``BENCHMARK.json``'s command takes)::

    python3 benchmarks/ledger/__main__.py --workload fig9-sweep --seed 0 \\
        --seconds 20 --trace 0

prints ``workload metric value unit`` lines and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and the ``BENCHMARK.json``
metrics of the run (end-to-end untraced, per-layer traced).  Subcommands:

* ``run --seed S --out FILE [--traced] [--workloads ...]`` -- every
  workload in a fresh child process, one JSON document;
* ``compare A/ B/`` -- paired verdicts over two directories of documents;
* ``update-golden`` -- rewrite ``golden.json`` from the current commit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional

from benchmarks.ledger.core import (
    BATCH_WORKLOADS,
    GOLDEN_PATH,
    MAIN,
    ROOT,
    RUN_DIR,
    WORKLOADS,
    Report,
    load_golden,
    load_spec,
    median,
    time_import_start,
)

#: What a batch user's process imports before its first simulation.
BATCH_IMPORTS = "import repro.cli, repro.experiments.fig9, repro.serve.query"
SETUP_SPAWNS = 5
SMOKE_SETUP_SPAWNS = 3
SMOKE_SECONDS = 3.0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = {"run": run_main, "compare": compare_main, "update-golden": golden_main}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return workload_main(argv)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def workload_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="run one ledger workload in this process "
        "(subcommands: run, compare, update-golden)",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="serve phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="test scale, short phases")
    parser.add_argument("--out", default=None, metavar="FILE", help="write the run document")
    parser.add_argument("--golden", default=GOLDEN_PATH, metavar="FILE")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])

    report = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.golden)
    for name, metric in report.metrics.items():
        print(f"{report.workload} {name} {metric['value']!r} {metric['unit']}")
    for line in report.errors + report.invalid:
        print(f"{report.workload}: {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_doc(), fh, indent=1)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    missing = [name for name in wanted if name not in report.metrics]
    if missing:
        print(f"{report.workload}: missing metrics {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: report.metrics[name] for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if report.correct else 1


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool, golden_path: str
) -> Report:
    """Set-up probes, then the workload itself in this (fresh) process."""
    from benchmarks.ledger.spans import SpanRecorder

    batch = workload in BATCH_WORKLOADS
    if batch:
        from benchmarks.ledger.batch import run_batch

        probe = functools.partial(time_import_start, BATCH_IMPORTS)
    else:
        from benchmarks.ledger.serve import run_serve, time_server_start

        probe = time_server_start
    setup_s = median(probe() for _ in range(SMOKE_SETUP_SPAWNS if smoke else SETUP_SPAWNS))

    report = Report(workload=workload, seed=seed, traced=traced)
    rec = SpanRecorder(traced)
    if batch:
        run_batch(report, rec, smoke, load_golden(golden_path))
        # ru_maxrss is in KiB on Linux.
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    else:
        run_serve(report, rec, seconds, smoke)
    report.add("setup_s", setup_s, "s")
    if report.attempted:
        report.add("error_rate", report.failed / report.attempted, "fraction")
    if traced:
        os.makedirs(RUN_DIR, exist_ok=True)
        path = os.path.join(RUN_DIR, f"trace-{workload}-seed{seed}.json")
        rec.write_chrome_trace(path)
        report.info["chrome_trace"] = os.path.relpath(path, ROOT)
    return report


# ----------------------------------------------------------------------
# run: every workload in a fresh child
# ----------------------------------------------------------------------
def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--traced", action="store_true", help="also run each workload traced")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--smoke", action="store_true", help="test scale, short phases")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else load_spec()["run_seconds"]

    os.makedirs(RUN_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RUN_DIR)
    workloads = {}
    status = 0
    try:
        for workload in args.workloads:
            for trace in (0, 1) if args.traced else (0,):
                out = os.path.join(scratch, f"{workload}-{trace}.json")
                cmd = [
                    sys.executable, MAIN, "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--out", out,
                ] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
                status = status or proc.returncode
                if os.path.exists(out):
                    with open(out) as fh:
                        doc = json.load(fh)
                    workloads.setdefault(workload, {})["traced" if trace else "untraced"] = doc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(
            {"seed": args.seed, "smoke": args.smoke, "seconds": seconds, "workloads": workloads},
            fh,
            indent=1,
        )
    return 1 if status else 0


# ----------------------------------------------------------------------
# compare / update-golden
# ----------------------------------------------------------------------
def compare_main(argv: List[str]) -> int:
    from benchmarks.ledger.compare import RefusedError, compare, load_runs, render

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare")
    parser.add_argument("parent", help="directory of run documents (A)")
    parser.add_argument("change", help="directory of run documents (B)")
    args = parser.parse_args(argv)
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change), load_spec())
    except RefusedError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 0


def golden_main(argv: List[str]) -> int:
    from benchmarks.ledger.batch import update_golden

    argparse.ArgumentParser(
        prog="python -m benchmarks.ledger update-golden",
        description="rewrite golden.json from this commit's answers",
    ).parse_args(argv)
    update_golden(GOLDEN_PATH)
    return 0
