"""The batch workloads: the Fig-9 sweep and cold one-shot runs.

Both run (workload, strategy) pairs at bench scale, serially, in this
process.  ``fig9-sweep`` is ``repro fig9``: each workload's program is built
once and shared by its five strategies, so the trace cache and walk memo
are reused.  ``oneshot-cold`` rebuilds the program for every pair, so
nothing is reused.  Every answer is checked against ``golden.json``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from repro.experiments.fig9 import FIG9_STRATEGIES, Fig9Result
from repro.experiments.runner import MatrixResult
from repro.serve.query import Query, execute_query
from repro.workloads.suite import workload_names

from benchmarks.ledger.core import (
    SMOKE_WORKLOADS,
    STRATEGIES,
    Report,
    digest_of,
    percentile,
    snapshot_sha,
)
from benchmarks.ledger.layers import Layers, microtime_entry_points
from benchmarks.ledger.spans import SpanRecorder

#: ``oneshot-cold`` gives the i-th suite workload pair ``i % 5``: a
#: locality-unaware baseline with a locality-aware (or ideal) strategy, so
#: each of the ten strategies runs on five or six workloads.  The list is
#: fixed, not drawn from the seed: rotating the pairs by seed moved this
#: workload's peak RSS between 1.18 and 1.74 GiB.
ONESHOT_PAIRS = (
    ("Baseline-RR", "Monolithic"),
    ("Batch+FT", "LASP+RONCE"),
    ("Kernel-wide", "SWZ-Hilbert"),
    ("CODA", "LASP+RTWICE"),
    ("H-CODA", "LADM"),
)

#: Shape of the bench-scale Fig-9 sweep recorded in EXPERIMENTS.md.
FIG9_SHAPE = {"speedup": 2.24, "traffic_reduction": 4.3}


def batch_ops(workload: str, smoke: bool) -> List[Query]:
    """The op list, in run order: one query per (workload, strategy) pair.

    Both lists are fixed, in Table-IV workload order; the seed does not
    change them.
    """
    scale = "test" if smoke else "bench"
    names = list(SMOKE_WORKLOADS) if smoke else workload_names()
    if workload == "fig9-sweep":
        pairs = [(w, s) for w in names for s in FIG9_STRATEGIES]
    else:
        pairs = [(w, s) for i, w in enumerate(names) for s in ONESHOT_PAIRS[i % len(ONESHOT_PAIRS)]]
    return [Query(program={"workload": w}, strategy=s, scale=scale) for w, s in pairs]


def run_batch(report: Report, rec: SpanRecorder, smoke: bool, golden: Dict) -> None:
    """Run the op list, time every op, then check every answer."""
    ops = batch_ops(report.workload, smoke)
    shared = report.workload == "fig9-sweep"
    report.info["workload_digest"] = digest_of([q.to_doc() for q in ops])
    layers = Layers(rec)
    results: Dict[int, object] = {}
    compiled_of: Dict[str, object] = {}
    latencies: List[float] = []
    cold: List[float] = []
    t0 = time.perf_counter()
    for op, query in enumerate(ops):
        name = query.program["workload"]
        report.attempted += 1
        try:
            result, compiled, seconds = layers.run(query, op, compiled_of.get(name))
        except Exception as exc:  # a raising op is a failed op; the run goes on
            report.fail(f"{name}/{query.strategy}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(seconds)
        if name not in compiled_of:
            cold.append(seconds)
        if shared:
            compiled_of[name] = compiled
        results[op] = result
    wall_s = time.perf_counter() - t0

    table = golden.get(ops[0].scale, {})
    for op, result in results.items():
        key = f"{ops[op].program['workload']}/{ops[op].strategy}"
        want = table.get(key)
        if want is None:
            report.fail(f"{key}: no golden digest")
        elif snapshot_sha(result) != want:
            report.fail(f"{key}: snapshot differs from the golden digest")

    report.add("wall_s", wall_s, "s")
    if latencies:
        report.add_latencies(latencies)
        report.add("miss_latency_p50_s", percentile(cold, 0.5), "s")
    if shared and not smoke and len(results) == len(ops):
        _report_fig9_shape(report, ops, results)
    if rec.enabled:
        layers.add_metrics(report, wall_s)
        done = sorted(results)
        microtime_entry_points(
            report, [ops[i] for i in done], [results[i] for i in done], report.seed, 6
        )


def _report_fig9_shape(report: Report, ops: List[Query], results: Dict[int, object]) -> None:
    matrix = MatrixResult(scale="bench")
    for op, result in results.items():
        matrix.results.setdefault(ops[op].program["workload"], {})[ops[op].strategy] = result
    fig9 = Fig9Result(matrix=matrix)
    shape = {
        "speedup": round(fig9.geomean_speedup("LADM"), 2),
        "traffic_reduction": round(fig9.ladm_traffic_reduction(), 1),
    }
    report.info["fig9_shape"] = shape
    print(
        f"fig9-sweep: LADM vs H-CODA {shape['speedup']:.2f}x performance, "
        f"{shape['traffic_reduction']:.1f}x traffic reduction "
        f"(EXPERIMENTS.md: {FIG9_SHAPE['speedup']:.2f}x, "
        f"{FIG9_SHAPE['traffic_reduction']:.1f}x)"
    )
    if shape != FIG9_SHAPE:
        report.invalid.append(f"Fig-9 shape {shape} != EXPERIMENTS.md {FIG9_SHAPE}")


def update_golden(path: str) -> None:
    """Record the snapshot digest of every pair a batch workload can draw.

    Answers come from ``execute_query``, the service's direct path, not
    from this benchmark's own layer-by-layer runs.
    """
    doc = {"strategies": list(STRATEGIES)}
    for scale in ("bench", "test"):
        doc[scale] = {
            f"{w}/{s}": snapshot_sha(
                execute_query(Query(program={"workload": w}, strategy=s, scale=scale))
            )
            for w in workload_names()
            for s in STRATEGIES
        }
        print(f"golden: {len(doc[scale])} {scale}-scale digests", flush=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
