"""Direct runs through each layer's public entry point, and their metrics.

One direct run is what :func:`repro.serve.query.execute_query` does, split
at the layer boundaries so each call gets its own span: build the program,
compile it, plan it under the strategy, (traced runs only) fetch every
launch's trace, and run the simulator.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import List, Sequence, Tuple

from repro.compiler.passes import compile_program
from repro.engine.resultio import run_to_doc
from repro.engine.result_store import ResultStore
from repro.engine.simulator import Simulator
from repro.experiments.runner import strategy_by_name
from repro.serve.query import (
    Query,
    build_query_program,
    execute_query,
    query_digest,
    resolve_topology,
)

from benchmarks.ledger.core import RUN_DIR, Report, median
from benchmarks.ledger.spans import SpanRecorder, span_cost_s

try:  # optional: a later change may remove the host caches
    from repro.engine.trace_cache import default_trace_cache
except ImportError:  # pragma: no cover
    default_trace_cache = None
try:
    from repro.engine.walk_memo import default_walk_memo
except ImportError:  # pragma: no cover
    default_walk_memo = None

#: (layer span name, whether its call count is reported as ``<name>.calls``)
LAYER_SPANS = (
    ("workloads.build", True),
    ("compiler.compile", True),
    ("strategies.plan", True),
    ("engine.trace", False),
    ("engine.run", True),
)


class Layers:
    """Runs queries directly, recording layer spans and engine-cache counters.

    ``prefetch`` (traced runs) fetches each launch's trace through
    ``default_trace_cache().get`` before ``Simulator.run``, so trace
    building is timed apart from the walk; ``Simulator.run`` then hits.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.prefetch = rec.enabled and default_trace_cache is not None
        self.reuse_hits = 0
        self.l2_requests = 0
        self._cache0 = default_trace_cache().stats() if default_trace_cache else None
        self._memo0 = default_walk_memo().stats() if default_walk_memo else None

    def run(self, query: Query, op: int, compiled=None) -> Tuple[object, object, float]:
        """One direct run: ``(RunResult, compiled program, host seconds)``.

        ``compiled`` reuses an already compiled program, as a strategy sweep
        over one workload does.
        """
        rec = self.rec
        t0 = time.perf_counter()
        with rec.span("op", op=op):
            if compiled is None:
                with rec.span("workloads.build"):
                    program = build_query_program(query)
                with rec.span("compiler.compile"):
                    compiled = compile_program(program)
            _, config = resolve_topology(query)
            sim = Simulator(config, engine=query.engine)
            with rec.span("strategies.plan"):
                plan = strategy_by_name(query.strategy).plan(compiled, sim.topology)
            if self.prefetch:
                with rec.span("engine.trace"):
                    self._prefetch(compiled, plan, config)
            with rec.span("engine.run"):
                result = sim.run(compiled, plan)
        seconds = time.perf_counter() - t0
        self.l2_requests += sum(k.l2_requests for k in result.kernels)
        return result, compiled, seconds

    def _prefetch(self, compiled, plan, config) -> None:
        cache = default_trace_cache()
        hits = cache.hits
        for index, lp in enumerate(plan.launches):
            cache.get(lp.launch, (compiled.program, index), plan.space, config.l2.sector_bytes)
        self.reuse_hits += cache.hits - hits

    def add_metrics(self, report: Report, wall_s: float) -> None:
        """Per-layer self times and counts, attribution and tracing overhead."""
        times = self.rec.self_times()
        for name, with_calls in LAYER_SPANS:
            if name not in times:
                continue
            self_s, calls = times[name]
            report.add(f"{name}.self_s", self_s, "s")
            if with_calls:
                report.add(f"{name}.calls", calls, "count")
        if "engine.run" in times and self.l2_requests:
            report.add(
                "engine.run.ns_per_l2_request",
                times["engine.run"][0] / self.l2_requests * 1e9,
                "ns",
            )
        if self._cache0 is not None:
            now = default_trace_cache().stats()
            report.add("engine.trace.builds", now["builds"] - self._cache0["builds"], "count")
            report.add("engine.trace.reuse_hits", self.reuse_hits, "count")
            report.add("engine.trace_cache.bytes", now["bytes"], "B")
        if self._memo0 is not None:
            now = default_walk_memo().stats()
            for key in ("hits", "misses"):
                report.add(f"engine.walk_memo.{key}", now[key] - self._memo0[key], "count")
        ops = self.rec.durations("op")
        if ops:
            report.add("unattributed_frac", times["op"][0] / sum(ops), "fraction")
        if wall_s > 0:
            report.add(
                "tracing_overhead_frac",
                len(self.rec.spans) * span_cost_s() / wall_s,
                "fraction",
            )


def microtime_entry_points(
    report: Report,
    queries: Sequence[Query],
    results: Sequence,
    seed: int,
    execute_limit: int,
) -> None:
    """Median host time of the service-side entry points on this workload.

    ``queries[i]`` answered ``results[i]``.  ``query_digest``, the result
    codec and a fresh on-disk ``ResultStore`` are timed over all of them;
    ``execute_query`` over a seeded sample of ``execute_limit``.
    """
    if not queries:
        return
    report.add("serve.query_digest.p50_us", _p50(query_digest, queries) * 1e6, "us")
    docs: List[dict] = []
    report.add(
        "engine.resultio.encode.p50_us",
        _p50(lambda r: docs.append(run_to_doc(r)), results) * 1e6,
        "us",
    )
    store_dir = os.path.join(RUN_DIR, f"store-micro-{os.getpid()}")
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        store = ResultStore(store_dir)
        items = [(query_digest(q), d) for q, d in zip(queries, docs)]
        report.add(
            "engine.result_store.put.p50_us",
            _p50(lambda item: store.put(*item), items) * 1e6,
            "us",
        )
        report.add(
            "engine.result_store.get.p50_us",
            _p50(lambda item: store.get(item[0]), items) * 1e6,
            "us",
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    sample = random.Random(seed).sample(list(queries), min(execute_limit, len(queries)))
    report.add("engine.execute_query.p50_ms", _p50(execute_query, sample) * 1e3, "ms")


def _p50(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return median(times)
