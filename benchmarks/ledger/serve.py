"""The serving workloads: ``repro serve`` over TCP under open-loop load.

The server runs as ``repro serve --port 0 --workers 2 --store DIR`` in its
own session; this process is the only client, on one connection.  Queries
are sent on a seeded Poisson schedule whether or not earlier ones have
been answered, and each latency is timed from the query's due time, so a
stall is charged to every query queued behind it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.engine.resultio import run_from_doc
from repro.fuzz.loadgen import arrival_offsets, generate_stream
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.query import Query, query_digest
from repro.serve.server import TIERS

from benchmarks.ledger.core import (
    ROOT,
    RUN_DIR,
    HarnessError,
    Report,
    child_env,
    digest_of,
    percentile,
    read_first_line,
)
from benchmarks.ledger.layers import Layers, microtime_entry_points
from benchmarks.ledger.spans import SpanRecorder

#: Open-loop arrival rates.  On a 2-core host warm p99 turns up between 600
#: and 1000 qps and cold p99 between 150 and 200 qps.
COLD_RATE_QPS = 100.0
WARM_RATE_QPS = 300.0
#: Latency limits for ``slo_miss_rate``.
COLD_SLO_S = 0.250
WARM_SLO_S = 0.025
#: A run whose generator sent its p99 query later than this is invalid.
MAX_LATE_P99_S = 0.010
#: Draws of the no-duplicate stream whose unique queries fill the warm store.
WARM_PREFILL_DRAWS = 5000
SMOKE_PREFILL_DRAWS = 300
#: Direct runs that cross-check ``serve-warm`` answers (and feed its layer spans).
WARM_VERIFY_SAMPLE = 64
QUERY_TIMEOUT_S = 60.0

# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` in a new session, stopped by its ``shutdown`` op.

    ``stop`` falls back to killing the whole process group and raises
    :class:`HarnessError` if a pool worker outlives the server.
    """

    def __init__(self, store_dir: str):
        self.store_dir = store_dir
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.worker_pids: set = set()

    def start(self, timeout_s: float = 60.0) -> float:
        """Start and wait for the "listening on" line; returns seconds to ready."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", self.host, "--port", "0",
                "--workers", "2", "--store", self.store_dir,
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        line = read_first_line(self.proc, timeout_s)
        ready_s = time.perf_counter() - t0
        match = re.search(r"listening on ([^\s:]+):(\d+)", line)
        if match is None:
            raise HarnessError(f"unexpected server banner {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        return ready_s

    def _children(self) -> List[int]:
        pids = []
        for name in os.listdir("/proc"):
            if name.isdigit() and _ppid(int(name)) == self.proc.pid:
                pids.append(int(name))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its pool workers, in MiB."""
        workers = self._children()
        self.worker_pids.update(workers)
        return sum(_vm_hwm_kib(pid) for pid in [self.proc.pid] + workers) / 1024.0

    def stop(self, timeout_s: float = 30.0) -> bool:
        """Stop the server; True when the ``shutdown`` op alone sufficed."""
        if self.proc is None:
            return True
        clean = True
        self.worker_pids.update(self._children())
        if self.proc.poll() is None and self.port:
            try:
                with ServeClient(self.host, self.port, timeout_s=10.0) as client:
                    client.shutdown()
            except (OSError, ServeError):
                clean = False
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            clean = False
            _killpg(self.proc.pid)
            self.proc.wait(timeout_s)
        self.proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in self.worker_pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = sorted(p for p in self.worker_pids if _alive(p))
        if survivors:
            _killpg(self.proc.pid)
            raise HarnessError(f"pool workers {survivors} survived the server")
        return clean


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    return data[data.rindex(")") + 2:].split()  # after "pid (comm) "


def _ppid(pid: int) -> Optional[int]:
    fields = _stat_fields(pid)
    return int(fields[1]) if fields else None


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def time_server_start() -> float:
    """Seconds from exec to "listening" for a server on an empty store."""
    os.makedirs(RUN_DIR, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=RUN_DIR)
    server = ServerProcess(store)
    try:
        return server.start()
    finally:
        server.stop()
        shutil.rmtree(store, ignore_errors=True)


# ----------------------------------------------------------------------
# The load
# ----------------------------------------------------------------------
class Phase:
    """One replay: per-query response (or error), latency and lateness."""

    def __init__(self, n: int):
        self.responses: List[Optional[Dict]] = [None] * n
        self.errors: List[Optional[str]] = [None] * n
        self.latency = [0.0] * n
        self.late = [0.0] * n
        self.wall_s = 0.0
        self.stats: Dict = {}


async def _replay(server: ServerProcess, queries: Sequence[Query], offsets: Sequence[float]) -> Phase:
    phase = Phase(len(queries))
    async with AsyncServeClient(server.host, server.port) as client:

        async def one(i: int, due: float) -> None:
            phase.late[i] = time.perf_counter() - due
            try:
                phase.responses[i] = await asyncio.wait_for(
                    client.query(queries[i]), QUERY_TIMEOUT_S
                )
            except (ServeError, OSError, asyncio.TimeoutError) as exc:
                phase.errors[i] = f"{type(exc).__name__}: {exc}"
            phase.latency[i] = time.perf_counter() - due

        tasks = []
        t0 = time.perf_counter()
        for i, offset in enumerate(offsets):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*tasks)
        phase.wall_s = time.perf_counter() - t0
        phase.stats = await client.stats()
    return phase


def replay(server: ServerProcess, queries: Sequence[Query], offsets: Sequence[float]) -> Phase:
    """Send ``queries[i]`` at ``offsets[i]`` seconds from now; wait for all.

    The client's cyclic garbage collector is paused meanwhile: with
    thousands of decoded answers alive, a full collection stalls the send
    loop for tens of milliseconds, which would be charged to the server.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_replay(server, queries, offsets))
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_serve(report: Report, rec: SpanRecorder, seconds: float, smoke: bool) -> None:
    os.makedirs(RUN_DIR, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=RUN_DIR)
    try:
        if report.workload == "serve-cold":
            _serve_cold(report, rec, seconds, smoke, store)
        else:
            _serve_warm(report, rec, seconds, smoke, store)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def _timed_phase(store: str, queries: List[Query], offsets: List[float]):
    server = ServerProcess(store)
    try:
        server.start()
        phase = replay(server, queries, offsets)
        rss_mb = server.peak_rss_mb()
    finally:
        clean = server.stop()
    return phase, rss_mb, clean


def _verify(report: Report, layers: Layers, items):
    """Recompute each ``(digest, query, served payload)`` directly.

    Returns the digests whose served answer differs (or could not be
    checked), and the verified queries with their direct results.
    """
    bad = set()
    queries, results = [], []
    for op, (digest, query, payload) in enumerate(items):
        try:
            result, _, _ = layers.run(query, op)
            if run_from_doc(payload).snapshot() != result.snapshot():
                raise ValueError("served answer differs from a direct run")
        except Exception as exc:  # a wrong or unverifiable answer fails its queries
            bad.add(digest)
            report.info.setdefault("verify_errors", []).append(f"{digest[:12]}: {exc}")
            continue
        queries.append(query)
        results.append(result)
    return bad, queries, results


def _serve_cold(report: Report, rec: SpanRecorder, seconds: float, smoke: bool, store: str) -> None:
    count = max(1, int(COLD_RATE_QPS * seconds))
    queries = generate_stream(report.seed, count, mix="mixed", dup_fraction=0.5, smoke=smoke)
    offsets = arrival_offsets(report.seed, count, COLD_RATE_QPS)
    report.info["workload_digest"] = digest_of([q.to_doc() for q in queries])
    phase, rss_mb, clean = _timed_phase(store, queries, offsets)

    # Repeated queries are the same objects, so each digest is computed once.
    digest_of_query = {id(q): query_digest(q) for q in queries}
    expected = [digest_of_query[id(q)] for q in queries]
    # Every unique answer is recomputed directly; every tier must have
    # served that same payload for it.
    first: Dict[str, int] = {}
    inconsistent = set()
    for i, response in enumerate(phase.responses):
        if response is None:
            continue
        j = first.setdefault(expected[i], i)
        if response["result"] != phase.responses[j]["result"]:
            inconsistent.add(expected[i])
    layers = Layers(rec)
    bad, checked, results = _verify(
        report, layers, [(d, queries[i], phase.responses[i]["result"]) for d, i in first.items()]
    )
    _report_phase(report, phase, expected, bad | inconsistent, rss_mb, clean, COLD_SLO_S, True)
    report.info["verified_unique"] = len(results)
    if rec.enabled:
        layers.add_metrics(report, phase.wall_s)
        microtime_entry_points(report, checked, results, report.seed, 64)


def _serve_warm(report: Report, rec: SpanRecorder, seconds: float, smoke: bool, store: str) -> None:
    draws = SMOKE_PREFILL_DRAWS if smoke else WARM_PREFILL_DRAWS
    unique: Dict[str, Query] = {}
    for query in generate_stream(report.seed, draws, mix="mixed", dup_fraction=0.0, smoke=smoke):
        unique.setdefault(query_digest(query), query)
    rng = random.Random(report.seed)
    ranked = list(unique)
    rng.shuffle(ranked)
    count = max(1, int(WARM_RATE_QPS * seconds))
    zipf = [1.0 / (k + 1) for k in range(len(ranked))]
    expected = [ranked[k] for k in rng.choices(range(len(ranked)), weights=zipf, k=count)]
    queries = [unique[d] for d in expected]
    offsets = arrival_offsets(report.seed, count, WARM_RATE_QPS)
    report.info["workload_digest"] = digest_of(
        {"prefill": [unique[d].to_doc() for d in ranked], "draws": expected}
    )

    # Untimed set-up: compute every unique answer into the store, then
    # restart so the timed server starts with an empty memory tier.
    prefill_server = ServerProcess(store)
    try:
        prefill_server.start()
        prefill = replay(prefill_server, [unique[d] for d in ranked], [0.0] * len(ranked))
    finally:
        prefill_server.stop()
    payloads: Dict[str, Dict] = {}
    for digest, response, error in zip(ranked, prefill.responses, prefill.errors):
        if error is not None or response["digest"] != digest:
            report.invalid.append(f"prefill of {digest[:12]} failed: {error}")
        else:
            payloads[digest] = response["result"]
    if report.invalid:
        return

    phase, rss_mb, clean = _timed_phase(store, queries, offsets)
    # Every answer must equal the prefill's; a seeded sample of those is
    # recomputed directly.
    bad = {
        d
        for d, response in zip(expected, phase.responses)
        if response is not None and response["result"] != payloads[d]
    }
    layers = Layers(rec)
    sample = rng.sample(ranked, min(WARM_VERIFY_SAMPLE, len(ranked)))
    wrong, checked, results = _verify(
        report, layers, [(d, unique[d], payloads[d]) for d in sample]
    )
    _report_phase(report, phase, expected, bad | wrong, rss_mb, clean, WARM_SLO_S, False)
    if rec.enabled:
        layers.add_metrics(report, phase.wall_s)
        microtime_entry_points(report, checked, results, report.seed, 64)


def _report_phase(
    report: Report,
    phase: Phase,
    expected: List[str],
    bad: set,
    rss_mb: float,
    clean: bool,
    slo_s: float,
    may_compute: bool,
) -> None:
    """Failures, the end-to-end latencies and the server's own counters.

    ``expected[i]`` is the client-side digest of query ``i``; answers for
    digests in ``bad`` are wrong.
    """
    ok_latency: List[float] = []
    by_tier: Dict[str, List[float]] = {tier: [] for tier in TIERS}
    server_s: List[float] = []
    over_slo = 0
    for response, error, latency, digest in zip(
        phase.responses, phase.errors, phase.latency, expected
    ):
        report.attempted += 1
        if error is not None:
            report.fail(error)
            over_slo += 1
            continue
        tier = response["tier"]
        if response["digest"] != digest:
            report.fail(f"{digest[:12]}: server digest {response['digest'][:12]} differs")
        elif digest in bad:
            report.fail(f"{digest[:12]}: wrong answer from the {tier} tier")
        elif tier == "computed" and not may_compute:
            report.fail(f"{digest[:12]}: computed on a warm store")
        over_slo += latency > slo_s
        ok_latency.append(latency)
        by_tier[tier].append(latency)
        server_s.append(response["server_s"])
    if not clean:
        report.invalid.append("server needed killpg to stop")
    late_p99 = percentile(phase.late, 0.99)
    if late_p99 > MAX_LATE_P99_S:
        report.invalid.append(f"load generator p99 lateness {late_p99 * 1e3:.1f} ms > 10 ms")

    report.add("wall_s", phase.wall_s, "s")
    report.add("peak_rss_mb", rss_mb, "MiB")
    if ok_latency:
        report.add_latencies(ok_latency)
    missed = by_tier["store"] + by_tier["computed"]
    if missed:
        report.add("miss_latency_p50_s", percentile(missed, 0.5), "s")
    report.add("slo_miss_rate", over_slo / report.attempted, "fraction")
    report.add("loadgen.late_p99_s", late_p99, "s")
    for tier, lat in by_tier.items():
        report.add(f"serve.tier.{tier}.count", len(lat), "count")
        if lat:
            report.add(f"serve.tier.{tier}.p50_s", percentile(lat, 0.5), "s")
    if server_s:
        report.add("serve.server_s.p50", percentile(server_s, 0.5), "s")
        report.add("serve.server_s.p99", percentile(server_s, 0.99), "s")
        transport = [
            lat - r["server_s"]
            for r, lat in zip(phase.responses, phase.latency)
            if r is not None
        ]
        report.add("serve.queue_transport_s.p50", percentile(transport, 0.5), "s")
    counters = phase.stats.get("counters", {})
    dispatches = counters.get("serve.batch.dispatches", 0)
    if dispatches:
        report.add("serve.batch.size_mean", counters.get("serve.batch.queries", 0) / dispatches, "count")
    if phase.stats.get("dedup_ratio") is not None:
        report.add("serve.dedup_ratio", phase.stats["dedup_ratio"], "ratio")
    for key in ("hits", "misses", "puts", "corrupt", "bytes"):
        value = (phase.stats.get("store") or {}).get(key)
        if value is not None:
            report.add(f"store.{key}", value, "B" if key == "bytes" else "count")
