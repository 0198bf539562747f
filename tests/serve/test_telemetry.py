"""End-to-end serving telemetry: stats reconciliation, SLOs and stitched
cross-process traces.

The heavyweight fixture starts one real server (fork-pool worker,
``trace_sample=1`` so every query is traced) and replays a small
duplicate-heavy stream through the public protocol; the assertions then
check the three tentpole invariants:

* the ``stats`` payload schema-validates, and its tier counts (read from
  the cumulative latency histograms) equal the answers the client saw;
* every sampled query's spans form **one connected tree** under its
  trace id, and computed queries' trees span both the server process and
  the pool worker (pid count > 1);
* with sampling off the server keeps no spans at all, and with sampling
  on it keeps only the sampled queries' spans.
"""

import json
from collections import Counter

import pytest

from repro.fuzz.loadgen import generate_stream, run_stream
from repro.obs.export import (
    spans_for_trace,
    stitch_summary,
    validate_trace,
    validate_trace_tree,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServeClient
from repro.serve.server import (
    TELEMETRY_SCHEMA,
    TIERS,
    QueryServer,
    ServerThread,
    validate_stats,
)
from tests.obs.test_metrics import FakeClock


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced server run: (loadgen report, stats, health, events)."""
    store = str(tmp_path_factory.mktemp("telemetry") / "store")
    stream = generate_stream(7, 16, mix="workloads", smoke=True)
    with ServerThread(workers=1, store_dir=store, trace_sample=1) as st:
        report = run_stream(st.host, st.port, stream, seed=7)
        with ServeClient(st.host, st.port) as client:
            stats = client.stats()
            health = client.health()
            trace = client.trace()
        events = st.server.session.tracer.events()
    return report, stats, health, trace, events


class TestStatsContract:
    def test_stats_schema_validates(self, traced_run):
        _, stats, _, _, _ = traced_run
        assert validate_stats(stats) == []

    def test_tiers_count_the_responses(self, traced_run):
        # Tier counts are read back from the cumulative latency histograms:
        # they must equal the answers the client saw from each tier.
        report, stats, _, _, _ = traced_run
        seen = Counter(r["tier"] for r in report["responses"])
        assert stats["tiers"] == {tier: seen[tier] for tier in TIERS}
        assert stats["answered"] == report["queries"]

    def test_rates_are_window_counts_over_window_s(self):
        clock = FakeClock(0.0)
        server = QueryServer()
        server.session.metrics = MetricsRegistry(clock=clock)
        for tier, n in (("memory", 120), ("computed", 30)):
            for _ in range(n):
                server.session.metrics.observe("serve.latency", 0.01, tier=tier)
        clock.now = 30.0
        for _ in range(6):
            server.session.metrics.observe("serve.latency", 0.01, tier="store")
        assert server.describe()["rates_qps"] == {
            "serve.rate{tier=computed}": 30 / 60.0,
            "serve.rate{tier=memory}": 120 / 60.0,
            "serve.rate{tier=store}": 6 / 60.0,
        }
        clock.now = 75.0  # the t=0 slice has left the 60 s window
        stats = server.describe()
        assert stats["rates_qps"] == {
            "serve.rate{tier=computed}": 0.0,
            "serve.rate{tier=memory}": 0.0,
            "serve.rate{tier=store}": 6 / 60.0,
        }
        assert stats["tiers"] == {
            "memory": 120, "dedup": 0, "store": 6, "computed": 30,
        }

    def test_latency_sections_present_for_active_tiers(self, traced_run):
        _, stats, _, _, _ = traced_run
        for tier, count in stats["tiers"].items():
            if count:
                entry = stats["latency"][tier]
                assert entry["total"]["count"] == count
                assert entry["total"]["p95"] >= entry["total"]["p50"]

    def test_health_is_cheap_slo_view(self, traced_run):
        _, stats, health, _, _ = traced_run
        assert health["state"] in ("ok", "warn", "breach")
        assert health["answered"] == stats["answered"]
        assert {s["name"] for s in health["specs"]} == {
            s["name"] for s in stats["slo"]["specs"]
        }

    def test_loadgen_report_carries_telemetry(self, traced_run):
        report, _, _, _, _ = traced_run
        assert report["latency_s"]["p999"] >= report["latency_s"]["p99"]
        assert set(report["tiers_latency_s"]) <= set(TIERS) | {"unknown"}
        total = sum(
            s["count"] for s in report["tiers_latency_s"].values()
        )
        assert total == report["queries"]
        assert report["server_slo"]["state"] in ("ok", "warn", "breach")


class TestStitchedTraces:
    def test_every_sampled_query_is_one_connected_tree(self, traced_run):
        _, _, _, _, events = traced_run
        summary = stitch_summary(events)
        assert summary, "trace_sample=1 produced no sampled traces"
        for trace_id, info in summary.items():
            assert info["connected"], (trace_id, info)
            assert info["roots"] == ["serve.query"], info

    def test_computed_queries_span_server_and_worker(self, traced_run):
        _, stats, _, _, events = traced_run
        summary = stitch_summary(events)
        cross = [t for t, info in summary.items() if len(info["pids"]) > 1]
        # Every unique digest was computed once in the fork pool; its
        # sampled trace must contain worker-side spans (other pid).
        assert len(cross) >= stats["tiers"]["computed"] > 0

    def test_tier_spans_nest_under_the_query_span(self, traced_run):
        _, _, _, _, events = traced_run
        summary = stitch_summary(events)
        cross = next(t for t, i in summary.items() if len(i["pids"]) > 1)
        spans = spans_for_trace(events, cross)
        paths = {tuple(ev["path"]) for ev in spans}
        assert ("serve.query",) in paths
        assert ("serve.query", "serve.compute") in paths
        assert (
            "serve.query",
            "serve.compute",
            "serve.worker.execute",
        ) in paths
        assert validate_trace_tree(spans) == []

    def test_trace_op_exports_valid_chrome_json(self, traced_run):
        _, _, _, trace, _ = traced_run
        assert validate_trace(trace) == []
        stamped = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("args", {}).get("trace_id")
        ]
        assert stamped
        json.dumps(trace)  # the wire payload must be JSON-safe

    def test_trace_op_filters_by_id(self, traced_run):
        _, _, _, trace, events = traced_run
        some_id = next(iter(stitch_summary(events)))
        with_filter = [
            e
            for e in trace["traceEvents"]
            if e.get("args", {}).get("trace_id") == some_id
        ]
        assert with_filter


class TestDisabledPath:
    def test_unsampled_server_stamps_nothing(self):
        stream = generate_stream(3, 4, mix="workloads", smoke=True)
        with ServerThread(workers=0, trace_sample=0) as st:
            run_stream(st.host, st.port, stream, seed=3)
            events = st.server.session.tracer.events()
            stats = st.describe()
        assert all(ev.get("trace_id") is None for ev in events)
        assert validate_stats(stats) == []
        assert stats["counters"].get("serve.trace.sampled", 0) == 0

    def test_unsampled_server_keeps_no_spans(self, tmp_path):
        # A cold run computes and fills the store; a restarted server then
        # answers the same stream from the store and the memory tier.
        stream = generate_stream(4, 6, mix="workloads", smoke=True)
        for phase in ("cold", "warm"):
            with ServerThread(workers=0, store_dir=str(tmp_path)) as st:
                report = run_stream(st.host, st.port, stream, seed=4)
                assert len(st.server.session.tracer) == 0, phase
            if phase == "warm":
                assert report["tiers"]["store"] > 0

    def test_sampled_server_keeps_only_sampled_spans(self):
        stream = generate_stream(6, 8, mix="workloads", smoke=True)
        with ServerThread(workers=0, trace_sample=2) as st:
            report = run_stream(st.host, st.port, stream, seed=6)
            events = st.server.session.tracer.events()
        sampled = {r["trace_id"] for r in report["responses"] if "trace_id" in r}
        assert 0 < len(sampled) < len(stream)
        assert {ev["trace_id"] for ev in events if "trace_id" in ev} <= sampled
        workers = [ev for ev in events if ev["name"] == "serve.worker.execute"]
        untagged = [ev for ev in events if "trace_id" not in ev]
        assert untagged
        for ev in untagged:
            # A batch span, and the batch ran at least one sampled query.
            assert ev["name"] == "serve.batch.run"
            start, end = ev["ts_ns"], ev["ts_ns"] + ev["dur_ns"]
            assert any(start <= w["ts_ns"] <= end for w in workers)


class TestTelemetryDoc:
    def test_periodic_record_schema(self):
        stream = generate_stream(5, 4, mix="workloads", smoke=True)
        with ServerThread(workers=0) as st:
            run_stream(st.host, st.port, stream, seed=5)
            doc = st.server.telemetry_doc()
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["answered"] == 4
        assert set(doc["tiers"]) == set(TIERS)
        assert doc["slo"]["state"] in ("ok", "warn", "breach")
        json.dumps(doc)
