"""SLO burn-rate evaluation: states, budgets and JSON safety."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOSpec, default_serve_slos, evaluate


def _metrics_with(values, tier="computed"):
    reg = MetricsRegistry(enabled=True)
    for v in values:
        reg.observe("serve.latency", v, tier=tier)
    return reg.snapshot()


P95 = SLOSpec(
    name="p95",
    kind="latency_quantile",
    metric="serve.latency{tier=computed}",
    threshold=1.0,
    quantile=0.95,
)


class TestLatencyQuantile:
    def test_empty_window_is_ok(self):
        doc = evaluate([P95], _metrics_with([]))
        assert doc["state"] == "ok"
        assert doc["specs"][0]["detail"] == "no samples in window"

    def test_within_budget_is_ok(self):
        # 2% of samples above a p95 ceiling spends 40% of the 5% budget.
        doc = evaluate([P95], _metrics_with([0.1] * 98 + [5.0] * 2))
        spec = doc["specs"][0]
        assert spec["state"] == "ok"
        assert spec["burn"] == pytest.approx(0.4)

    def test_budget_overrun_warns_then_breaches(self):
        # 7% violating = burn 1.4 -> warn; 30% = burn 6.0 -> breach.
        warn = evaluate([P95], _metrics_with([0.1] * 93 + [5.0] * 7))
        assert warn["state"] == "warn"
        breach = evaluate([P95], _metrics_with([0.1] * 70 + [5.0] * 30))
        assert breach["state"] == "breach"

    def test_burn_counts_window_not_totals(self):
        from tests.obs.test_metrics import FakeClock

        clock = FakeClock(0.0)
        reg = MetricsRegistry(enabled=True, clock=clock)
        for _ in range(50):
            reg.observe("serve.latency", 9.0, tier="computed")
        clock.now = 1000.0  # the bad samples age out of the window
        for _ in range(50):
            reg.observe("serve.latency", 0.1, tier="computed")
        doc = evaluate([P95], reg.snapshot())
        assert doc["state"] == "ok"


class TestEvaluateDoc:
    # 30% of samples above 1s: ok under a 10s ceiling, breach under 1s.
    MIXED = [0.1] * 70 + [5.0] * 30
    LOOSE = SLOSpec(
        name="loose",
        kind="latency_quantile",
        metric="serve.latency{tier=computed}",
        threshold=10.0,
        quantile=0.95,
    )

    def test_overall_state_is_worst(self):
        doc = evaluate([self.LOOSE, P95], _metrics_with(self.MIXED))
        assert [s["state"] for s in doc["specs"]] == ["ok", "breach"]
        assert doc["state"] == "breach"

    def test_doc_is_json_serialisable(self):
        doc = evaluate([self.LOOSE, P95], _metrics_with(self.MIXED))
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="nope", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            SLOSpec(
                name="x",
                kind="latency_quantile",
                metric="m",
                threshold=1.0,
                quantile=1.5,
            )

    def test_default_serve_slos_cover_the_tiers(self):
        specs = default_serve_slos(p95_ceiling_s=2.0, p99_ceiling_s=5.0)
        names = {s.name for s in specs}
        assert {"serve.p95.computed", "serve.p99.computed"} <= names
        assert any("memory" in n for n in names)
        assert any("store" in n for n in names)
        doc = evaluate(specs, _metrics_with([0.1] * 20))
        assert doc["state"] == "ok"
