"""Satellite (b): instrumentation must be effectively free when disabled.

Two guards:

* microbenchmark -- a disabled ``span()`` call (plus the counter fast path)
  costs on the order of nanoseconds, bounded here at 2 microseconds averaged
  over many calls to stay robust on loaded CI machines;
* end-to-end -- a mid-size workload run with obs disabled vs. enabled-but-
  unexported differs by less than 2% wall-clock (with a small absolute
  floor so sub-100ms runs don't flake on scheduler jitter).
"""

import time

from repro import obs
from repro.engine.simulator import Simulator
from repro.obs.counters import CounterRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer
from repro.compiler.passes import compile_program
from repro.experiments.runner import scale_by_name, strategy_by_name
from repro.topology.config import bench_hierarchical
from repro.workloads.suite import get_workload

N_CALLS = 200_000


class TestMicrobench:
    def test_disabled_span_is_nanoseconds(self):
        tr = SpanTracer(enabled=False)
        start = time.perf_counter_ns()
        for _ in range(N_CALLS):
            with tr.span("x"):
                pass
        per_call_ns = (time.perf_counter_ns() - start) / N_CALLS
        assert per_call_ns < 2_000, f"disabled span costs {per_call_ns:.0f}ns"

    def test_disabled_counter_is_nanoseconds(self):
        reg = CounterRegistry(enabled=False)
        start = time.perf_counter_ns()
        for _ in range(N_CALLS):
            reg.inc("x", node=0)
        per_call_ns = (time.perf_counter_ns() - start) / N_CALLS
        assert per_call_ns < 2_000, f"disabled inc costs {per_call_ns:.0f}ns"

    def test_disabled_metrics_observe_is_nanoseconds(self):
        reg = MetricsRegistry(enabled=False)
        start = time.perf_counter_ns()
        for _ in range(N_CALLS):
            reg.observe("serve.latency", 0.001, tier="memory")
        per_call_ns = (time.perf_counter_ns() - start) / N_CALLS
        assert per_call_ns < 2_000, f"disabled observe costs {per_call_ns:.0f}ns"


def _timed_run(workload, scale):
    """One full compile+plan+run; returns best-of-3 wall-clock seconds."""
    program = get_workload(workload).program(scale)
    compiled = compile_program(program)
    strategy = strategy_by_name("LADM")
    config = bench_hierarchical()
    best = float("inf")
    for _ in range(3):
        sim = Simulator(config)
        start = time.perf_counter()
        plan = strategy.plan(compiled, sim.topology)
        sim.run(compiled, plan)
        best = min(best, time.perf_counter() - start)
    return best


class TestEndToEnd:
    def test_enabled_but_unexported_under_two_percent(self):
        obs.disable()
        _timed_run("conv", scale_by_name("test"))  # warm caches/JIT paths
        base = _timed_run("conv", scale_by_name("test"))
        obs.enable()
        try:
            instrumented = _timed_run("conv", scale_by_name("test"))
        finally:
            obs.disable()
        delta = instrumented - base
        # 2% of wall-clock, with an absolute floor: at test scale the run is
        # tens of milliseconds and scheduler jitter would otherwise dominate.
        assert delta <= max(0.02 * base, 0.050), (
            f"enabled-but-unexported obs adds {delta * 1e3:.1f}ms "
            f"over a {base * 1e3:.1f}ms baseline"
        )
