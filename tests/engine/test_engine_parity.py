"""Bit-exact parity between the array engines and the legacy reference walk.

The vector engine's native launch walk and its Python mirror (the
no-compiler fallback, forced here with ``forced_fallback()``) are pure
performance refactors: every reported metric (byte counts,
traffic-class splits, fault counts, per-launch times) must be *identical*
to the per-sector legacy walk, not approximately equal.  This
sweeps the full workload suite at test scale; each workload runs under a
rotating subset of strategy/system pairs so that, across the suite, every
strategy family and both topologies are exercised many times while the
sweep stays fast enough for tier-1.

``RunResult.snapshot()`` is the canonical comparison form (see
:mod:`repro.engine.metrics`).
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.cache.compiled import forced_fallback
from repro.compiler.passes import compile_program
from repro.engine.simulator import Simulator, simulate
from repro.engine.trace_cache import TraceCache
from repro.experiments.runner import strategy_by_name
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST
from repro.workloads.suite import all_workloads, get_workload

# (strategy, config kind) pairs covering every engine code path: heavy
# remote traffic (RR), mostly-local first touch (Batch+FT), locality-optimised
# placement (LADM/H-CODA), the explicit RONCE and RTWICE insertion
# policies, and the flushless monolithic configuration.
PAIRS = [
    ("Baseline-RR", "hier"),
    ("Batch+FT", "hier"),
    ("LADM", "hier"),
    ("H-CODA", "hier"),
    ("LASP+RONCE", "hier"),
    ("LASP+RTWICE", "hier"),
    ("Monolithic", "mono"),
]

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _pairs_for(index: int):
    """Three of the seven pairs, rotated so the suite covers all of them."""
    return [PAIRS[(index + off) % len(PAIRS)] for off in (0, 1, 3)]


def _config(kind: str):
    return bench_hierarchical() if kind == "hier" else bench_monolithic()


@pytest.mark.parametrize("wname", WORKLOAD_NAMES)
def test_engines_bit_exact(wname):
    index = WORKLOAD_NAMES.index(wname)
    workload = get_workload(wname)
    for sname, kind in _pairs_for(index):
        legacy = simulate(
            workload.program(TEST),
            strategy_by_name(sname),
            _config(kind),
            engine="legacy",
        )
        for label, walk in (("vector", nullcontext), ("mirror", forced_fallback)):
            with walk():
                run = simulate(
                    workload.program(TEST),
                    strategy_by_name(sname),
                    _config(kind),
                    engine="vector",
                    trace_cache=TraceCache(),
                )
            assert legacy.snapshot() == run.snapshot(), (
                f"{wname}/{sname}: legacy and {label} disagree"
            )


def test_all_pairs_covered():
    """The rotation really does exercise every strategy/config pair."""
    seen = set()
    for i in range(len(WORKLOAD_NAMES)):
        seen.update(_pairs_for(i))
    assert seen == set(PAIRS)


@pytest.mark.parametrize("sname", ["LADM", "Batch+FT"])
@pytest.mark.parametrize("wname", ["vecadd", "conv", "pagerank"])
def test_page_access_profiles_agree(wname, sname):
    """``profile_pages=True`` counts equal arrays on every engine, under a
    mapped plan (LADM) and a first-touch one (Batch+FT)."""

    def profile(engine, walk=nullcontext):
        compiled = compile_program(get_workload(wname).program(TEST))
        sim = Simulator(bench_hierarchical(), engine=engine, trace_cache=TraceCache())
        plan = strategy_by_name(sname).plan(compiled, sim.topology)
        with walk():
            return sim.run(compiled, plan, profile_pages=True).page_access_counts

    want = profile("legacy")
    assert want.sum() > 0
    for walk in (nullcontext, forced_fallback):
        np.testing.assert_array_equal(profile("vector", walk), want)
