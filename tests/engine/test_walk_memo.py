"""Launch-walk memoisation: hits are exact, unsound cases never engage."""

import numpy as np

from repro.compiler.passes import compile_program
from repro.engine.simulator import Simulator
from repro.engine.walk_memo import WalkMemo, default_walk_memo, memo_enabled
from repro.experiments.runner import strategy_by_name
from repro.obs import ObsSession
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST
from repro.workloads.suite import get_workload


def _compiled(name="vecadd"):
    return compile_program(get_workload(name).program(TEST))


def _run(compiled, strategy_name, config, memo, profile_pages=False, session=None):
    sim = Simulator(config, engine="vector", walk_memo=memo, obs_session=session)
    plan = strategy_by_name(strategy_name).plan(compiled, sim.topology)
    result = sim.run(compiled, plan, profile_pages=profile_pages)
    return sim, result


def _snapshots(result):
    return [k.snapshot() for k in result.kernels]


def _walk_spans(session):
    return sum(ev["name"] == "native_walk" for ev in session.tracer.events())


class TestMemoHits:
    def test_identical_rerun_hits_and_stays_exact(self):
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        # Traced sessions: a native_walk span shows a walk really ran.
        s1, s2 = ObsSession(enabled=True), ObsSession(enabled=True)
        sim1, r1 = _run(compiled, "LADM", cfg, memo, session=s1)
        sim2, r2 = _run(compiled, "LADM", cfg, memo, session=s2)
        assert sim1.walk_counters["memo_hits"] == 0
        assert sim1.walk_counters["memo_misses"] == len(r1.kernels)
        assert _walk_spans(s1) > 0
        assert sim2.walk_counters["memo_hits"] == len(r2.kernels)
        assert sim2.walk_counters["memo_misses"] == 0
        assert _snapshots(r1) == _snapshots(r2)
        # A hit skips the walk: no native_walk span at all.
        assert _walk_spans(s2) == 0

    def test_hits_cross_simulators_via_shared_memo(self):
        compiled = _compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "H-CODA", cfg, memo)
        sim2, _ = _run(compiled, "H-CODA", cfg, memo)
        assert sim2.walk_counters["memo_hits"] > 0

    def test_memoised_run_matches_memoless_run(self):
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "LADM", cfg, memo)
        _, r_hit = _run(compiled, "LADM", cfg, memo)
        _, r_fresh = _run(compiled, "LADM", cfg, WalkMemo())
        assert _snapshots(r_hit) == _snapshots(r_fresh)


class TestSoundnessGuards:
    def test_first_touch_never_memoised(self):
        """Batch+FT walks mutate placement; the memo must stay out."""
        compiled = _compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        sim1, r1 = _run(compiled, "Batch+FT", cfg, memo)
        sim2, r2 = _run(compiled, "Batch+FT", cfg, memo)
        assert sim1.walk_counters["memo_ineligible"] == len(r1.kernels)
        assert sim2.walk_counters["memo_hits"] == 0
        assert len(memo) == 0
        assert _snapshots(r1) == _snapshots(r2)

    def test_no_flush_single_launch_memoised_and_exact(self):
        """A single-launch no-flush run starts from an empty L2 (clean
        lineage) and nothing reads its outgoing state, so it memoises."""
        compiled = _compiled()
        assert len(compiled.program.launches) == 1
        cfg = bench_monolithic()
        assert not cfg.flush_l2_between_kernels
        memo = WalkMemo()
        sim1, r1 = _run(compiled, "Monolithic", cfg, memo)
        assert sim1.walk_counters["memo_misses"] == 1
        sim2, r2 = _run(compiled, "Monolithic", cfg, memo)
        assert sim2.walk_counters["memo_hits"] == 1
        assert _snapshots(r1) == _snapshots(r2)

    def test_no_flush_counters_enabled_never_memoised(self):
        """End-of-run occupancy gauges read raw L2 state, so a no-flush
        launch whose outgoing state would feed them must not be skipped."""
        from repro import obs

        compiled = _compiled()
        cfg = bench_monolithic()
        memo = WalkMemo()
        for _ in range(2):
            sim = Simulator(
                cfg,
                engine="vector",
                walk_memo=memo,
                obs_session=obs.ObsSession(enabled=True),
            )
            plan = strategy_by_name("Monolithic").plan(compiled, sim.topology)
            r = sim.run(compiled, plan)
        assert sim.walk_counters["memo_ineligible"] == len(r.kernels)
        assert len(memo) == 0

    def test_page_profiling_never_memoised(self):
        compiled = _compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "LADM", cfg, memo)  # populate
        sim, r = _run(compiled, "LADM", cfg, memo, profile_pages=True)
        assert sim.walk_counters["memo_hits"] == 0
        assert sim.walk_counters["memo_ineligible"] == len(r.kernels)
        assert r.page_access_counts is not None
        assert int(np.asarray(r.page_access_counts).sum()) > 0

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        assert not memo_enabled()
        compiled = _compiled()
        cfg = bench_hierarchical()
        sim1, _ = _run(compiled, "LADM", cfg, None)
        sim2, r2 = _run(compiled, "LADM", cfg, None)
        assert sim2.walk_counters["memo_hits"] == 0
        assert sim2.walk_counters["memo_ineligible"] == len(r2.kernels)


class TestKeySensitivity:
    def test_policy_difference_misses(self):
        """RTWICE vs RONCE share placement but must never cross-hit."""
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _, r_rtwice = _run(compiled, "LASP+RTWICE", cfg, memo)
        sim2, r_ronce = _run(compiled, "LASP+RONCE", cfg, memo)
        assert sim2.walk_counters["memo_hits"] == 0
        # and the policies genuinely produce different traffic
        _, r_ronce_fresh = _run(compiled, "LASP+RONCE", cfg, WalkMemo())
        assert _snapshots(r_ronce) == _snapshots(r_ronce_fresh)

    def test_placement_difference_misses(self):
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "H-CODA", cfg, memo)
        sim2, _ = _run(compiled, "Kernel-wide", cfg, memo)
        assert sim2.walk_counters["memo_hits"] == 0

    def test_lru_eviction_bounds_entries(self):
        memo = WalkMemo(max_entries=1)
        compiled = _compiled()
        cfg = bench_hierarchical()
        _run(compiled, "H-CODA", cfg, memo)
        _run(compiled, "Kernel-wide", cfg, memo)
        assert len(memo) <= 1

    def test_default_memo_is_shared_and_resettable(self):
        memo = default_walk_memo()
        assert memo is default_walk_memo()
        memo.clear()
        assert len(memo) == 0


class TestFlushSoundness:
    """The flush-gate end to end: ineligible runs stay exact vs legacy,
    eligible runs hit and stay exact vs legacy -- same program, same
    strategy, only ``flush_l2_between_kernels`` differs."""

    def _legacy(self, compiled, strategy_name, config):
        sim = Simulator(config, engine="legacy", walk_memo=WalkMemo(0))
        plan = strategy_by_name(strategy_name).plan(compiled, sim.topology)
        return sim.run(compiled, plan)

    def _two_launch_compiled(self):
        # cross-kernel L2 reuse is what makes the no-flush case dangerous:
        # both kernels touch g0, so launch 2's walk depends on launch 1's
        # leftover cache state whenever flushing is off
        from repro.fuzz.genprog import (
            AccessSpec,
            KernelSpec,
            ProgramSpec,
            build_program,
        )

        spec = ProgramSpec(
            name="memo_flush",
            elem_sizes=(("g0", 4),),
            kernels=(
                KernelSpec(
                    name="a",
                    bdx=32,
                    gdx=4,
                    accesses=(AccessSpec(alloc="g0", shape="nl1d"),),
                ),
                KernelSpec(
                    name="b",
                    bdx=32,
                    gdx=4,
                    accesses=(AccessSpec(alloc="g0", shape="bcast"),),
                ),
            ),
        )
        program = build_program(spec)
        assert len(program.launches) == 2
        return compile_program(program)

    def test_no_flush_ineligible_but_exact(self):
        import dataclasses

        compiled = self._two_launch_compiled()
        cfg = dataclasses.replace(
            bench_hierarchical(), flush_l2_between_kernels=False
        )
        memo = WalkMemo()
        sim_a, r_a = _run(compiled, "LADM", cfg, memo)
        sim_b, r_b = _run(compiled, "LADM", cfg, memo)
        launches = len(r_a.kernels)
        # every launch is refused on both runs; nothing is ever stored
        assert sim_a.walk_counters["memo_ineligible"] == launches
        assert sim_b.walk_counters["memo_ineligible"] == launches
        assert sim_b.walk_counters["memo_hits"] == 0
        assert len(memo) == 0
        # and the un-memoised walks remain bit-exact against legacy
        legacy = self._legacy(compiled, "LADM", cfg)
        assert _snapshots(r_b) == _snapshots(r_a) == _snapshots(legacy)

    def test_flush_eligible_hits_and_exact(self):
        compiled = self._two_launch_compiled()
        cfg = bench_hierarchical()
        assert cfg.flush_l2_between_kernels
        memo = WalkMemo()
        _run(compiled, "LADM", cfg, memo)
        sim_b, r_b = _run(compiled, "LADM", cfg, memo)
        assert sim_b.walk_counters["memo_hits"] == len(r_b.kernels)
        legacy = self._legacy(compiled, "LADM", cfg)
        assert _snapshots(r_b) == _snapshots(legacy)
