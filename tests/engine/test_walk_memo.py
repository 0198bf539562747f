"""Launch-walk memoisation: hits are exact, unsound cases never engage."""

import numpy as np

from repro.compiler.passes import compile_program
from repro.engine.simulator import Simulator
from repro.engine.walk_memo import WalkMemo, default_walk_memo, memo_enabled
from repro.experiments.runner import strategy_by_name
from repro.fuzz.genprog import AccessSpec, KernelSpec, ProgramSpec, build_program
from repro.obs import ObsSession
from repro.obs.counters import parse_key
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST
from repro.workloads.suite import get_workload


def _compiled(name="vecadd"):
    return compile_program(get_workload(name).program(TEST))


def _run(compiled, strategy_name, config, memo, profile_pages=False, session=None):
    """One run; returns its walk-memo outcomes and its result.

    Hits and misses are the deltas of the memo's own counts; a launch that
    did neither was ineligible.
    """
    sim = Simulator(config, engine="vector", walk_memo=memo, obs_session=session)
    plan = strategy_by_name(strategy_name).plan(compiled, sim.topology)
    hits, misses = memo.hits, memo.misses
    result = sim.run(compiled, plan, profile_pages=profile_pages)
    hit, miss = memo.hits - hits, memo.misses - misses
    ineligible = len(result.kernels) - hit - miss
    return {"hit": hit, "miss": miss, "ineligible": ineligible}, result


def _two_launch_compiled():
    # cross-kernel L2 reuse is what makes the no-flush case dangerous:
    # both kernels touch g0, so launch 2's walk depends on launch 1's
    # leftover cache state whenever flushing is off
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
        out1, r1 = _run(compiled, "LADM", cfg, memo, session=s1)
        out2, r2 = _run(compiled, "LADM", cfg, memo, session=s2)
        assert out1["hit"] == 0
        assert out1["miss"] == len(r1.kernels)
        assert _walk_spans(s1) > 0
        assert out2["hit"] == len(r2.kernels)
        assert out2["miss"] == 0
        assert _snapshots(r1) == _snapshots(r2)
        # A hit skips the walk: no native_walk span at all.
        assert _walk_spans(s2) == 0

    def test_hits_cross_simulators_via_shared_memo(self):
        compiled = _compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "H-CODA", cfg, memo)
        out2, _ = _run(compiled, "H-CODA", cfg, memo)
        assert out2["hit"] > 0

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
        out1, r1 = _run(compiled, "Batch+FT", cfg, memo)
        out2, r2 = _run(compiled, "Batch+FT", cfg, memo)
        assert out1["ineligible"] == len(r1.kernels)
        assert out2["hit"] == 0
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
        out1, r1 = _run(compiled, "Monolithic", cfg, memo)
        assert out1["miss"] == 1
        out2, r2 = _run(compiled, "Monolithic", cfg, memo)
        assert out2["hit"] == 1
        assert _snapshots(r1) == _snapshots(r2)

    def test_no_flush_counters_enabled_never_memoised(self):
        """End-of-run occupancy gauges read raw L2 state, so a no-flush
        launch whose outgoing state would feed them must not be skipped."""
        compiled = _compiled()
        cfg = bench_monolithic()
        memo = WalkMemo()
        for _ in range(2):
            out, r = _run(
                compiled, "Monolithic", cfg, memo, session=ObsSession(enabled=True)
            )
        assert out["ineligible"] == len(r.kernels)
        assert len(memo) == 0

    def test_page_profiling_never_memoised(self):
        compiled = _compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "LADM", cfg, memo)  # populate
        out, r = _run(compiled, "LADM", cfg, memo, profile_pages=True)
        assert out["hit"] == 0
        assert out["ineligible"] == len(r.kernels)
        assert r.page_access_counts is not None
        assert int(np.asarray(r.page_access_counts).sum()) > 0

    def test_disabled_via_env(self, monkeypatch):
        """With no memo to count, the run's ``walk.memo`` counter does; on
        this flushing config, enabled counters leave eligibility alone."""
        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        assert not memo_enabled()
        compiled = _compiled()
        cfg = bench_hierarchical()
        for _ in range(2):
            session = ObsSession(enabled=True)
            sim = Simulator(cfg, engine="vector", obs_session=session)
            plan = strategy_by_name("LADM").plan(compiled, sim.topology)
            r = sim.run(compiled, plan)
        assert session.counters.select("walk.memo") == {
            "walk.memo{outcome=ineligible}": len(r.kernels)
        }

    def test_outcomes_sum_to_launches(self):
        """Every launch books exactly one ``walk.memo`` outcome, and the
        counter agrees with the memo's own hit/miss counts."""
        compiled = _two_launch_compiled()
        cfg = bench_hierarchical()
        memo = WalkMemo()
        for strategy in ("LADM", "LADM", "Batch+FT"):
            session = ObsSession(enabled=True)
            out, r = _run(compiled, strategy, cfg, memo, session=session)
            assert len(r.kernels) == 2
            counted = {
                parse_key(k)[1]["outcome"]: v
                for k, v in session.counters.select("walk.memo").items()
            }
            assert sum(counted.values()) == len(r.kernels)
            assert counted == {k: v for k, v in out.items() if v}


class TestKeySensitivity:
    def test_policy_difference_misses(self):
        """RTWICE vs RONCE share placement but must never cross-hit."""
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _, r_rtwice = _run(compiled, "LASP+RTWICE", cfg, memo)
        out2, r_ronce = _run(compiled, "LASP+RONCE", cfg, memo)
        assert out2["hit"] == 0
        # and the policies genuinely produce different traffic
        _, r_ronce_fresh = _run(compiled, "LASP+RONCE", cfg, WalkMemo())
        assert _snapshots(r_ronce) == _snapshots(r_ronce_fresh)

    def test_placement_difference_misses(self):
        compiled = _compiled("lstm1")
        cfg = bench_hierarchical()
        memo = WalkMemo()
        _run(compiled, "H-CODA", cfg, memo)
        out2, _ = _run(compiled, "Kernel-wide", cfg, memo)
        assert out2["hit"] == 0

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

    def test_no_flush_ineligible_but_exact(self):
        import dataclasses

        compiled = _two_launch_compiled()
        cfg = dataclasses.replace(
            bench_hierarchical(), flush_l2_between_kernels=False
        )
        memo = WalkMemo()
        out_a, r_a = _run(compiled, "LADM", cfg, memo)
        out_b, r_b = _run(compiled, "LADM", cfg, memo)
        launches = len(r_a.kernels)
        # every launch is refused on both runs; nothing is ever stored
        assert out_a["ineligible"] == launches
        assert out_b["ineligible"] == launches
        assert out_b["hit"] == 0
        assert len(memo) == 0
        # and the un-memoised walks remain bit-exact against legacy
        legacy = self._legacy(compiled, "LADM", cfg)
        assert _snapshots(r_b) == _snapshots(r_a) == _snapshots(legacy)

    def test_flush_eligible_hits_and_exact(self):
        compiled = _two_launch_compiled()
        cfg = bench_hierarchical()
        assert cfg.flush_l2_between_kernels
        memo = WalkMemo()
        _run(compiled, "LADM", cfg, memo)
        out_b, r_b = _run(compiled, "LADM", cfg, memo)
        assert out_b["hit"] == len(r_b.kernels)
        legacy = self._legacy(compiled, "LADM", cfg)
        assert _snapshots(r_b) == _snapshots(legacy)
