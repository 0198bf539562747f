"""The per-launch trace cache and the per-TB L1 survivor filter."""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache import compiled
from repro.engine.simulator import Simulator, simulate
from repro.engine.trace_cache import (
    _DENSE_RANGE_FACTOR,
    LaunchTrace,
    TraceCache,
    _lru_filter_misses,
)
from repro.errors import SimulationError
from repro.experiments.runner import strategy_by_name
from repro.memory.address_space import AddressSpace
from repro.obs import ObsSession
from repro.topology.config import bench_hierarchical

from tests.cache.test_compiled import LEGS
from tests.conftest import make_gemm_program


class TestTraceCacheSharing:
    def test_strategies_share_one_trace(self):
        """Sweeping strategies over one program traces each launch once."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()
        for sname in ("H-CODA", "LADM", "Batch+FT"):
            simulate(
                prog, strategy_by_name(sname), cfg,
                engine="vector", trace_cache=cache,
            )
        stats = cache.stats()
        assert stats["builds"] == 1  # one launch, traced once
        assert stats["hits"] == 2  # replayed by the other two strategies
        assert stats["misses"] == 1

    def test_replay_is_deterministic(self):
        """A cache hit reproduces the cold-trace result exactly."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()

        def run():
            return simulate(
                prog, strategy_by_name("LADM"), cfg,
                engine="vector", trace_cache=cache,
            )

        assert run().snapshot() == run().snapshot()

    def test_identical_programs_keyed_by_identity(self):
        """Equal-looking but distinct programs never share an entry.

        The key holds the program *object*, not ``id(program)``: a bare id
        can be recycled by the allocator after the program is collected,
        which once replayed a stale trace against an unrelated program.
        """
        cache = TraceCache()
        cfg = bench_hierarchical()
        for _ in range(2):
            simulate(make_gemm_program(side=64), strategy_by_name("LADM"),
                     cfg, engine="vector", trace_cache=cache)
        assert cache.stats()["builds"] == 2
        assert len(cache) == 2
        # the cached key keeps each program alive, so ids cannot recycle
        for (launch_key, _, _) in cache._entries:
            assert launch_key[0].launches  # a live Program, not an int

    def test_distinct_geometry_distinct_entry(self):
        """sector_bytes/page_size are part of the key, not clobbered."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()
        simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                 trace_cache=cache)
        l2 = replace(bench_hierarchical().l2, sector_bytes=64)
        cfg2 = replace(bench_hierarchical(), l2=l2)
        simulate(prog, strategy_by_name("LADM"), cfg2, engine="vector",
                 trace_cache=cache)
        assert cache.stats()["builds"] == 2
        assert len(cache) == 2


class TestEvictionAndOptOut:
    def test_oversized_trace_not_cached(self):
        """A trace bigger than the whole budget bypasses the cache."""
        cache = TraceCache(max_bytes=1)
        simulate(make_gemm_program(side=32), strategy_by_name("LADM"),
                 bench_hierarchical(), engine="vector", trace_cache=cache)
        assert len(cache) == 0 and cache.stats()["builds"] == 1

    def test_budget_evicts_lru(self):
        """Overflowing the byte budget drops least-recently-used traces."""
        cfg = bench_hierarchical()
        probe = TraceCache()
        simulate(make_gemm_program(side=64), strategy_by_name("LADM"), cfg,
                 engine="vector", trace_cache=probe)
        one_trace = probe.cached_bytes
        # Room for one resident trace, never for two.
        cache = TraceCache(max_bytes=int(one_trace * 1.1))
        for _ in range(3):
            prog = make_gemm_program(side=64)  # distinct program, same size
            simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                     trace_cache=cache)
        assert cache.stats()["builds"] == 3
        assert len(cache) == 1  # older traces evicted, newest kept

    def test_nbytes_counts_every_held_array(self):
        """The byte budget sees all a trace holds: sectors, site index,
        offsets and one survivor stream per L1 capacity, however many L2
        geometries share that capacity."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        hier = bench_hierarchical()
        wider_l2 = replace(hier, l2=replace(hier.l2, size=2 * hier.l2.size))
        smaller_l1 = replace(hier, l1_filter_sectors=8)
        assert wider_l2.l2.num_sets != hier.l2.num_sets
        for cfg in (hier, wider_l2, smaller_l1):
            simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                     trace_cache=cache)
        ((trace, _),) = cache._entries.values()
        held = [trace.sectors, trace.site_index, trace.offsets]
        for capacity in (hier.l1_filter_sectors, 8):
            held += trace.survivor_layout(capacity)
        assert len(trace._survivor_streams) == 2
        assert trace.nbytes == sum(a.nbytes for a in held)

    def test_bound_enforced_when_entries_grow(self):
        """Survivor streams grow entries after insertion; the next fetch,
        a hit, evicts back under the bound and keeps the entry it returns."""
        progs = [make_gemm_program(side=32) for _ in range(2)]
        capacity = bench_hierarchical().l1_filter_sectors

        def fetch(cache, prog):
            space = AddressSpace(prog, 512)
            return cache.get(prog.launches[0], (prog, 0), space, 32)

        probe = fetch(TraceCache(), progs[0])
        base = probe.nbytes
        probe.survivor_layout(capacity)
        grown = probe.nbytes
        cache = TraceCache(max_bytes=max(2 * base, grown))
        traces = [fetch(cache, prog) for prog in progs]
        assert len(cache) == 2
        for trace in traces:
            trace.survivor_layout(capacity)
        assert cache.cached_bytes == 2 * grown > cache.max_bytes
        assert fetch(cache, progs[1]) is traces[1]
        assert cache.cached_bytes <= cache.max_bytes
        ((kept, _),) = cache._entries.values()
        assert kept is traces[1]

    def test_default_cache_used_when_none_passed(self):
        sim = Simulator(bench_hierarchical(), engine="vector")
        assert sim.trace_cache is None  # falls back to the process cache


def _synthetic_trace(block_streams, trip=1):
    """Build a LaunchTrace directly from per-block sector lists."""
    ntb = len(block_streams) // trip
    sectors = np.concatenate(
        [np.asarray(b, dtype=np.int64) for b in block_streams]
    ) if block_streams else np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(block_streams) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in block_streams], out=offsets[1:])
    return LaunchTrace(
        num_threadblocks=ntb,
        trip=trip,
        sectors=sectors,
        site_index=np.zeros(sectors.size, dtype=np.int64),
        site_arrays=["X"],
        offsets=offsets,
    )


def _legs():
    """The filter legs this host can run: the native kernel when it loaded,
    and always the sequential Python filter (under a forced fallback)."""
    legs = [compiled.forced_fallback]
    if compiled.backend_status() == "native":
        legs.insert(0, contextlib.nullcontext)
    return legs


def _per_tb_lru(trace, capacity):
    """Third oracle: ``_lru_filter_misses`` over each TB's whole stream, with
    no footprint-fits shortcut."""
    out = np.zeros(trace.total_sectors, dtype=bool)
    for tb in range(trace.num_threadblocks):
        start = trace.offsets[tb * trace.trip]
        stop = trace.offsets[(tb + 1) * trace.trip]
        if stop > start:
            inv = np.unique(trace.sectors[start:stop], return_inverse=True)[1]
            out[start:stop] = _lru_filter_misses(inv, capacity)
    return out


def _assert_filter_agrees(trace, capacity, leg):
    """``survivors`` under ``leg`` == the sequential filter == the per-TB
    ``OrderedDict`` oracle; returns the mask."""
    with leg():
        got = trace.survivors(capacity)
    want = trace._survivors_sequential(capacity)
    assert got.dtype == bool and got.shape == trace.sectors.shape
    assert got.tolist() == want.tolist()
    assert got.tolist() == _per_tb_lru(trace, capacity).tolist()
    return got


class TestSurvivorFilter:
    """The native per-TB filter and its sequential fallback vs the oracle."""

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), max_size=60),
            min_size=1,
            max_size=4,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_oracle(self, streams, capacity):
        trace = _synthetic_trace(streams)
        for leg in _legs():
            _assert_filter_agrees(trace, capacity, leg)

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), max_size=40),
            min_size=2,
            max_size=4,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_iteration_blocks(self, streams, capacity):
        """trip > 1: one TB's filter persists across its iterations."""
        if len(streams) % 2:
            streams = streams + [[]]
        trace = _synthetic_trace(streams, trip=2)
        for leg in _legs():
            _assert_filter_agrees(trace, capacity, leg)

    def test_filter_isolated_per_threadblock(self):
        """One TB's stream never warms another TB's filter."""
        for leg in _legs():
            trace = _synthetic_trace([[5, 5], [5, 5]])
            with leg():
                miss = trace.survivors(capacity=4)
            # Each TB's first touch of 5 misses; its second hits.
            assert miss.tolist() == [True, False, True, False]

    def test_oracle_lru_filter(self):
        """The dense-id LRU helper behaves like an OrderedDict filter."""
        stream = np.array([0, 1, 2, 0, 3, 0], dtype=np.int64)
        # capacity 2: 2 evicts 0, the re-fetched 0 evicts 1, 3 evicts 2,
        # and the final 0 (refreshed by its re-fetch) survives as a hit.
        out = _lru_filter_misses(stream, 2)
        assert out.tolist() == [True, True, True, True, True, False]
        out = _lru_filter_misses(stream, 3)
        assert out.tolist() == [True, True, True, False, True, False]

    @pytest.mark.parametrize("leg", LEGS)
    def test_sparse_ids_use_unique_inverse(self, leg):
        """Sector ids spread far wider than the stream take the np.unique
        id path; the masks must not notice."""
        rng = np.random.default_rng(3)
        streams = [(rng.integers(0, 9, 50) * 10**9 + 7).tolist() for _ in range(3)]
        trace = _synthetic_trace(streams)
        span = int(trace.sectors.max() - trace.sectors.min()) + 1
        assert span > _DENSE_RANGE_FACTOR * trace.total_sectors
        for capacity in (1, 3, 9):
            _assert_filter_agrees(trace, capacity, leg)

    @pytest.mark.parametrize("leg", LEGS)
    def test_capacity_one(self, leg):
        """One entry: only an immediate repeat hits."""
        trace = _synthetic_trace([[4, 4, 6, 4, 4, 6, 6]])
        miss = _assert_filter_agrees(trace, 1, leg)
        assert miss.tolist() == [True, False, True, True, False, True, False]

    @pytest.mark.parametrize("leg", LEGS)
    def test_footprint_equal_to_capacity(self, leg):
        """A footprint that exactly fills the filter never evicts; one more
        distinct sector turns the cycle into all misses."""
        fits = _synthetic_trace([[1, 2, 3, 1, 2, 3, 3, 1]])
        assert _assert_filter_agrees(fits, 3, leg).tolist() == [True] * 3 + [False] * 5
        over = _synthetic_trace([[1, 2, 3, 4, 1, 2, 3, 4]])
        assert _assert_filter_agrees(over, 3, leg).tolist() == [True] * 8

    @pytest.mark.parametrize("leg", LEGS)
    def test_filter_spans_iterations(self, leg):
        """trip = 3: a TB's filter carries over its iteration blocks, and the
        next TB starts cold."""
        trace = _synthetic_trace([[1, 2], [1], [3, 2], [2], [], [2, 1]], trip=3)
        miss = _assert_filter_agrees(trace, 2, leg)
        # TB 0: 1 hits across iterations; 3 evicts 2, so 2 misses again.
        assert miss.tolist() == [True, True, False, True, True, True, False, True]

    @pytest.mark.parametrize("leg", LEGS)
    def test_empty_threadblock_stream(self, leg):
        """A TB with no accesses (first, middle or last) is skipped cleanly."""
        trace = _synthetic_trace([[], [7, 8, 7], [], [8, 8], []])
        miss = _assert_filter_agrees(trace, 2, leg)
        assert miss.tolist() == [True, True, False, True, False]
        with leg():
            assert _synthetic_trace([[], []]).survivors(2).size == 0

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize(
        "ids, offsets, nids, capacity, match",
        [
            ([0, 1, 2], [0, 2, 1, 3], 3, 2, "non-decreasing"),
            ([0, 1, 2], [1, 3], 3, 2, "from 0"),
            ([0, 1, 2], [0, 2], 3, 2, "from 0"),
            ([0, 1, 3], [0, 3], 3, 2, "out of range"),
            ([0, -1, 2], [0, 3], 3, 2, "out of range"),
            ([0, 1, 2], [0, 3], 3, 0, "capacity"),
        ],
        ids=["decreasing", "late-start", "short", "id-past-range",
             "negative-id", "capacity-0"],
    )
    def test_bad_inputs_rejected(self, leg, ids, offsets, nids, capacity, match):
        """Every input is checked before the kernel is looked up, so both
        legs reject the same inputs with the same typed error."""
        with leg(), pytest.raises(SimulationError, match=match):
            compiled.l1_filter(np.array(ids), np.array(offsets), nids, capacity)

    def test_kernel_unavailable_is_typed(self):
        with compiled.forced_fallback(), pytest.raises(SimulationError, match="unavailable"):
            compiled.l1_filter(np.zeros(2, np.int64), np.array([0, 2]), 1, 1)

    def test_first_computation_is_a_span(self):
        """The filter books one ``l1_filter`` span (cat ``trace``) per capacity:
        when its survivor stream is built, none when the stream is reused."""
        trace = _synthetic_trace([[1, 2, 1], [3]])
        before = obs.current()
        session = obs.install(ObsSession(enabled=True))
        try:
            trace.survivor_layout(2)
            trace.survivor_layout(2)
            trace.survivor_layout(1)
            trace.survivor_layout(2)
        finally:
            obs.install(before)
        spans = [ev for ev in session.tracer.events() if ev["name"] == "l1_filter"]
        assert [(ev["cat"], ev["args"]["capacity"], ev["args"]["sectors"])
                for ev in spans] == [("trace", 2, 4), ("trace", 1, 4)]
