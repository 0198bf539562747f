"""Property-based parity for the speculative sync-stream replay.

``replay_sync_stream`` (engine/vector_walk.py) replaces the legacy per-event
``OrderedDict`` loop for remote-traffic iterations.  These tests drive random
remote-heavy element streams -- multi-node homes, mixed RONCE/RTWICE insert
masks, interleaved free-miss fills, warm or cold cache state -- through

* the speculative segmented replay (``mode="array"``),
* the relocated scalar reference (``mode="scalar"``), and
* an independent oracle mirroring the legacy engine's ``SectoredCache``
  inner loop operation for operation,

and require exact agreement on hit masks, per-set LRU state, transfer
counts, DRAM requests and traffic-class stats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.vector_walk as vw
from repro.cache import ArrayLRU, SectoredCache
from repro.engine.vector_walk import replay_sync_stream

_LL, _LR, _RL = 0, 1, 2


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------
GEOMETRIES = st.tuples(
    st.integers(min_value=2, max_value=3),  # nodes
    st.integers(min_value=2, max_value=4),  # sets per node
    st.integers(min_value=2, max_value=3),  # ways
)

# (sector, node, home, is_fill, req_ins, home_ins); normalised below so
# fills are always remote.  A small sector universe forces reuse, hits,
# evictions and set collisions.
ELEMENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)

# Warm-up stream: (sector, node) requester inserts applied before replay, so
# the replay starts from non-trivial tag/stamp state.
WARMUPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=60,
)


def _normalise(raw, num_nodes):
    """Clamp nodes, force fills remote, derive locality."""
    out = []
    for sec, node, home, is_fill, req_ins, home_ins in raw:
        node %= num_nodes
        home %= num_nodes
        if home == node and is_fill:
            is_fill = False
        out.append((sec, node, home, is_fill, req_ins, home_ins))
    return out


def _columns(elements, num_sets):
    sec = np.array([e[0] for e in elements], dtype=np.int64)
    node = np.array([e[1] for e in elements], dtype=np.int64)
    home = np.array([e[2] for e in elements], dtype=np.int64)
    is_fill = np.array([e[3] for e in elements], dtype=bool)
    req_ins = np.array([e[4] for e in elements], dtype=bool)
    home_ins = np.array([e[5] for e in elements], dtype=bool)
    local = home == node
    req_set = node * num_sets + sec % num_sets
    home_set = home * num_sets + sec % num_sets
    return sec, node, home, is_fill, local, req_ins, home_ins, req_set, home_set


def _warmed_lru(num_nodes, num_sets, assoc, warm, backend="numpy"):
    l2 = ArrayLRU(num_nodes * num_sets, assoc, backend=backend)
    for sec, node in warm:
        node %= num_nodes
        l2.replay_segments(
            np.array([sec], dtype=np.int64),
            np.array([node * num_sets + sec % num_sets], dtype=np.int64),
            np.array([True]),
        )
    return l2


# ----------------------------------------------------------------------
# The oracle: the legacy engine's per-node SectoredCache loop
# ----------------------------------------------------------------------
def _dict_touch(d, sec, insert, assoc):
    """One OrderedDict set operation exactly as the legacy walk does it."""
    if sec in d:
        d.move_to_end(sec)
        return True
    if insert:
        d[sec] = None
        if len(d) > assoc:
            d.popitem(last=False)
    return False


def _oracle(num_nodes, num_sets, assoc, warm, elements):
    """Replay warm-up + elements through per-node SectoredCaches."""
    caches = [SectoredCache(num_sets, assoc) for _ in range(num_nodes)]
    for sec, node in warm:
        node %= num_nodes
        _dict_touch(caches[node]._sets[sec % num_sets], sec, True, assoc)
    K = len(elements)
    req_hit = np.zeros(K, dtype=bool)
    home_present = np.zeros(K, dtype=bool)
    home_hit = np.zeros(K, dtype=bool)
    stats = np.zeros((num_nodes, 3, 2), dtype=np.int64)
    dram = np.zeros(num_nodes, dtype=np.int64)
    transfers = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    for k, (sec, node, home, is_fill, req_ins, home_ins) in enumerate(elements):
        local = home == node
        if is_fill:
            home_present[k] = True
            transfers[home, node] += 1
            hit = _dict_touch(caches[home]._sets[sec % num_sets], sec, home_ins, assoc)
            home_hit[k] = hit
            stats[home, _RL, 1 if hit else 0] += 1
            if not hit:
                dram[home] += 1
            continue
        hit = _dict_touch(caches[node]._sets[sec % num_sets], sec, req_ins, assoc)
        req_hit[k] = hit
        stats[node, _LL if local else _LR, 1 if hit else 0] += 1
        if hit:
            continue
        if local:
            dram[node] += 1
            continue
        home_present[k] = True
        transfers[home, node] += 1
        hhit = _dict_touch(caches[home]._sets[sec % num_sets], sec, home_ins, assoc)
        home_hit[k] = hhit
        stats[home, _RL, 1 if hhit else 0] += 1
        if not hhit:
            dram[home] += 1
    return caches, (req_hit, home_present, home_hit), stats, dram, transfers


def _run_replay(mode, num_nodes, num_sets, assoc, warm, elements, counters=None):
    l2 = _warmed_lru(num_nodes, num_sets, assoc, warm)
    cols = _columns(elements, num_sets)
    sec, node, home, is_fill, local, req_ins, home_ins, req_set, home_set = cols
    stats = np.zeros((num_nodes, 3, 2), dtype=np.int64)
    dram = np.zeros(num_nodes, dtype=np.int64)
    transfers = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    masks = replay_sync_stream(
        l2, num_nodes, sec, is_fill, local, node, home,
        req_set, home_set, req_ins, home_ins,
        stats, dram, transfers, counters=counters, mode=mode,
    )
    return l2, masks, stats, dram, transfers


def _assert_equal(run_a, run_b, num_nodes, num_sets, label):
    l2a, masks_a, stats_a, dram_a, xfer_a = run_a
    l2b, masks_b, stats_b, dram_b, xfer_b = run_b
    for name, ma, mb in zip(("req_hit", "home_present", "home_hit"), masks_a, masks_b):
        assert ma.tolist() == mb.tolist(), f"{label}: {name} diverged"
    assert np.array_equal(stats_a, stats_b), f"{label}: stats diverged"
    assert np.array_equal(dram_a, dram_b), f"{label}: dram diverged"
    assert np.array_equal(xfer_a, xfer_b), f"{label}: transfers diverged"
    for gs in range(num_nodes * num_sets):
        assert l2a.lru_order(gs).tolist() == l2b.lru_order(gs).tolist(), (
            f"{label}: LRU state diverged in global set {gs}"
        )


class TestSpeculativeReplayParity:
    @given(geometry=GEOMETRIES, raw=ELEMENTS, warm=WARMUPS)
    @settings(max_examples=200, deadline=None)
    def test_array_vs_scalar_vs_oracle(self, geometry, raw, warm):
        num_nodes, num_sets, assoc = geometry
        elements = _normalise(raw, num_nodes)
        arr = _run_replay("array", num_nodes, num_sets, assoc, warm, elements)
        sca = _run_replay("scalar", num_nodes, num_sets, assoc, warm, elements)
        _assert_equal(arr, sca, num_nodes, num_sets, "array vs scalar")

        caches, masks, stats, dram, transfers = _oracle(
            num_nodes, num_sets, assoc, warm, elements
        )
        l2a, masks_a, stats_a, dram_a, xfer_a = arr
        for name, ma, mo in zip(("req_hit", "home_present", "home_hit"), masks_a, masks):
            assert ma.tolist() == mo.tolist(), f"oracle: {name} diverged"
        assert np.array_equal(stats_a, stats), "oracle: stats diverged"
        assert np.array_equal(dram_a, dram), "oracle: dram diverged"
        assert np.array_equal(xfer_a, transfers), "oracle: transfers diverged"
        for node in range(num_nodes):
            for s in range(num_sets):
                assert (
                    list(caches[node]._sets[s].keys())
                    == l2a.lru_order(node * num_sets + s).tolist()
                ), f"oracle: LRU state diverged at node {node} set {s}"

    @given(geometry=GEOMETRIES, raw=ELEMENTS, warm=WARMUPS)
    @settings(max_examples=100, deadline=None)
    def test_heuristic_mode_matches_forced(self, geometry, raw, warm):
        """mode=None (size heuristic) picks a path; outcome is identical."""
        num_nodes, num_sets, assoc = geometry
        elements = _normalise(raw, num_nodes)
        auto = _run_replay(None, num_nodes, num_sets, assoc, warm, elements)
        sca = _run_replay("scalar", num_nodes, num_sets, assoc, warm, elements)
        _assert_equal(auto, sca, num_nodes, num_sets, "heuristic vs scalar")


class TestRepairLoop:
    def _misprediction_case(self):
        """A stream whose speculation is provably wrong on element 1.

        Element 0 (remote requester, node 0, sector 5) misses and fills the
        requester set; element 1 re-reads sector 5 from node 0 and *hits*,
        so its speculated home fill must be repaired away.  Element 2 then
        probes the home set: had the phantom fill survived, sector 5 would
        be resident at the home and flip element 2's outcome.
        """
        num_nodes, num_sets, assoc = 2, 2, 2
        elements = [
            (5, 0, 1, False, True, True),
            (5, 0, 1, False, True, True),
            (5, 1, 1, False, False, True),  # local probe of home node's set
        ]
        return num_nodes, num_sets, assoc, elements

    def test_repair_fires_and_stays_exact(self):
        num_nodes, num_sets, assoc, elements = self._misprediction_case()
        counters = {
            k: 0
            for k in (
                "sync_elements", "sync_events", "spec_events", "spec_rounds",
                "spec_mispredicts", "sync_scalar", "sync_fallbacks",
            )
        }
        arr = _run_replay("array", num_nodes, num_sets, assoc, [], elements, counters)
        sca = _run_replay("scalar", num_nodes, num_sets, assoc, [], elements)
        _assert_equal(arr, sca, num_nodes, num_sets, "repaired array vs scalar")
        assert counters["spec_mispredicts"] > 0, "case failed to mispredict"
        assert counters["spec_rounds"] >= 2
        assert counters["sync_fallbacks"] == 0
        # The phantom fill must not have leaked: element 1 hit at the
        # requester, so only element 0's (real) fill reached the home set --
        # which is what element 2 then finds resident.
        req_hit, home_present, _ = arr[1]
        assert req_hit.tolist() == [False, True, True]
        assert home_present.tolist() == [True, False, False]

    def test_round_cap_falls_back_to_scalar(self, monkeypatch):
        """With the repair budget exhausted the exact fallback engages."""
        num_nodes, num_sets, assoc, elements = self._misprediction_case()
        monkeypatch.setattr(vw, "_REPAIR_ROUND_CAP", 1)
        counters = {
            k: 0
            for k in (
                "sync_elements", "sync_events", "spec_events", "spec_rounds",
                "spec_mispredicts", "sync_scalar", "sync_fallbacks",
            )
        }
        arr = _run_replay("array", num_nodes, num_sets, assoc, [], elements, counters)
        sca = _run_replay("scalar", num_nodes, num_sets, assoc, [], elements)
        assert counters["sync_fallbacks"] == 1
        _assert_equal(arr, sca, num_nodes, num_sets, "fallback vs scalar")

    @given(raw=ELEMENTS, warm=WARMUPS)
    @settings(max_examples=50, deadline=None)
    def test_tiny_round_cap_always_exact(self, raw, warm):
        """Even a 2-round budget (forcing frequent fallback) stays exact."""
        num_nodes, num_sets, assoc = 2, 2, 2
        elements = _normalise(raw, num_nodes)
        old = vw._REPAIR_ROUND_CAP
        vw._REPAIR_ROUND_CAP = 2
        try:
            arr = _run_replay("array", num_nodes, num_sets, assoc, warm, elements)
            sca = _run_replay("scalar", num_nodes, num_sets, assoc, warm, elements)
        finally:
            vw._REPAIR_ROUND_CAP = old
        _assert_equal(arr, sca, num_nodes, num_sets, "capped array vs scalar")


class TestEdgeCases:
    def test_empty_stream(self):
        l2 = ArrayLRU(4, 2)
        e = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=bool)
        out = replay_sync_stream(
            l2, 2, e, b, b, e, e, e, e, b, b,
            np.zeros((2, 3, 2), dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            np.zeros((2, 2), dtype=np.int64),
        )
        assert all(m.size == 0 for m in out)

    def test_all_fills_stream(self):
        """A stream of only home fills (free misses) replays exactly."""
        num_nodes, num_sets, assoc = 2, 2, 2
        elements = [(s, 0, 1, True, False, True) for s in (1, 3, 5, 1, 7)]
        arr = _run_replay("array", num_nodes, num_sets, assoc, [], elements)
        sca = _run_replay("scalar", num_nodes, num_sets, assoc, [], elements)
        _assert_equal(arr, sca, num_nodes, num_sets, "fills-only")
        caches, masks, stats, dram, transfers = _oracle(
            num_nodes, num_sets, assoc, [], elements
        )
        assert arr[1][1].all()  # every fill is a realised home event
        assert np.array_equal(arr[4], transfers)
