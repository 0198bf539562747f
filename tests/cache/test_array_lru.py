"""Property-based parity: ArrayLRU vs the OrderedDict SectoredCache.

The vector engine's correctness rests on :class:`ArrayLRU` being a bit-exact
twin of :class:`SectoredCache` -- same hit/miss outcome for every access,
same eviction victims, same LRU recency order, including the insert-bypass
(RONCE home-side) path.  These properties drive random streams through both
and compare everything observable, on both walk legs: the default one (the
C kernel when it loads) and the Python mirror (``forced_fallback()``).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArrayLRU, SectoredCache
from repro.cache.compiled import forced_fallback
from repro.errors import SimulationError

GEOMETRIES = st.tuples(
    st.integers(min_value=1, max_value=8),  # sets
    st.integers(min_value=1, max_value=4),  # ways
)

# Small sector universe relative to capacity, so streams exercise hits,
# evictions and re-fills rather than missing forever.
STREAMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # sector
        st.booleans(),  # insert_on_miss
    ),
    max_size=200,
)


def _lru_orders(dict_cache: SectoredCache):
    """Per-set resident sectors, oldest first, from the reference model."""
    return [list(s.keys()) for s in dict_cache._sets]


def _walk_stream(arr: ArrayLRU, stream):
    """One walk call over a requester-only stream; returns the hit list."""
    sectors = np.array([s for s, _ in stream], dtype=np.int64)
    sets = sectors % arr.num_sets
    yes = np.ones(sectors.size, dtype=bool)
    inserts = np.array([i for _, i in stream], dtype=bool)
    hits, _ = arr.walk(np.arange(sectors.size), sectors, sets, sets, yes, inserts, yes)
    return hits.tolist()


#: Walk legs every scalar test runs on: the default one (the C kernel when
#: it loads, else the mirror) and the Python mirror.
LEGS = (contextlib.nullcontext, forced_fallback)


class TestScalarParity:
    @given(geometry=GEOMETRIES, stream=STREAMS)
    @settings(max_examples=200, deadline=None)
    def test_access_stream_parity(self, geometry, stream):
        sets, ways = geometry
        for leg in LEGS:
            ref = SectoredCache(sets, ways)
            arr = ArrayLRU(sets, ways)
            with leg():
                for sector, insert in stream:
                    assert ref.access(sector, insert_on_miss=insert) == arr.access(
                        sector, insert_on_miss=insert
                    )
            assert arr.clock == len(stream)
            assert ref.occupancy == arr.occupancy
            assert np.array_equal(ref.resident_sectors(), arr.resident_sectors())
            for s in range(sets):
                assert _lru_orders(ref)[s] == arr.lru_order(s).tolist()

    @given(geometry=GEOMETRIES, stream=STREAMS)
    @settings(max_examples=100, deadline=None)
    def test_flush_mid_stream(self, geometry, stream):
        sets, ways = geometry
        half = len(stream) // 2
        for leg in LEGS:
            ref = SectoredCache(sets, ways)
            arr = ArrayLRU(sets, ways)
            with leg():
                for sector, insert in stream[:half]:
                    ref.access(sector, insert_on_miss=insert)
                    arr.access(sector, insert_on_miss=insert)
                ref.flush()
                arr.flush()
                assert arr.occupancy == 0
                for sector, insert in stream[half:]:
                    assert ref.access(sector, insert_on_miss=insert) == arr.access(
                        sector, insert_on_miss=insert
                    )
            assert np.array_equal(ref.resident_sectors(), arr.resident_sectors())


class TestBatchParity:
    @given(
        geometry=GEOMETRIES,
        chunks=st.lists(STREAMS, min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_chunked_batches_compose(self, geometry, chunks):
        """Splitting a stream across walk calls == one access at a time."""
        sets, ways = geometry
        for leg in LEGS:
            ref = SectoredCache(sets, ways)
            arr = ArrayLRU(sets, ways)
            for stream in chunks:
                ref_hits = [ref.access(s, insert_on_miss=i) for s, i in stream]
                with leg():
                    assert _walk_stream(arr, stream) == ref_hits
            assert np.array_equal(ref.resident_sectors(), arr.resident_sectors())
            for s in range(sets):
                assert _lru_orders(ref)[s] == arr.lru_order(s).tolist()


class TestBasics:
    def test_empty_batch(self):
        e = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=bool)
        for leg in LEGS:
            arr = ArrayLRU(4, 2)
            with leg():
                req_hit, home_hit = arr.walk(e, e, e, e, b, b, b)
            assert req_hit.size == home_hit.size == 0 and arr.clock == 0

    def test_bypass_does_not_fill(self):
        for leg in LEGS:
            arr = ArrayLRU(4, 2)
            with leg():
                assert not arr.access(10, insert_on_miss=False)
                assert not arr.access(10, insert_on_miss=False)
            assert arr.occupancy == 0

    def test_eviction_order(self):
        for leg in LEGS:
            arr = ArrayLRU(1, 2)
            with leg():
                arr.access(0)
                arr.access(1)
                arr.access(0)  # 0 is MRU
                arr.access(2)  # evicts 1
            assert arr.contains(0) and arr.contains(2) and not arr.contains(1)

    def test_contains_no_state_change(self):
        for leg in LEGS:
            arr = ArrayLRU(4, 2)
            with leg():
                arr.access(10)
            before = (arr.clock, arr.stamp.copy())
            assert arr.contains(10) and not arr.contains(11)
            assert arr.clock == before[0]
            assert np.array_equal(arr.stamp, before[1])

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            ArrayLRU(0, 2)

    def test_repr_and_capacity(self):
        arr = ArrayLRU(8, 4)
        assert arr.capacity == 32
        assert "ArrayLRU" in repr(arr)
