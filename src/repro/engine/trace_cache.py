"""Per-launch sector-trace caching and replay.

Tracing -- evaluating every access site for every (threadblock, iteration)
and coalescing to unique sectors -- dominates simulation time, yet the
resulting sector streams do not depend on the strategy under test: homes and
threadblock placement differ per strategy, the addresses a kernel touches do
not.  A :class:`TraceCache` therefore traces each launch **once** and replays
the flattened trace across every strategy/config of an experiment matrix.

The cached form is a :class:`LaunchTrace`: one flat ``sectors`` array laid
out threadblock-major (``tb`` outer, iteration ``m`` inner, access sites in
program order, sectors ascending within a site -- exactly the order the
legacy walk visits them), with an ``offsets`` table slicing out any
``(tb, m)`` block.  Alongside the sectors it stores:

* ``pages`` -- the page index of every sector (layout-dependent, so the
  cache key includes the page size),
* ``site_index`` -- which access site produced each sector, for per-array
  cache-policy lookup at replay time,
* lazily computed **L1 survivor masks** per filter capacity: the per-TB L1
  sector filter is an always-insert fully-associative LRU, so its outcome is
  a pure function of the TB's own stream and can be precomputed once and
  shared by every strategy (by the native ``l1_filter`` kernel of
  :mod:`repro.cache.compiled` over dense sector ids, or without a compiler
  by the sequential Python filter),
* lazily computed set-index arrays per L2 geometry (``sector % num_sets``).

Cache keys are ``(id(program), launch_index, sector_bytes, page_size)``; the
entry keeps a strong reference to the program so the id cannot be recycled.
Launches containing a data-dependent provider that declares itself
non-replayable (``provider.trace_cacheable = False``) are rebuilt per run
instead of cached.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cache import compiled
from repro.engine.trace import launch_tracer
from repro.errors import env_int
from repro.kir.program import KernelLaunch
from repro.memory.address_space import AddressSpace

__all__ = ["LaunchTrace", "TraceCache", "default_trace_cache"]

#: Dense ids come from ``sectors - min`` while the id range is at most this
#: many times the stream length (it held on every Fig-9 bench trace; the
#: widest was 327,677 ids), and from ``np.unique`` beyond it.
_DENSE_RANGE_FACTOR = 4


class LaunchTrace:
    """The flattened, replayable sector trace of one kernel launch."""

    __slots__ = (
        "num_threadblocks",
        "trip",
        "sectors",
        "pages",
        "site_index",
        "site_arrays",
        "offsets",
        "_survivors",
        "_set_indices",
        "_survivor_streams",
    )

    def __init__(
        self,
        num_threadblocks: int,
        trip: int,
        sectors: np.ndarray,
        pages: np.ndarray,
        site_index: np.ndarray,
        site_arrays: List[str],
    ):
        self.num_threadblocks = num_threadblocks
        self.trip = trip
        self.sectors = sectors
        self.pages = pages
        self.site_index = site_index
        #: allocation name per site index (for insertion-policy lookup)
        self.site_arrays = site_arrays
        #: offsets[tb * trip + m] .. offsets[tb * trip + m + 1] slices a block
        self.offsets: Optional[np.ndarray] = None  # filled by build_launch_trace
        self._survivors: Dict[int, np.ndarray] = {}
        self._set_indices: Dict[int, np.ndarray] = {}
        self._survivor_streams: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    def block(self, tb: int, m: int) -> slice:
        """Slice covering the ``(tb, m)`` trace block."""
        i = tb * self.trip + m
        return slice(self.offsets[i], self.offsets[i + 1])

    @property
    def total_sectors(self) -> int:
        return int(self.sectors.size)

    @property
    def nbytes(self) -> int:
        """Bytes of every array this trace holds, lazily derived ones too."""
        arrays = [self.sectors, self.pages, self.site_index]
        if self.offsets is not None:
            arrays.append(self.offsets)
        arrays.extend(self._survivors.values())
        arrays.extend(self._set_indices.values())
        for stream in self._survivor_streams.values():
            arrays.extend(stream)
        return sum(a.nbytes for a in arrays)

    # ------------------------------------------------------------------
    def set_indices(self, num_sets: int) -> np.ndarray:
        """``sector % num_sets`` for the whole trace, cached per geometry."""
        sets = self._set_indices.get(num_sets)
        if sets is None:
            sets = (self.sectors % num_sets).astype(np.int64)
            self._set_indices[num_sets] = sets
        return sets

    def survivors(self, capacity: int) -> np.ndarray:
        """Mask of sectors that *miss* the per-TB L1 filter, per capacity.

        The L1 sector filter is a fully-associative always-insert LRU over
        each threadblock's own stream, so hit/miss is strategy-independent.
        Computed once per capacity (an ``l1_filter`` span) and reused by
        every replay of this trace.
        """
        mask = self._survivors.get(capacity)
        if mask is None:
            with obs.current().tracer.span(
                "l1_filter", cat="trace", sectors=self.total_sectors,
                capacity=capacity,
            ):
                mask = self._compute_survivors(capacity)
            self._survivors[capacity] = mask
        return mask

    def _compute_survivors(self, capacity: int) -> np.ndarray:
        """The filter through the native kernel over dense sector ids.

        Ids are ``sectors - min`` while that range stays within a few times
        the stream length (the kernel's scratch arrays are sized to it),
        else one ``np.unique`` inverse.  Without a loaded kernel the
        sequential filter runs instead.
        """
        sec = self.sectors
        if sec.size == 0:
            return np.empty(0, dtype=bool)
        if compiled.load() is None:
            return self._compute_survivors_sequential(capacity)
        lo = int(sec.min())
        nids = int(sec.max()) - lo + 1
        if nids <= _DENSE_RANGE_FACTOR * sec.size:
            ids = sec - lo
        else:
            uniq, ids = np.unique(sec, return_inverse=True)
            nids = uniq.size
        return compiled.l1_filter(ids, self.offsets[:: self.trip], nids, capacity)

    def _compute_survivors_sequential(self, capacity: int) -> np.ndarray:
        """Per-TB filter in Python: the no-compiler fallback and the
        kernel's parity oracle in tests."""
        survive = np.empty(self.sectors.size, dtype=bool)
        trip = self.trip
        for tb in range(self.num_threadblocks):
            start = self.offsets[tb * trip]
            stop = self.offsets[(tb + 1) * trip]
            stream = self.sectors[start:stop]
            if stream.size == 0:
                continue
            uniq, first_idx, inv = np.unique(
                stream, return_index=True, return_inverse=True
            )
            if uniq.size <= capacity:
                # The TB's distinct footprint fits: nothing is ever evicted,
                # so a reference survives iff it is the first of its sector.
                out = np.zeros(stream.size, dtype=bool)
                out[first_idx] = True
                survive[start:stop] = out
            else:
                survive[start:stop] = _lru_filter_misses(inv, capacity)
        return survive

    # ------------------------------------------------------------------
    def survivor_layout(
        self, capacity: int, num_sets: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Survivor-compacted arrays for the L2 walk, with block offsets.

        Returns ``(offsets, sectors, sets, site_index)`` where ``offsets``
        indexes ``(tb, m)`` blocks of the compacted arrays exactly like
        :attr:`offsets` does for the full trace.
        """
        key = (capacity, num_sets)
        cached = self._survivor_streams.get(key)
        if cached is None:
            mask = self.survivors(capacity)
            lengths = np.diff(self.offsets)
            block_ids = np.repeat(np.arange(lengths.size), lengths)
            counts = np.bincount(block_ids[mask], minlength=lengths.size)
            offsets = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            cached = (
                offsets,
                self.sectors[mask],
                self.set_indices(num_sets)[mask],
                self.site_index[mask],
            )
            self._survivor_streams[key] = cached
        return cached


def _lru_filter_misses(stream: np.ndarray, capacity: int) -> np.ndarray:
    """Exact always-insert fully-associative LRU miss mask for one stream.

    ``stream`` holds dense ids (``np.unique`` inverse).  This is the
    reference sequential walk, only reached when a TB's distinct footprint
    exceeds the filter capacity; it mirrors the legacy engine's
    ``OrderedDict`` filter operation for operation, so parity is structural.
    """
    lru: OrderedDict = OrderedDict()
    out = np.empty(stream.size, dtype=bool)
    move_to_end = lru.move_to_end
    pop = lru.popitem
    for i, s in enumerate(stream.tolist()):
        if s in lru:
            move_to_end(s)
            out[i] = False
        else:
            out[i] = True
            lru[s] = None
            if len(lru) > capacity:
                pop(last=False)
    return out


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def build_launch_trace(
    launch: KernelLaunch, space: AddressSpace, sector_bytes: int
) -> LaunchTrace:
    """Trace every (threadblock, iteration, site) of a launch, flattened.

    Every site, affine or data-dependent, is evaluated for all
    threadblocks in one broadcast.  The final element order is identical
    to the legacy engine's visit order: threadblock-major, iteration next,
    sites in program order, sectors ascending within one site.
    """
    tracer = launch_tracer(launch, space, sector_bytes)
    ntb = launch.num_threadblocks
    trip = tracer.trip

    site_arrays: List[str] = []
    site_rank_of: Dict[int, int] = {}

    chunks_sec: List[np.ndarray] = []
    chunks_tb: List[np.ndarray] = []
    chunks_m: List[np.ndarray] = []
    chunks_rank: List[np.ndarray] = []
    chunks_site: List[np.ndarray] = []

    for m in range(trip):
        for rank, site in enumerate(tracer.sites_at(m)):
            sid = id(site)
            if sid not in site_rank_of:
                site_rank_of[sid] = len(site_arrays)
                site_arrays.append(launch.args[site.array])
            site_idx = site_rank_of[sid]
            sectors, counts = tracer.site_sectors_all_tbs(site, m)
            chunks_sec.append(sectors)
            chunks_tb.append(np.repeat(np.arange(ntb, dtype=np.int64), counts))
            chunks_m.append(np.full(sectors.size, m, dtype=np.int64))
            chunks_rank.append(np.full(sectors.size, rank, dtype=np.int64))
            chunks_site.append(np.full(sectors.size, site_idx, dtype=np.int16))

    if chunks_sec:
        sectors = np.concatenate(chunks_sec)
        tb_ids = np.concatenate(chunks_tb)
        m_ids = np.concatenate(chunks_m)
        ranks = np.concatenate(chunks_rank)
        site_index = np.concatenate(chunks_site)
        # Reorder to (tb, m, site-rank) blocks; lexsort is stable so each
        # site's ascending sector order is preserved.
        perm = np.lexsort((ranks, m_ids, tb_ids))
        sectors = sectors[perm]
        site_index = site_index[perm]
        block_ids = tb_ids[perm] * trip + m_ids[perm]
    else:
        sectors = np.empty(0, dtype=np.int64)
        site_index = np.empty(0, dtype=np.int16)
        block_ids = np.empty(0, dtype=np.int64)

    pages = (sectors * sector_bytes) // space.page_size - space.first_page

    trace = LaunchTrace(ntb, trip, sectors, pages, site_index, site_arrays)
    counts = np.bincount(block_ids, minlength=ntb * trip)
    offsets = np.zeros(ntb * trip + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    trace.offsets = offsets
    return trace


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class TraceCache:
    """LRU-bounded store of :class:`LaunchTrace` objects.

    Keys combine launch identity with the two layout parameters the sector
    and page streams depend on.  Identity is the program *object* (identity
    hash) plus the launch index -- never ``id()`` alone, which the allocator
    recycles once a program is garbage-collected.  The budget bounds total
    cached bytes; least-recently-used entries are dropped when it
    overflows.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        if max_bytes is None:
            max_bytes = env_int("REPRO_TRACE_CACHE_MB", 512) * 1024 * 1024
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_time_s = 0.0

    # ------------------------------------------------------------------
    def get(
        self,
        launch: KernelLaunch,
        launch_key: tuple,
        space: AddressSpace,
        sector_bytes: int,
    ) -> LaunchTrace:
        """Fetch (or build) the trace of one launch.

        ``launch_key`` is the caller's identity tuple for the launch --
        typically ``(program, launch_index)``; keying on the object keeps
        it alive for the entry's lifetime, so the key cannot be recycled.
        """
        key = (launch_key, sector_bytes, space.page_size)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]
        self.misses += 1
        t0 = time.perf_counter()
        with obs.current().tracer.span(
            "trace.build", cat="trace", kernel=launch.kernel.name
        ):
            trace = build_launch_trace(launch, space, sector_bytes)
        self.build_time_s += time.perf_counter() - t0
        self.builds += 1
        tracer_cacheable = all(
            getattr(site.provider, "trace_cacheable", True)
            for site in launch.kernel.accesses
            if site.provider is not None
        )
        if tracer_cacheable and trace.nbytes <= self.max_bytes:
            self._entries[key] = (trace, launch)
            self._evict()
        return trace

    def _evict(self) -> None:
        while (
            len(self._entries) > 1
            and sum(t.nbytes for t, _ in self._entries.values()) > self.max_bytes
        ):
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def cached_bytes(self) -> int:
        return sum(t.nbytes for t, _ in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_time_s": self.build_time_s,
            "entries": len(self._entries),
            "bytes": self.cached_bytes,
        }


_DEFAULT_CACHE: Optional[TraceCache] = None


def default_trace_cache() -> TraceCache:
    """The process-wide trace cache used when none is passed explicitly."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = TraceCache()
    return _DEFAULT_CACHE
