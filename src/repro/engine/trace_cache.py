"""Per-launch sector-trace caching and replay.

Tracing -- evaluating every access site for every (threadblock, iteration)
and coalescing to unique sectors -- dominates simulation time, yet the
resulting sector streams do not depend on the strategy under test: homes and
threadblock placement differ per strategy, the addresses a kernel touches do
not.  A :class:`TraceCache` therefore traces each launch **once** and replays
the flattened trace across every strategy/config of an experiment matrix.

The cached form is a :class:`LaunchTrace`, which holds only what cannot be
recomputed cheaply: one flat ``sectors`` array laid out threadblock-major
(``tb`` outer, iteration ``m`` inner, access sites in program order, sectors
ascending within a site -- exactly the order the legacy walk visits them),
an ``offsets`` table slicing out any ``(tb, m)`` block, a ``site_index``
naming the access site of each sector (for per-array cache-policy lookup at
replay time), and, per L1 filter capacity, one lazily built **survivor
stream**.  The per-TB L1 sector filter is an always-insert
fully-associative LRU, so which sectors miss it is a pure function of the
TB's own stream, shared by every strategy; the stream keeps those sectors
with their site index and block offsets (filtered by the native
``l1_filter`` kernel of :mod:`repro.cache.compiled` over dense sector ids,
or without a compiler by the sequential Python filter).

Everything else the walk needs is derived where it is used: page numbers
(``sector * sector_bytes // page_size - first_page``) and L2 set indices
(``sector % num_sets``) depend on the layout and geometry under test, so
the walk computes them over survivors, and over the full trace only for
first-touch resolution and page-access profiles.

Cache keys are ``(launch_key, sector_bytes, page_size)``; ``launch_key``
holds the program object, so its identity cannot be recycled.
"""

from __future__ import annotations

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
        "site_index",
        "site_arrays",
        "offsets",
        "_survivor_streams",
    )

    def __init__(
        self,
        num_threadblocks: int,
        trip: int,
        sectors: np.ndarray,
        site_index: np.ndarray,
        site_arrays: List[str],
        offsets: np.ndarray,
    ):
        self.num_threadblocks = num_threadblocks
        self.trip = trip
        self.sectors = sectors
        self.site_index = site_index
        #: allocation name per site index (for insertion-policy lookup)
        self.site_arrays = site_arrays
        #: offsets[tb * trip + m] .. offsets[tb * trip + m + 1] slices a block
        self.offsets = offsets
        self._survivor_streams: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    @property
    def total_sectors(self) -> int:
        return int(self.sectors.size)

    @property
    def nbytes(self) -> int:
        """Bytes of every array this trace holds, survivor streams too."""
        arrays = [self.sectors, self.site_index, self.offsets]
        for stream in self._survivor_streams.values():
            arrays.extend(stream)
        return sum(a.nbytes for a in arrays)

    # ------------------------------------------------------------------
    def survivors(self, capacity: int) -> np.ndarray:
        """Mask of sectors that *miss* the per-TB L1 filter of ``capacity``.

        The L1 sector filter is a fully-associative always-insert LRU over
        each threadblock's own stream, so hit/miss is strategy-independent.
        Runs the native kernel over dense sector ids: ``sectors - min``
        while that range stays within a few times the stream length (the
        kernel's scratch arrays are sized to it), else one ``np.unique``
        inverse.  Without a loaded kernel the sequential filter runs
        instead.  Each call is one ``l1_filter`` span; replays reuse the
        result through :meth:`survivor_layout`.
        """
        sec = self.sectors
        with obs.current().tracer.span(
            "l1_filter", cat="trace", sectors=sec.size, capacity=capacity,
        ):
            if sec.size == 0:
                return np.empty(0, dtype=bool)
            if compiled.load() is None:
                return self._survivors_sequential(capacity)
            lo = int(sec.min())
            nids = int(sec.max()) - lo + 1
            if nids <= _DENSE_RANGE_FACTOR * sec.size:
                ids = sec - lo
            else:
                uniq, ids = np.unique(sec, return_inverse=True)
                nids = uniq.size
            return compiled.l1_filter(ids, self.offsets[:: self.trip], nids, capacity)

    def _survivors_sequential(self, capacity: int) -> np.ndarray:
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
        self, capacity: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The L1 survivor stream for the L2 walk, built once per capacity.

        Returns ``(offsets, sectors, site_index)`` of the sectors that miss
        the per-TB L1 filter, where ``offsets`` indexes ``(tb, m)`` blocks
        of the compacted arrays exactly like :attr:`offsets` does for the
        full trace.
        """
        stream = self._survivor_streams.get(capacity)
        if stream is None:
            mask = self.survivors(capacity)
            # Survivors before each element; sampled at block starts, that
            # is the compacted block offsets.
            before = np.zeros(mask.size + 1, dtype=np.int64)
            np.cumsum(mask, out=before[1:])
            stream = (before[self.offsets], self.sectors[mask], self.site_index[mask])
            self._survivor_streams[capacity] = stream
        return stream


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
    sites in program order, sectors ascending within one site.  Chunks
    arrive iteration-major in site order, so each is scattered straight
    into its ``(tb, m)`` blocks behind the earlier sites there: no sort.
    """
    tracer = launch_tracer(launch, space, sector_bytes)
    ntb = launch.num_threadblocks
    trip = tracer.trip

    site_arrays: List[str] = []
    site_rank_of: Dict[int, int] = {}
    chunks = []
    counts = np.zeros((ntb, trip), dtype=np.int64)
    for m in range(trip):
        for site in tracer.sites_at(m):
            sid = id(site)
            if sid not in site_rank_of:
                site_rank_of[sid] = len(site_arrays)
                site_arrays.append(launch.args[site.array])
            sectors, tb_counts = tracer.site_sectors_all_tbs(site, m)
            chunks.append((m, site_rank_of[sid], sectors, tb_counts))
            counts[:, m] += tb_counts

    offsets = np.zeros(ntb * trip + 1, dtype=np.int64)
    np.cumsum(counts.ravel(), out=offsets[1:])
    sectors = np.empty(int(offsets[-1]), dtype=np.int64)
    site_index = np.empty(sectors.size, dtype=np.int16)
    fill = offsets[:-1].reshape(ntb, trip).copy()
    for m, site_idx, chunk, tb_counts in chunks:
        dest = _concat_ranges(fill[:, m], tb_counts)
        sectors[dest] = chunk
        site_index[dest] = site_idx
        fill[:, m] += tb_counts
    return LaunchTrace(ntb, trip, sectors, site_index, site_arrays, offsets)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+l) for s, l in zip(starts, lengths)]``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    bases = np.repeat(starts, lengths)
    prefix = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=prefix[1:])
    return bases + (np.arange(total, dtype=np.int64) - np.repeat(prefix, lengths))


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class TraceCache:
    """LRU-bounded store of :class:`LaunchTrace` objects.

    Keys combine launch identity with the two layout parameters the sector
    stream depends on (allocations are page-aligned, so the page size moves
    their addresses).  Identity is the program *object* (identity hash) plus
    the launch index -- never ``id()`` alone, which the allocator recycles
    once a program is garbage-collected.  The budget bounds total cached
    bytes and is checked on each fetch, hits included, because an entry
    grows after insertion as replays build its survivor streams;
    least-recently-used entries are dropped while it overflows, never the
    one being returned.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        if max_bytes is None:
            max_bytes = env_int("REPRO_TRACE_CACHE_MB", 512) * 1024 * 1024
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0

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
        Every fetch, hit or miss, ends by enforcing the byte bound.
        """
        key = (launch_key, sector_bytes, space.page_size)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            trace = entry[0]
        else:
            self.misses += 1
            with obs.current().tracer.span(
                "trace.build", cat="trace", kernel=launch.kernel.name
            ):
                trace = build_launch_trace(launch, space, sector_bytes)
            self.builds += 1
            if trace.nbytes <= self.max_bytes:
                self._entries[key] = (trace, launch)
        self._evict()
        return trace

    def _evict(self) -> None:
        while len(self._entries) > 1 and self.cached_bytes > self.max_bytes:
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
