"""The vectorised memory-walk engine.

This module replays a flattened :class:`~repro.engine.trace_cache.LaunchTrace`
through the NUMA L2 hierarchy using array kernels instead of the legacy
per-sector Python loop.  The decomposition keeps results bit-exact with the
legacy walk (same byte counts, hit rates, traffic-class splits, LRU state):

1.  **First-touch faults resolve up front.**  Which node wins a first-touch
    race is a pure function of the (statically known) walk order -- iteration
    major, rotated wave order -- never of cache state, so every fault of the
    launch is resolved with one vectorised pass before the walk begins.
2.  **The per-TB L1 filter is precomputed.**  It is an always-insert
    fully-associative LRU over each TB's own stream, so its hit/miss outcome
    is strategy-independent: the cached trace holds the compacted survivor
    stream per filter capacity (:meth:`LaunchTrace.survivor_layout`), and
    the walk sees survivors only.
3.  **All per-node L2 slices live in one global :class:`ArrayLRU`** whose set
    index is ``node * num_sets + (sector % num_sets)``.  Node slices never
    share a set, so this is state-identical to separate caches, and an L2
    access only interacts with earlier accesses to the *same global set*.
4.  **One walk call per launch.**  The whole launch's survivor stream walks
    sequentially in :meth:`ArrayLRU.walk` -- requester probe, then home
    probe on a remote miss -- in the C kernel of :mod:`repro.cache.compiled`
    or, without a compiler, its Python mirror; the outcomes fold into the
    accumulators.

Accumulators that do not depend on cache state (crossbar request counts,
warp instructions, page-access profiles) are computed launch-wide with
``bincount``/fancy indexing instead of inside the walk.  What the trace does
not store is derived here: survivor pages, homes and set indices from the
survivor sectors, and full-trace pages only for first-touch resolution and
page-access profiles, the two readers of non-survivor sectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.cache.array_lru import ArrayLRU
from repro.engine.metrics import KernelMetrics
from repro.engine.plan import ExecutionPlan, LaunchPlan
from repro.engine.trace_cache import LaunchTrace, _concat_ranges

__all__ = ["survivor_homes", "walk_launch"]

# Traffic-class codes shared with the legacy engine (see simulator module).
_LL, _LR, _RL = 0, 1, 2


def _walk_order(
    order: np.ndarray, trip: int, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Element indices of a block layout in walk order.

    Block ``(tb, m)`` sits at ``tb * trip + m`` with its elements at
    ``offsets[b] : offsets[b] + lengths[b]``.  The walk is iteration-major,
    and iteration ``m`` visits threadblocks in wave ``order`` rotated left
    by ``7 * m`` (so no node always wins first-touch races).
    """
    ntb = order.size
    m = np.arange(trip, dtype=np.int64)
    shift = (m * 7) % max(1, ntb)
    pos = (np.arange(ntb, dtype=np.int64)[None, :] + shift[:, None]) % max(1, ntb)
    blocks = (order[pos] * trip + m[:, None]).ravel()
    return _concat_ranges(offsets[blocks], lengths[blocks])


def _accumulate(
    num_nodes: int,
    local: np.ndarray,
    node: np.ndarray,
    home: np.ndarray,
    req_hit: np.ndarray,
    home_present: np.ndarray,
    home_hit: np.ndarray,
    stats_acc: np.ndarray,
    dram_requests: np.ndarray,
    transfers: np.ndarray,
) -> None:
    """Fold the launch walk's outcome masks into the walk accumulators.

    Requester outcomes split LOCAL-LOCAL/LOCAL-REMOTE by locality; every
    realised home-side event is one interconnect transfer and a
    REMOTE-LOCAL access, missing through to the home DRAM.
    """
    code = node * 4 + local * 2 + req_hit
    c = np.bincount(code, minlength=num_nodes * 4).reshape(num_nodes, 4)
    stats_acc[:, _LL, 0] += c[:, 2]
    stats_acc[:, _LL, 1] += c[:, 3]
    stats_acc[:, _LR, 0] += c[:, 0]
    stats_acc[:, _LR, 1] += c[:, 1]
    dram_requests += c[:, 2]
    if home_present.any():
        hp = home_present
        transfers += np.bincount(
            home[hp] * num_nodes + node[hp], minlength=num_nodes * num_nodes
        ).reshape(num_nodes, num_nodes)
        code = home[hp] * 2 + home_hit[hp]
        c = np.bincount(code, minlength=num_nodes * 2).reshape(num_nodes, 2)
        stats_acc[:, _RL, 0] += c[:, 0]
        stats_acc[:, _RL, 1] += c[:, 1]
        dram_requests += c[:, 0]


def survivor_homes(config, plan: ExecutionPlan, trace: LaunchTrace) -> np.ndarray:
    """Home nodes of the launch's L1 survivors, paged from their sectors."""
    ssec = trace.survivor_layout(config.l1_filter_sectors)[1]
    pages = plan.space.pages_of_addresses(ssec * config.l2.sector_bytes)
    return plan.page_table.homes_of_pages(pages, toucher=0)


# ----------------------------------------------------------------------
# The launch walk
# ----------------------------------------------------------------------
def walk_launch(
    config,
    launch_index: int,
    lp: LaunchPlan,
    plan: ExecutionPlan,
    l2: ArrayLRU,
    trace: LaunchTrace,
    order: np.ndarray,
    page_counts: Optional[np.ndarray] = None,
    homes: Optional[np.ndarray] = None,
    session=None,
) -> tuple:
    """Walk one launch's cached trace; returns raw accumulators.

    ``l2`` is the fused global cache (``num_nodes * num_sets`` sets).
    Returns ``(metrics, xbar_requests, dram_requests, transfers, stats_acc)``
    in the same shapes the legacy walk produces, for a shared finalize step.

    ``homes`` optionally passes the precomputed home nodes of the L1
    survivors (the walk-memo key derivation already gathered them); only
    valid when the page table is fully mapped.
    """
    num_nodes = config.num_nodes
    num_sets = config.l2.num_sets
    sector_bytes = config.l2.sector_bytes
    remote_caching = config.remote_caching
    launch = lp.launch
    kernel = launch.kernel
    page_table = plan.page_table
    ntb = trace.num_threadblocks
    trip = trace.trip
    if session is None:
        session = obs.current()
    tr = session.tracer
    reg = session.counters
    strategy = plan.strategy_name

    metrics = KernelMetrics(
        kernel=kernel.name, launch_index=launch_index, num_nodes=num_nodes
    )
    faults_before = page_table.fault_count

    tb_nodes = np.asarray(lp.tb_nodes, dtype=np.int64)
    warps_per_tb = -(-kernel.block.count // config.warp_size)
    insts_per_tb = warps_per_tb * kernel.insts_per_thread * trip
    # The legacy loop accumulates per-TB, but repeated float64 addition of
    # one exact integer is exact while partial sums stay below 2**53, so
    # count-times-value reproduces it bit-identically.
    metrics.warp_insts_per_node += (
        np.bincount(tb_nodes, minlength=num_nodes) * float(insts_per_tb)
    )

    soff, ssec, ssite = trace.survivor_layout(config.l1_filter_sectors)
    block_tb = np.repeat(np.arange(ntb, dtype=np.int64), trip)

    # ------------------------------------------------------------------
    # Stage 1: resolve every first-touch fault of the launch up front, and
    # profile page accesses -- the only readers of non-survivor pages.
    # ------------------------------------------------------------------
    if trace.total_sectors and (page_table.has_unmapped or page_counts is not None):
        lengths = np.diff(trace.offsets)
        pages = plan.space.pages_of_addresses(trace.sectors * sector_bytes)
        node_per_sector = tb_nodes[np.repeat(block_tb, lengths)]
        if page_table.has_unmapped:
            # The walk visits block (tb, m) at step m * ntb + rotated
            # position, so the first-touch stream is just the blocks' sector
            # ranges concatenated in step order.
            touch_order = _walk_order(order, trip, trace.offsets, lengths)
            page_table.resolve_first_touch(
                pages[touch_order], node_per_sector[touch_order]
            )
        if page_counts is not None:
            for node in range(num_nodes):
                sel = node_per_sector == node
                if sel.any():
                    np.add.at(page_counts[node], pages[sel], 1)
    if homes is None:
        homes = survivor_homes(config, plan, trace)

    # ------------------------------------------------------------------
    # Stage 2: launch-wide, order-independent survivor attributes.
    # ------------------------------------------------------------------
    slengths = np.diff(soff)
    shome = np.asarray(homes, dtype=np.int64)
    s_node = tb_nodes[np.repeat(block_tb, slengths)]
    slocal = shome == s_node

    insert_at_home = np.array(
        [lp.policy_for(name).insert_at_home for name in trace.site_arrays],
        dtype=bool,
    )
    if insert_at_home.size:
        sins = insert_at_home[ssite]
    else:
        sins = np.empty(0, dtype=bool)

    # Global set indices: requester-side (own node's slice) and home-side.
    ssets = ssec % num_sets
    greq = s_node * num_sets + ssets
    ghome = shome * num_sets + ssets
    if remote_caching:
        req_ins = np.ones(ssec.size, dtype=bool)
    else:
        req_ins = slocal

    xbar_requests = np.bincount(s_node, minlength=num_nodes).astype(np.int64)
    dram_requests = np.zeros(num_nodes, dtype=np.int64)
    transfers = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    stats_acc = np.zeros((num_nodes, 3, 2), dtype=np.int64)

    # ------------------------------------------------------------------
    # Stage 3 (module docstring, point 4): one sequential walk call over the
    # whole launch in walk order -- the legacy walk's inner loop after the
    # L1 filter.
    # ------------------------------------------------------------------
    if ssec.size:
        w = _walk_order(order, trip, soff, slengths)
        with tr.span("native_walk", cat="walk", accesses=int(w.size)):
            req_hit, home_hit = l2.walk(w, ssec, greq, ghome, slocal, req_ins, sins)
        home_present = ~(slocal | req_hit)
        _accumulate(
            num_nodes, slocal, s_node, shome, req_hit, home_present, home_hit,
            stats_acc, dram_requests, transfers,
        )
        if reg.enabled:
            # Home-side bypasses: realised home events that missed and, per
            # the allocation's RONCE policy, did not insert at the home L2.
            bypass = home_present & ~home_hit & ~sins
            per_node = np.bincount(shome[bypass], minlength=num_nodes)
            for nd in np.nonzero(per_node)[0]:
                reg.inc("l2.bypass", int(per_node[nd]), node=int(nd), strategy=strategy)
    metrics.faults = page_table.fault_count - faults_before
    return metrics, xbar_requests, dram_requests, transfers, stats_acc
