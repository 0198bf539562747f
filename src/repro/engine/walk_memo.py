"""Launch-walk memoisation: skip walks whose outcome is already known.

Experiment matrices re-walk *identical* launches constantly: ablation
sweeps where only CRB differs leave most kernels' placement untouched,
``run_matrix`` runs the same workload under strategies that agree on
placement for locality classes they don't specialise, and repeated runs of
one strategy (scaling studies, CI) repeat every walk verbatim.  The walk is
a pure function of a small key, so those repeats can return cached
accumulators instead of replaying millions of probes.

Soundness
---------
A memo hit must reproduce *every* observable effect of the walk it skips.
:func:`eligible` therefore admits a launch only when:

* the launch has *clean lineage* and *dead outgoing state*.  With
  ``config.flush_l2_between_kernels`` both hold for every launch: the walk
  starts from a flushed L2 (incoming state is part of the key by
  construction) and the next launch flushes again, so nothing reads the
  walk's L2 mutation.  Without flushing, only the **first** launch has
  clean lineage (the L2 is empty at construction) and only the **last**
  launch's outgoing state is dead -- and then only when counters are off,
  because end-of-run occupancy gauges read raw cache state.  A
  single-launch program with counters disabled is therefore memoisable
  even in no-flush (monolithic) mode; a multi-launch no-flush program is
  not, since launch 0's outgoing state feeds launch 1's walk.
* the page table is fully mapped (``not page_table.has_unmapped``) -- a
  first-touch walk *mutates* placement (Batch+FT), which a skipped walk
  would silently drop, and makes ``homes`` depend on walk order.
* page-access profiling is off -- ``page_counts`` accumulation is a side
  effect the memo does not capture.

These two exclusions are also what let the key see L1 survivors only: the
walk reads the homes of sectors that hit the per-TB L1 filter for nothing
but first-touch resolution and ``page_counts``, so an eligible walk is a
function of its survivors' homes.

The key then pins every remaining input of the walk:

* the :class:`LaunchTrace` **object** (identity hash, strong reference --
  an entry keeps its trace alive so the identity can never be recycled,
  mirroring ``TraceCache``'s keying),
* the threadblock placement (``tb_nodes`` bytes),
* the per-array insertion policies (RTWICE/RONCE et al., the only policy
  bit the walk reads),
* a digest of the L1 survivors' home nodes (page placement differs
  across strategies even for one trace),
* the cache/topology geometry the walk depends on.

Entries store the walk's raw outputs (per-node accumulators, warp
instruction counts, fault count) -- a few KiB each -- and rebuild a fresh
:class:`KernelMetrics` per hit, so downstream finalisation and perf
modelling never alias memoised state.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.engine.metrics import KernelMetrics
from repro.errors import env_int

__all__ = ["WalkMemo", "default_walk_memo", "memo_enabled"]


def memo_enabled() -> bool:
    """Launch-walk memoisation is on unless ``REPRO_WALK_MEMO=0``."""
    return os.environ.get("REPRO_WALK_MEMO", "1") != "0"


def eligible(
    config,
    plan,
    page_counts,
    launch_index: int = 0,
    num_launches: int = 1,
    counters_enabled: bool = False,
) -> bool:
    """Is this launch's walk sound to memoise?  (See module docstring.)

    The trailing parameters refine the clean-lineage check for no-flush
    configurations; their defaults (first launch of a single-launch run,
    counters off) keep three-argument callers exactly as permissive as
    before for flush-mode configs.
    """
    if plan.page_table.has_unmapped or page_counts is not None:
        return False
    if config.flush_l2_between_kernels:
        return True
    lineage_clean = launch_index == 0
    outgoing_dead = launch_index == num_launches - 1 and not counters_enabled
    return lineage_clean and outgoing_dead


class WalkMemo:
    """LRU store of launch-walk results keyed on the walk's full input set."""

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is None:
            max_entries = env_int("REPRO_WALK_MEMO_ENTRIES", 256)
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(trace, lp, config, homes: np.ndarray) -> tuple:
        """Key one launch walk; ``homes`` holds the L1 survivors' home nodes.

        Callers must have established :func:`eligible` first -- the key
        encodes a clean-lineage walk and is meaningless otherwise.
        """
        policies = tuple(
            bool(lp.policy_for(name).insert_at_home) for name in trace.site_arrays
        )
        homes_digest = hashlib.blake2b(
            np.ascontiguousarray(homes).tobytes(), digest_size=16
        ).digest()
        geometry = (
            config.num_nodes,
            config.l2.num_sets,
            config.l2.assoc,
            config.l1_filter_sectors,
            config.remote_caching,
            config.warp_size,
        )
        tb_bytes = np.ascontiguousarray(lp.tb_nodes).tobytes()
        return (trace, tb_bytes, policies, homes_digest, geometry, "flush-clean")

    # ------------------------------------------------------------------
    def get(self, key: tuple):
        """Rebuilt ``(metrics, xbar, dram, transfers, stats)`` or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        kernel, launch_index, num_nodes, warp_insts, faults, arrays = entry
        metrics = KernelMetrics(
            kernel=kernel, launch_index=launch_index, num_nodes=num_nodes
        )
        metrics.warp_insts_per_node[:] = warp_insts
        metrics.faults = faults
        return (metrics,) + tuple(a.copy() for a in arrays)

    def put(self, key: tuple, metrics: KernelMetrics, xbar, dram, transfers, stats):
        """Record one walk's raw outputs (copies; caller keeps its arrays)."""
        self._entries[key] = (
            metrics.kernel,
            metrics.launch_index,
            metrics.num_nodes,
            metrics.warp_insts_per_node.copy(),
            metrics.faults,
            (xbar.copy(), dram.copy(), transfers.copy(), stats.copy()),
        )
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


_DEFAULT_MEMO: Optional[WalkMemo] = None


def default_walk_memo() -> WalkMemo:
    """Process-wide memo shared across simulators (strategy sweeps)."""
    global _DEFAULT_MEMO
    if _DEFAULT_MEMO is None:
        _DEFAULT_MEMO = WalkMemo()
    return _DEFAULT_MEMO
