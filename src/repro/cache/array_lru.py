"""An array-backed, set-associative LRU cache.

This is the array twin of :class:`repro.cache.l2.SectoredCache`.  Where
``SectoredCache`` keeps one ``OrderedDict`` per set, :class:`ArrayLRU`
stores the whole cache as two ``(num_sets, assoc)`` matrices -- resident
sector tags and last-use stamps -- which the launch walk of
:mod:`repro.cache.compiled` (the C kernel or its Python mirror) updates in
place.

Equivalence with the ``OrderedDict`` model is exact, not approximate:

* LRU order *is* last-use order.  A strictly increasing stamp per probe
  reproduces ``move_to_end`` (hit refresh) and end-insertion (fill), and the
  victim with the minimum stamp is precisely ``popitem(last=False)``.
* Empty ways carry stamp 0 while real stamps start at 1, so fills take free
  ways before any eviction happens, as the dict model does implicitly.

The parity is enforced by property tests driving random access streams
through both implementations (``tests/cache/test_array_lru.py``,
``tests/cache/test_compiled.py``).
"""

from __future__ import annotations

import os
from typing import List, Tuple

import numpy as np

from repro.cache import compiled as _compiled
from repro.errors import SimulationError

__all__ = ["ArrayLRU"]

_EMPTY = -1


class ArrayLRU:
    """Set-associative LRU over sector ids, as tag/stamp matrices."""

    __slots__ = ("num_sets", "assoc", "tags", "stamp", "clock")

    def __init__(self, num_sets: int, assoc: int):
        # Deliberate seeded bug for the fuzz harness's self-test (see
        # docs/fuzzing.md): the vector engine's caches silently lose one
        # way, which legacy-vs-vector differential runs must catch.  The
        # env var is read per construction so tests can monkeypatch it.
        if assoc > 1 and "lru-assoc-off-by-one" in os.environ.get(
            "REPRO_FAULT_INJECT", ""
        ):
            assoc -= 1
        if num_sets < 1 or assoc < 1:
            raise SimulationError("cache needs >= 1 set and >= 1 way")
        self.num_sets = num_sets
        self.assoc = assoc
        self.tags = np.full((num_sets, assoc), _EMPTY, dtype=np.int64)
        self.stamp = np.zeros((num_sets, assoc), dtype=np.int64)
        self.clock = 0  # stamps handed out so far; next probe gets clock+1

    def walk(
        self,
        order: np.ndarray,
        sectors: np.ndarray,
        req_sets: np.ndarray,
        home_sets: np.ndarray,
        local: np.ndarray,
        req_ins: np.ndarray,
        home_ins: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sequential requester/home walk (:func:`repro.cache.compiled.walk`).

        Access ``i`` (visited in ``order``) probes ``req_sets[i]``, filling on
        a miss per ``req_ins``; a miss of a remotely homed access (``~local``)
        then probes ``home_sets[i]``, filling per ``home_ins``.  Returns
        ``(req_hit, home_hit)`` aligned with ``sectors``.
        """
        req_hit, home_hit, self.clock = _compiled.walk(
            self.tags, self.stamp, self.clock, order,
            sectors, req_sets, home_sets, local, req_ins, home_ins,
        )
        return req_hit, home_hit

    # ------------------------------------------------------------------
    # Scalar API (drop-in parity with SectoredCache, used by tests)
    # ------------------------------------------------------------------
    def access(self, sector: int, insert_on_miss: bool = True) -> bool:
        """Probe one sector; on a miss optionally fill it.  Returns hit?"""
        one = np.array([sector], dtype=np.int64)
        sets = one % self.num_sets
        yes = np.ones(1, dtype=bool)  # local: no home probe
        hit, _ = self.walk(
            np.zeros(1, dtype=np.int64), one, sets, sets,
            yes, np.array([insert_on_miss]), yes,
        )
        return bool(hit[0])

    def contains(self, sector: int) -> bool:
        """Presence check without LRU update or stats."""
        return bool((self.tags[sector % self.num_sets] == sector).any())

    def flush(self) -> None:
        """Invalidate everything (kernel-boundary coherence)."""
        self.tags.fill(_EMPTY)
        self.stamp.fill(0)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return int((self.tags != _EMPTY).sum())

    @property
    def capacity(self) -> int:
        return self.num_sets * self.assoc

    def occupancy_per_node(self, num_nodes: int) -> List[int]:
        """Resident-sector counts per fused-node slice.

        A fused cache lays node ``n``'s sets out contiguously at
        ``[n * sets_per_node, (n + 1) * sets_per_node)``; ``num_sets`` must
        divide evenly by ``num_nodes``.
        """
        if num_nodes <= 0 or self.num_sets % num_nodes:
            raise ValueError(
                f"{self.num_sets} sets do not split across {num_nodes} nodes"
            )
        per = (self.tags != _EMPTY).sum(axis=1)
        return [int(c) for c in per.reshape(num_nodes, -1).sum(axis=1)]

    def resident_sectors(self) -> np.ndarray:
        """All currently-cached sector ids (diagnostics/tests)."""
        present = self.tags[self.tags != _EMPTY]
        return np.sort(present)

    def lru_order(self, set_index: int) -> np.ndarray:
        """Resident sectors of one set, oldest first (tests/diagnostics)."""
        occupied = self.tags[set_index] != _EMPTY
        order = np.argsort(self.stamp[set_index][occupied], kind="stable")
        return self.tags[set_index][occupied][order]

    def __repr__(self) -> str:
        return (
            f"ArrayLRU(sets={self.num_sets}, ways={self.assoc}, "
            f"occ={self.occupancy}/{self.capacity})"
        )
