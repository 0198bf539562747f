"""An array-backed, batch-oriented, set-associative LRU cache.

This is the vectorised twin of :class:`repro.cache.l2.SectoredCache`.  Where
``SectoredCache`` keeps one ``OrderedDict`` per set and pays a Python
round-trip per sector, :class:`ArrayLRU` stores the whole cache as two
``(num_sets, assoc)`` matrices -- resident sector tags and last-use stamps --
and services a whole batch of probes per call.

Equivalence with the ``OrderedDict`` model is exact, not approximate:

* LRU order *is* last-use order.  A strictly increasing stamp per access
  reproduces ``move_to_end`` (hit refresh) and end-insertion (fill), and the
  victim with the minimum stamp is precisely ``popitem(last=False)``.
* Empty ways carry stamp 0 while real stamps start at 1, so fills take free
  ways before any eviction happens, as the dict model does implicitly.
* Within one batch, accesses that collide on a set are processed in batch
  order in successive *rounds* (one access per set per round), preserving the
  per-set sequential semantics the simulator's results depend on.

The parity is enforced by property tests driving random access streams
through both implementations (``tests/cache/test_array_lru.py``).
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from repro.cache import compiled as _compiled
from repro.errors import SimulationError

__all__ = ["ArrayLRU", "BACKENDS"]

_EMPTY = -1

#: Walk cores: ``numpy`` (batched rounds / stack property, driven by the
#: vector engine's free/sync walk) and ``native`` (the sequential C launch
#: walk of :mod:`repro.cache.compiled`, built on first use; degrades to
#: ``numpy`` when no compiler is reachable).
BACKENDS = ("numpy", "native")


class ArrayLRU:
    """Set-associative LRU over sector ids, batched numpy implementation."""

    __slots__ = (
        "num_sets", "assoc", "tags", "stamp", "clock", "accesses", "hits",
        "_want_native",
    )

    def __init__(self, num_sets: int, assoc: int, backend: str = "numpy"):
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
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown ArrayLRU backend {backend!r}; choose from {BACKENDS}"
            )
        # The native kernel is resolved (built or loaded) on first use, never
        # here: constructing a cache must stay free of compiler calls.
        self._want_native = backend == "native"
        self.num_sets = num_sets
        self.assoc = assoc
        self.tags = np.full((num_sets, assoc), _EMPTY, dtype=np.int64)
        self.stamp = np.zeros((num_sets, assoc), dtype=np.int64)
        self.clock = 0  # stamps handed out so far; next access gets clock+1
        self.accesses = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # Batched probing (the simulator hot path)
    # ------------------------------------------------------------------
    def probe_batch(
        self,
        sectors: np.ndarray,
        sets: np.ndarray,
        insert: np.ndarray,
    ) -> np.ndarray:
        """Probe a sequence of sectors, in order; returns the hit mask.

        ``sets`` must be ``sector % num_sets`` (precomputed by the caller so
        replayed traces don't redo the modulo); ``insert`` is a per-access
        fill-on-miss mask (``False`` models RONCE's home-side bypass and the
        no-remote-caching requester bypass).  State updates are equivalent to
        probing the sectors one at a time against an ``OrderedDict`` LRU.

        Accesses colliding on a set are split into rounds (the k-th access of
        a set goes to round k) so each round touches every set at most once
        and can be processed with pure gather/scatter; within a set the
        original batch order is preserved, which keeps LRU state bit-exact
        with the sequential model.  Collision detection is one ``bincount``
        (no sort); collision-free batches -- per-threadblock streams, the
        common case -- take a single-round fast path with no argsort at all.
        """
        hit_mask = self._probe(sectors, sets, insert)
        self.accesses += sectors.size
        self.hits += int(hit_mask.sum())
        return hit_mask

    def replay_segments(
        self,
        sectors: np.ndarray,
        sets: np.ndarray,
        insert: np.ndarray,
    ) -> np.ndarray:
        """Replay per-set event substreams in stamp arithmetic; returns hits.

        Identical per-set sequential semantics to :meth:`probe_batch` (each
        set's events apply in batch order; hit refreshes recency, miss fills
        per ``insert``) but **stats-neutral**: ``accesses``/``hits`` are left
        untouched.  This is the sync-walk kernel of the vectorised engine --
        speculative replays may run a substream several times (restoring the
        touched rows in between via :meth:`save_rows`/:meth:`restore_rows`),
        so per-probe counting is the caller's job, done once on the final
        converged outcome.
        """
        return self._probe(sectors, sets, insert)

    def walk_native(
        self,
        order: np.ndarray,
        sectors: np.ndarray,
        req_sets: np.ndarray,
        home_sets: np.ndarray,
        local: np.ndarray,
        req_ins: np.ndarray,
        home_ins: np.ndarray,
    ):
        """Sequential requester/home walk in the native kernel.

        Access ``i`` (visited in ``order``) probes ``req_sets[i]``, filling on
        a miss per ``req_ins``; a miss of a remotely homed access (``~local``)
        then probes ``home_sets[i]``, filling per ``home_ins``.  Returns
        ``(req_hit, home_hit)`` aligned with ``sectors``.  Stats-neutral like
        :meth:`replay_segments`; requires :attr:`backend` ``== "native"``.
        """
        kernel = _compiled.load() if self._want_native else None
        if kernel is None:
            raise SimulationError(
                "walk_native needs ArrayLRU(backend='native') with the kernel "
                f"loaded ({_compiled.fallback_reason() or 'this cache is numpy-backed'})"
            )
        req_hit, home_hit, self.clock = _compiled.walk(
            kernel, self.tags, self.stamp, self.clock, order,
            sectors, req_sets, home_sets, local, req_ins, home_ins,
        )
        return req_hit, home_hit

    # ------------------------------------------------------------------
    # Row snapshot/restore (speculative replay support)
    # ------------------------------------------------------------------
    def save_rows(self, sets: np.ndarray):
        """Copies of the tag/stamp rows of ``sets`` (for later restore)."""
        return self.tags[sets].copy(), self.stamp[sets].copy()

    def restore_rows(self, sets: np.ndarray, saved) -> None:
        """Write back rows captured by :meth:`save_rows` (same ``sets``)."""
        tags, stamp = saved
        self.tags[sets] = tags
        self.stamp[sets] = stamp

    def _probe(
        self,
        sectors: np.ndarray,
        sets: np.ndarray,
        insert: np.ndarray,
    ) -> np.ndarray:
        """Shared probe core: state updates + hit mask, no stats."""
        n = sectors.size
        if n == 0:
            return np.empty(0, dtype=bool)
        base = self.clock + 1
        self.clock += n
        tags, stamp = self.tags, self.stamp
        if n > 1:
            # One O(n) bincount finds the max per-set collision depth; the
            # argsort-based round partition is only built when a batch
            # actually collides (occ/order are never computed otherwise).
            counts = np.bincount(sets, minlength=self.num_sets)
            nrounds = int(counts.max())
        else:
            nrounds = 1
        if nrounds == 1:
            rows = tags[sets]
            eq = rows == sectors[:, None]
            hit_mask = eq.any(axis=1)
            if hit_mask.any():
                hs = np.nonzero(hit_mask)[0]
                ways = eq[hs].argmax(axis=1)
                stamp[sets[hs], ways] = base + hs
            fill = ~hit_mask
            fill &= insert
            if fill.any():
                fs = np.nonzero(fill)[0]
                fsets = sets[fs]
                victims = stamp[fsets].argmin(axis=1)
                tags[fsets, victims] = sectors[fs]
                stamp[fsets, victims] = base + fs
        else:
            if insert.all():
                # All-insert batches (the walk's free path) skip the round
                # loop entirely: LRU is a stack algorithm, so hits and final
                # state follow from per-set reuse windows (see _probe_stack).
                hit_mask = self._probe_stack(sectors, sets, base, counts)
                if hit_mask is not None:
                    return hit_mask
            # Dense round layout: one column per colliding set, one row per
            # round (the k-th event of a set lands in row k).  The round loop
            # then runs on fixed-shape row *views* and a compact working copy
            # of the active rows -- no per-round index construction, fancy
            # gathers, or branch bookkeeping -- which cuts the per-round
            # dispatch overhead roughly in half versus slicing a
            # round-partitioned index list.  Deep-but-narrow batches (the
            # NUMA walk's hot-set streams) are exactly rounds * dispatch
            # bound, so this constant is what the sync path's array/scalar
            # crossover is calibrated against.
            order = np.argsort(sets, kind="stable")
            ss = sets[order]
            newgrp = np.empty(n, dtype=bool)
            newgrp[0] = True
            np.not_equal(ss[1:], ss[:-1], out=newgrp[1:])
            idx = np.arange(n, dtype=np.int64)
            # occurrence rank of each access within its set group (= row),
            # dense column id per distinct set
            occ = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
            col = np.cumsum(newgrp) - 1
            nact = int(col[-1]) + 1
            act = ss[newgrp]

            # Columns sorted by depth, deepest first: a set with d events
            # fills rows 0..d-1 of its column, so round r's live events are
            # exactly the first ``width[r]`` columns -- every round works on
            # contiguous row *views* with no padding lanes and no per-round
            # index construction.
            counts_act = counts[act]
            corder = np.argsort(-counts_act, kind="stable")
            rank = np.empty(nact, dtype=np.int64)
            rank[corder] = np.arange(nact, dtype=np.int64)
            col = rank[col]
            act = act[corder]
            width = np.searchsorted(
                -counts_act[corder], -np.arange(nrounds), side="left"
            )

            sec2d = np.empty((nrounds, nact), dtype=np.int64)
            st2d = np.empty((nrounds, nact), dtype=np.int64)
            hit2d = np.empty((nrounds, nact), dtype=bool)
            sec2d[occ, col] = sectors[order]
            st2d[occ, col] = base + order
            all_ins = bool(insert.all())
            if not all_ins:
                ins2d = np.zeros((nrounds, nact), dtype=bool)
                ins2d[occ, col] = insert[order]
            lanes = np.arange(nact, dtype=np.int64)

            wtags = tags[act]
            wstamp = stamp[act]
            for r in range(nrounds):
                wr = width[r]
                ln = lanes[:wr]
                wt = wtags[:wr]
                sec_r = sec2d[r, :wr]
                eq = wt == sec_r[:, None]
                # Matching ways get stamp -1 (real stamps are >= 0), so one
                # argmin yields the hit way on a hit and the LRU victim on a
                # miss -- no separate any/argmax/where round trips.
                masked = np.where(eq, -1, wstamp[:wr])
                way = masked.argmin(axis=1)
                hit = eq[ln, way]
                if all_ins:
                    # Hit or miss, every lane writes: hits re-store their own
                    # tag (a no-op) and refresh the stamp, misses fill the
                    # LRU victim.
                    wt[ln, way] = sec_r
                    wstamp[ln, way] = st2d[r, :wr]
                else:
                    write = hit | ins2d[r, :wr]
                    rows = np.nonzero(write)[0]
                    w = way[rows]
                    wt[rows, w] = sec_r[rows]
                    wstamp[rows, w] = st2d[r, :wr][rows]
                hit2d[r, :wr] = hit
            tags[act] = wtags
            stamp[act] = wstamp
            hit_mask = np.empty(n, dtype=bool)
            hit_mask[order] = hit2d[occ, col]
        return hit_mask

    # Flat-gather volume above which the stack path falls back to the round
    # loop: the distinct-sector count over ambiguous reuse windows gathers
    # sum(window lengths) elements, which is ~1M per *workload* on the bench
    # traces -- a single batch ever nearing this bound means degenerate
    # collision structure where the dense round loop is the safer bet.
    _STACK_WINDOW_BUDGET = 20_000_000

    def _probe_stack(self, sectors, sets, base, counts):
        """All-insert batch probe via the LRU stack property; no round loop.

        With ``insert`` all-True every set behaves as a fully-associative LRU
        stack: an access hits iff the number of *distinct* same-set sectors
        referenced since its previous occurrence is below ``assoc``, and the
        final contents of a set are exactly its ``assoc`` most recently used
        distinct sectors.  Both follow from per-set reuse windows, so the
        whole batch resolves with a few argsorts and gathers instead of
        ``max collision depth`` sequential rounds.

        Warm cache state participates as *virtual* events: each resident of
        a touched set is prepended (oldest first) as a pseudo-access before
        the batch, so windows spanning the batch boundary count live
        residents exactly as the sequential model would.  Returns the hit
        mask, or ``None`` to fall back to the round loop when the ambiguous
        window volume exceeds the budget.
        """
        n = sectors.size
        assoc = self.assoc
        tags, stamp = self.tags, self.stamp
        idx = np.arange(n, dtype=np.int64)

        # Per-set grouping of the batch (dense column id + within-set rank).
        sperm = np.argsort(sets, kind="stable")
        ss = sets[sperm]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(ss[1:], ss[:-1], out=newgrp[1:])
        occ = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
        col = np.cumsum(newgrp) - 1
        nact = int(col[-1]) + 1
        act = ss[newgrp]
        cnt = counts[act]

        # Residents of the touched sets, per set oldest-first (virtual-event
        # order).  Empty ways carry stamp 0 and real stamps are >= 1, so one
        # row argsort puts empties first and residents in recency order.
        rst = stamp[act]
        rord = np.argsort(rst, axis=1, kind="stable")
        st_sorted = np.take_along_axis(rst, rord, axis=1)
        tg_sorted = np.take_along_axis(tags[act], rord, axis=1)
        occupied = st_sorted > 0
        nres = occupied.sum(axis=1).astype(np.int64)
        res_sec = tg_sorted[occupied]  # row-major: per set, oldest..newest
        res_st = st_sorted[occupied]

        # Extended per-set event stream: virtual resident events, then the
        # batch's real events, sets laid out contiguously ("D domain").
        ext = nres + cnt
        eoff = np.zeros(nact + 1, dtype=np.int64)
        np.cumsum(ext, out=eoff[1:])
        ntot = int(eoff[-1])
        d_real = eoff[col] + nres[col] + occ
        esec = np.empty(ntot, dtype=np.int64)
        est = np.empty(ntot, dtype=np.int64)
        is_real = np.zeros(ntot, dtype=bool)
        is_real[d_real] = True
        esec[d_real] = sectors[sperm]
        est[d_real] = base + sperm
        d_virt = ~is_real
        esec[d_virt] = res_sec
        est[d_virt] = res_st  # old stamps, all < base: recency stays exact
        setcol = np.repeat(np.arange(nact, dtype=np.int64), ext)

        # Previous same-(set, sector) occurrence of every extended event, via
        # one fused-key argsort with ties keeping D order (stream order).
        kmax = int(esec.max())
        if nact * (kmax + 1) >= (1 << 62):  # fused key would overflow int64
            return None
        key = setcol * (kmax + 1) + esec
        darange = np.arange(ntot, dtype=np.int64)
        if nact * (kmax + 1) < (1 << 62) // max(ntot, 1):
            # Fusing the D index uniquifies the key, buying the faster
            # unstable sort while preserving exactly the stable order.
            perm2 = np.argsort(key * ntot + darange)
        else:
            perm2 = np.argsort(key, kind="stable")
        pk = key[perm2]
        same = np.zeros(ntot, dtype=bool)
        np.equal(pk[1:], pk[:-1], out=same[1:])
        prev = np.full(ntot, -1, dtype=np.int64)
        rep = np.nonzero(same)[0]
        prev[perm2[rep]] = perm2[rep - 1]

        # Stack-property hit test.  Residents are distinct per set, so only
        # real events can have prev >= 0; the reuse window (prev, i) counts
        # both virtual and real in-between events, exactly the stack depth s
        # sits at when re-referenced.
        win = darange - prev - 1
        valid = prev >= 0
        hit_d = valid & (win < assoc)
        ambiguous = np.nonzero(valid & (win >= assoc))[0]
        if ambiguous.size:
            # Deep windows need the distinct count: an event j in (prev, i)
            # is the *first* occurrence of its sector inside the window iff
            # its own prev lies at or before the window start.
            lens = win[ambiguous]
            total = int(lens.sum())
            if total > self._STACK_WINDOW_BUDGET:
                return None
            prefix = np.zeros(lens.size, dtype=np.int64)
            np.cumsum(lens[:-1], out=prefix[1:])
            reps = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
            flat = (
                prev[ambiguous][reps]
                + 1
                + np.arange(total, dtype=np.int64)
                - prefix[reps]
            )
            first_in = prev[flat] <= prev[ambiguous][reps]
            distinct = np.bincount(reps[first_in], minlength=lens.size)
            hit_d[ambiguous[distinct < assoc]] = True

        hit_mask = np.empty(n, dtype=bool)
        hit_mask[sperm] = hit_d[d_real]

        # Final state: per set, the ``assoc`` most recently used distinct
        # sectors.  Distinct (set, sector) groups are perm2 runs; each
        # group's last occurrence is the run tail, and within a set a larger
        # last-occurrence D index means more recent (virtual events precede
        # real ones, older residents precede newer).
        tail = np.empty(ntot, dtype=bool)
        np.logical_not(same[1:], out=tail[:-1])
        tail[-1] = True
        last_d = perm2[tail]
        gcol = setcol[last_d]
        # last_d values are distinct, so the fused key is unique and the
        # faster unstable sort is exact
        gperm = np.argsort(gcol * ntot + last_d)
        last_s = last_d[gperm]
        ngrp = np.bincount(gcol, minlength=nact)
        goff = np.zeros(nact + 1, dtype=np.int64)
        np.cumsum(ngrp, out=goff[1:])
        keep = np.minimum(ngrp, assoc)
        start = goff[1:] - keep  # per set: tail ``keep`` groups = MRU ones
        kpre = np.zeros(nact, dtype=np.int64)
        np.cumsum(keep[:-1], out=kpre[1:])
        krep = np.repeat(np.arange(nact, dtype=np.int64), keep)
        kpos = np.arange(int(keep.sum()), dtype=np.int64) - kpre[krep]
        sel = last_s[start[krep] + kpos]
        new_tags = np.full((nact, assoc), _EMPTY, dtype=np.int64)
        new_stamp = np.zeros((nact, assoc), dtype=np.int64)
        new_tags[krep, kpos] = esec[sel]
        new_stamp[krep, kpos] = est[sel]
        tags[act] = new_tags
        stamp[act] = new_stamp
        return hit_mask

    # ------------------------------------------------------------------
    # Scalar API (drop-in parity with SectoredCache, used by tests)
    # ------------------------------------------------------------------
    def access(self, sector: int, insert_on_miss: bool = True) -> bool:
        """Probe one sector; on a miss optionally fill it.  Returns hit?"""
        hit = self.probe_batch(
            np.array([sector], dtype=np.int64),
            np.array([sector % self.num_sets], dtype=np.int64),
            np.array([insert_on_miss]),
        )
        return bool(hit[0])

    def contains(self, sector: int) -> bool:
        """Presence check without LRU update or stats."""
        return bool((self.tags[sector % self.num_sets] == sector).any())

    def flush(self) -> None:
        """Invalidate everything (kernel-boundary coherence)."""
        self.tags.fill(_EMPTY)
        self.stamp.fill(0)

    def reset_stats(self) -> None:
        self.accesses = 0
        self.hits = 0

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The walk core in use; asking resolves (builds) the native kernel."""
        if self._want_native and _compiled.load() is not None:
            return "native"
        return "numpy"

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

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
