"""Remaining ITL and unclassified workloads.

* ``random_loc`` -- the low-reuse random-walk microbenchmark from Young et
  al. [84] used in the paper's Figure-11a RONCE case study: every thread
  walks a short contiguous run starting at a pseudo-random offset.
* ``kmeans_notex`` -- ITL detected *statically*: each thread strides its own
  feature row (``features[tid * F + m]``), the classifier's ``lv == m``-with-
  coefficient pattern.
* ``btree``, ``lbm``, ``streamcluster`` -- the unclassified rows of
  Table IV: data-dependent descents and macro-generated indices the static
  analysis must refuse.
"""

from __future__ import annotations

import numpy as np

from repro.kir.expr import BDX, BX, M, TX
from repro.kir.kernel import (
    AccessMode,
    Dim2,
    GlobalAccess,
    IndirectAccess,
    Kernel,
    LoopSpec,
    data_var,
)
from repro.kir.program import Program
from repro.workloads.base import Scale

__all__ = [
    "build_random_loc",
    "build_kmeans_notex",
    "build_btree",
    "build_lbm",
    "build_streamcluster",
]

READ = AccessMode.READ
WRITE = AccessMode.WRITE

_HASH = 2654435761  # Knuth multiplicative hash


def build_random_loc(scale: Scale) -> Program:
    """The random-location microbenchmark of Young et al. [84] / Figure 11a.

    Two streams per thread: a pseudo-random *walk* over a large array with
    intra-thread locality but no reuse (the polluter -- its REMOTE-LOCAL
    insertions at home L2s are never read again), and repeated randomised
    probes of a small shared *hot* table whose requester-side copies are the
    only traffic with real reuse.  Under RTWICE the dead walk insertions
    evict the hot copies; RONCE frees that capacity, which is precisely the
    4x total-hit-rate effect the paper measures.
    """
    n = scale.div(2 << 20)
    run = 32  # walk elements per thread (4 sectors, ITL)
    hot_elems = 6144  # 24 KB: fits one L2 slice when unpolluted
    block = Dim2(128)
    grid = Dim2(256 // max(1, scale.linear // 2))
    trip = run

    def walk_provider(ctx):
        tid = ctx.linear_tid
        start = ((tid * _HASH) % np.int64(n - run)).astype(np.int64)
        return start + ctx.m

    def hot_provider(ctx):
        tid = ctx.linear_tid
        return ((tid * 7 + ctx.m * 131 + (tid >> 5) * _HASH) % hot_elems).astype(
            np.int64
        )

    kernel = Kernel(
        name="random_loc_kernel",
        block=block,
        arrays={"DATA": 4, "HOT": 4, "OUT": 4},
        accesses=[
            IndirectAccess(
                "DATA", data_var("start") + M, walk_provider, READ, in_loop=True
            ),
            IndirectAccess("HOT", data_var("probe"), hot_provider, READ, in_loop=True),
            GlobalAccess("OUT", BX * BDX + TX, WRITE),
        ],
        loop=LoopSpec(trip),
        insts_per_thread=6,
    )
    prog = Program("random_loc")
    prog.malloc_managed("DATA", n, 4)
    prog.malloc_managed("HOT", hot_elems, 4)
    prog.malloc_managed("OUT", grid.x * block.x, 4)
    prog.launch(kernel, grid, {"DATA": "DATA", "HOT": "HOT", "OUT": "OUT"})
    return prog


def build_kmeans_notex(scale: Scale) -> Program:
    """K-means without texture memory (Rodinia): per-thread feature rows.

    ``FEATURES[tid * F + m]`` is the canonical statically-detectable ITL
    index (loop-variant exactly m); the centroid gather is data-dependent.
    """
    features = 16
    points = scale.div(32768)
    block = Dim2(128)
    grid = Dim2(points // block.x)
    tid = BX * BDX + TX
    centroids = 64

    def centroid_provider(ctx):
        c = (ctx.linear_tid * _HASH) % centroids
        return c * features + ctx.m

    kernel = Kernel(
        name="kmeans_kernel",
        block=block,
        arrays={"FEATURES": 4, "CENTROIDS": 4, "MEMBERSHIP": 4},
        accesses=[
            GlobalAccess("FEATURES", tid * features + M, READ, in_loop=True),
            IndirectAccess(
                "CENTROIDS", data_var("c") + M, centroid_provider, READ, in_loop=True
            ),
            GlobalAccess("MEMBERSHIP", tid, WRITE),
        ],
        loop=LoopSpec(features),
        insts_per_thread=22,
    )
    prog = Program("kmeans_notex")
    prog.malloc_managed("FEATURES", points * features, 4)
    prog.malloc_managed("CENTROIDS", centroids * features, 4)
    prog.malloc_managed("MEMBERSHIP", points, 4)
    prog.launch(
        kernel,
        grid,
        {"FEATURES": "FEATURES", "CENTROIDS": "CENTROIDS", "MEMBERSHIP": "MEMBERSHIP"},
    )
    return prog


def build_btree(scale: Scale) -> Program:
    """B+tree lookups (Rodinia): a data-dependent descent per thread.

    Upper levels are tiny and shared (they cache everywhere); leaves are
    effectively random.  The descent index defeats the static analysis.
    """
    depth = 6
    fanout = 6
    level_size = [fanout ** (d + 1) for d in range(depth)]
    level_off = np.concatenate(([0], np.cumsum(level_size)))[:-1].astype(np.int64)
    total = int(np.sum(level_size))
    block = Dim2(256)
    grid = Dim2(max(16, scale.div(16384) // block.x))

    def descent_provider(ctx):
        # Rodinia's findK assigns one query per *block*: all threads of the
        # TB walk the same path, fetching the node's key slab cooperatively.
        key = (np.int64(ctx.tb) * _HASH) % np.int64(1 << 30)
        node = key % np.int64(level_size[ctx.m])
        base = node - (node % fanout)
        slab = base + (ctx.tx % fanout)
        return level_off[ctx.m] + np.minimum(slab, level_size[ctx.m] - 1)

    kernel = Kernel(
        name="btree_kernel",
        block=block,
        arrays={"NODES": 4, "KEYS": 4, "OUT": 4},
        accesses=[
            IndirectAccess("NODES", data_var("path"), descent_provider, READ, in_loop=True),
            GlobalAccess("KEYS", BX * BDX + TX, READ),
            GlobalAccess("OUT", BX * BDX + TX, WRITE),
        ],
        loop=LoopSpec(depth),
        insts_per_thread=18,
    )
    prog = Program("btree")
    threads = grid.x * block.x
    prog.malloc_managed("NODES", total, 4)
    prog.malloc_managed("KEYS", threads, 4)
    prog.malloc_managed("OUT", threads, 4)
    prog.launch(kernel, grid, {"NODES": "NODES", "KEYS": "KEYS", "OUT": "OUT"})
    return prog


def build_lbm(scale: Scale) -> Program:
    """LBM (Parboil): 19-direction lattice propagation.

    The real kernel's macro-generated structure-of-arrays indices are the
    paper's example of 'complex indices ... LADM fails to exploit their
    locality'; the access provider implements the SoA layout faithfully
    while the symbolic index is opaque to the compiler.
    """
    cells = scale.div(1 << 17)
    dirs = 10  # distinct planes touched per sweep (subset of 19 for volume)
    block = Dim2(120)
    grid = Dim2(cells // block.x)

    def plane_provider(ctx):
        # direction ctx.m: read the cell's slot in that direction's plane,
        # shifted by the direction's lattice offset.
        tid = ctx.linear_tid
        offset = ((ctx.m * 37) % 8) - 4
        cell = (tid + offset) % np.int64(cells)
        return ctx.m * np.int64(cells) + cell

    kernel = Kernel(
        name="lbm_kernel",
        block=block,
        arrays={"SRC": 4, "DST": 4},
        accesses=[
            IndirectAccess("SRC", data_var("soa"), plane_provider, READ, in_loop=True),
            IndirectAccess("DST", data_var("soa2"), plane_provider, WRITE, in_loop=True),
        ],
        loop=LoopSpec(dirs),
        insts_per_thread=34,
    )
    prog = Program("lbm")
    prog.malloc_managed("SRC", cells * dirs, 4)
    prog.malloc_managed("DST", cells * dirs, 4)
    prog.launch(kernel, grid, {"SRC": "SRC", "DST": "DST"})
    return prog


def build_streamcluster(scale: Scale) -> Program:
    """StreamCluster (Parboil/PARSEC): distance evaluation against a
    data-dependent working set of candidate centres."""
    points = scale.div(1 << 16)
    dims = 8
    centers = 32
    block = Dim2(512)
    grid = Dim2(points // block.x)
    tid = BX * BDX + TX

    def center_provider(ctx):
        c = ((ctx.linear_tid // 64 + ctx.m) * _HASH) % centers
        return c * dims + (ctx.m % dims)

    def point_provider(ctx):
        # p[i].coord-style pointer chasing: the layout is row-major but the
        # compiler only sees an opaque pointer dereference.
        return ctx.linear_tid * np.int64(dims) + ctx.m

    kernel = Kernel(
        name="streamcluster_kernel",
        block=block,
        arrays={"POINTS": 4, "CENTERS": 4, "ASSIGN": 4},
        accesses=[
            IndirectAccess("POINTS", data_var("coord"), point_provider, READ, in_loop=True),
            IndirectAccess(
                "CENTERS", data_var("cidx"), center_provider, READ, in_loop=True
            ),
            GlobalAccess("ASSIGN", tid, WRITE),
        ],
        loop=LoopSpec(dims),
        insts_per_thread=26,
    )
    prog = Program("streamcluster")
    prog.malloc_managed("POINTS", points * dims, 4)
    prog.malloc_managed("CENTERS", centers * dims, 4)
    prog.malloc_managed("ASSIGN", points, 4)
    prog.launch(
        kernel, grid, {"POINTS": "POINTS", "CENTERS": "CENTERS", "ASSIGN": "ASSIGN"}
    )
    return prog
