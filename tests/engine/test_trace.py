"""Tests for trace generation from kernel IR."""

import numpy as np
import pytest

from repro.engine.simulator import simulate
from repro.engine.trace import launch_tracer, trace_threadblock
from repro.engine.trace_cache import TraceCache, build_launch_trace
from repro.errors import SimulationError
from repro.experiments.runner import strategy_by_name
from repro.fuzz.genprog import AccessSpec, KernelSpec, ProgramSpec, build_program
from repro.kir.expr import BDX, BX, BY, GDX, M, TX, TY, param
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
from repro.memory.address_space import AddressSpace
from repro.topology.config import bench_hierarchical
from repro.workloads.base import TEST
from repro.workloads.suite import get_workload

from tests.conftest import make_gemm_program, make_vecadd_program


def _space(prog, page=512):
    return AddressSpace(prog, page)


class TestAffineTracing:
    def test_vecadd_tb0_sectors(self):
        prog = make_vecadd_program(n=1024, block_x=64)
        space = _space(prog)
        trace = trace_threadblock(prog.launches[0], space, tb=0)
        assert len(trace.iterations) == 1
        reqs = trace.iterations[0]
        # three arrays; 64 threads x 4B = 256B = 8 sectors each
        assert len(reqs) == 3
        for sr in reqs:
            assert sr.sectors.size == 8
            assert np.all(np.diff(sr.sectors) == 1)  # contiguous

    def test_different_tbs_disjoint_sectors(self):
        prog = make_vecadd_program(n=1024, block_x=64)
        space = _space(prog)
        t0 = trace_threadblock(prog.launches[0], space, 0)
        t1 = trace_threadblock(prog.launches[0], space, 1)
        s0 = set(t0.iterations[0][0].sectors.tolist())
        s1 = set(t1.iterations[0][0].sectors.tolist())
        assert not (s0 & s1)

    def test_gemm_iterations(self):
        prog = make_gemm_program(side=64)
        space = _space(prog)
        launch = prog.launches[0]
        trace = trace_threadblock(launch, space, tb=0)
        assert len(trace.iterations) == launch.trip_count() == 4
        # once-sites (C write) appear only at iteration 0
        arrays_m0 = {sr.array for sr in trace.iterations[0]}
        arrays_m1 = {sr.array for sr in trace.iterations[1]}
        assert "C" in arrays_m0
        assert "C" not in arrays_m1

    def test_pages_aligned_with_sectors(self):
        prog = make_vecadd_program(n=1024, block_x=64)
        space = _space(prog)
        trace = trace_threadblock(prog.launches[0], space, 0)
        for sr in trace.iterations[0]:
            expected = (sr.sectors * 32) // space.page_size - space.first_page
            assert (sr.pages == expected).all()

    def test_coalescing_dedups_sectors(self):
        """Threads hitting the same sector coalesce to one request."""
        prog = Program("bcast")
        prog.malloc_managed("A", 1024, 4)
        k = Kernel("bcast", Dim2(64), {"A": 4}, [GlobalAccess("A", BX)])
        prog.launch(k, Dim2(4), {"A": "A"})
        trace = trace_threadblock(prog.launches[0], _space(prog), 2)
        assert trace.iterations[0][0].sectors.size == 1


class TestProviderTracing:
    def test_provider_overrides_expression(self):
        prog = Program("gather")
        prog.malloc_managed("X", 4096, 4)

        def provider(ctx):
            return (ctx.linear_tid * 13) % 512

        k = Kernel(
            "gather",
            Dim2(32),
            {"X": 4},
            [IndirectAccess("X", data_var("i"), provider)],
        )
        prog.launch(k, Dim2(2), {"X": "X"})
        trace = trace_threadblock(prog.launches[0], _space(prog), 1)
        sectors = trace.iterations[0][0].sectors
        tids = np.arange(32, 64)
        expected_elems = (tids * 13) % 512
        ext = _space(prog).extent("X")
        expected = np.unique((ext.base + expected_elems * 4) // 32)
        assert (sectors == expected).all()

    def test_provider_receives_iteration(self):
        seen = []

        def provider(ctx):
            seen.append(ctx.m)
            return np.zeros(ctx.num_threads, dtype=np.int64)

        prog = Program("p")
        prog.malloc_managed("X", 64, 4)
        k = Kernel(
            "k",
            Dim2(32),
            {"X": 4},
            [IndirectAccess("X", data_var("i"), provider, in_loop=True)],
            loop=LoopSpec(3),
        )
        prog.launch(k, Dim2(1), {"X": "X"})
        trace_threadblock(prog.launches[0], _space(prog), 0)
        assert seen == [0, 1, 2]


class TestTracerReuse:
    def test_iteration_requests_match_trace_tb(self):
        prog = make_gemm_program(side=64)
        space = _space(prog)
        tracer = launch_tracer(prog.launches[0], space)
        full = tracer.trace_tb(5)
        for m, iteration in enumerate(full.iterations):
            again = tracer.iteration_requests(5, m)
            assert len(again) == len(iteration)
            for a, b in zip(again, iteration):
                assert (a.sectors == b.sectors).all()

    def test_total_requests_positive(self):
        prog = make_gemm_program(side=64)
        tracer = launch_tracer(prog.launches[0], _space(prog))
        assert tracer.trace_tb(0).total_requests() > 0


def _provider_sites_match_per_tb(prog, page=512) -> int:
    """Check every provider site's all-TB trace against per-TB tracing.

    Returns how many (launch, site, iteration) cases were compared.
    """
    space = _space(prog, page)
    checked = 0
    for launch in prog.launches:
        tracer = launch_tracer(launch, space)
        gdx = launch.grid.x
        for m in range(tracer.trip):
            for site in tracer.sites_at(m):
                if site.provider is None:
                    continue
                sectors, counts = tracer.site_sectors_all_tbs(site, m)
                per_tb = [
                    tracer._site_requests(site, tb, tb % gdx, tb // gdx, m).sectors
                    for tb in range(launch.num_threadblocks)
                ]
                assert counts.tolist() == [s.size for s in per_tb]
                np.testing.assert_array_equal(sectors, np.concatenate(per_tb))
                checked += 1
    return checked


def _fuzz_provider_program() -> Program:
    """One fuzz kernel with once- and loop-site data-dependent accesses."""
    kernel = KernelSpec(
        name="k",
        bdx=8,
        bdy=2,
        gdx=3,
        gdy=2,
        trip=3,
        accesses=(
            AccessSpec(alloc="a", shape="data", data_seed=5),
            AccessSpec(alloc="b", shape="data", in_loop=True, data_seed=11),
            AccessSpec(alloc="a", shape="data_itl", in_loop=True, data_seed=7),
        ),
    )
    spec = ProgramSpec("fz", elem_sizes=(("a", 4), ("b", 8)), kernels=(kernel,))
    return build_program(spec)


class TestProviderBroadcast:
    """The trace cache calls each provider once for every threadblock; the
    legacy walk calls it once per threadblock.  Both must trace alike."""

    @pytest.mark.parametrize(
        "wname",
        [
            "pagerank",
            "bfs_relax",
            "sssp",
            "random_loc",
            "kmeans_notex",
            "spmv_jds",
            "btree",
            "lbm",
            "streamcluster",
        ],
    )
    def test_suite_providers(self, wname):
        prog = get_workload(wname).program(TEST)
        assert _provider_sites_match_per_tb(prog) > 0

    def test_fuzz_providers(self):
        assert _provider_sites_match_per_tb(_fuzz_provider_program()) == 7

    @pytest.mark.parametrize(
        "provider",
        [
            lambda ctx: (ctx.tx * 3 + ctx.ty * 40) % 256,  # ignores tb: (threads,)
            lambda ctx: 17,  # one element for the whole block
        ],
        ids=["thread-row", "scalar"],
    )
    def test_shapes_that_broadcast(self, provider):
        prog = Program("shapes")
        prog.malloc_managed("X", 512, 4)
        k = Kernel(
            "k",
            Dim2(16, 2),
            {"X": 4},
            [IndirectAccess("X", data_var("i"), provider, in_loop=True)],
            loop=LoopSpec(2),
        )
        prog.launch(k, Dim2(3, 2), {"X": "X"})
        assert _provider_sites_match_per_tb(prog) == 2


def _one_provider_site_program(provider) -> Program:
    prog = Program("one-site")
    prog.malloc_managed("X", 512, 4)
    k = Kernel(
        "k", Dim2(8), {"X": 4}, [IndirectAccess("X", data_var("i"), provider)]
    )
    prog.launch(k, Dim2(2), {"X": "X"})
    return prog


class TestProviderResultShapes:
    def test_empty_provider_matches_legacy(self):
        # An empty provider result requests nothing on either engine.
        provider = lambda ctx: np.empty(0, dtype=np.int64)  # noqa: E731
        legacy, vector = (
            simulate(
                _one_provider_site_program(provider),
                strategy_by_name("LADM"),
                bench_hierarchical(),
                engine=engine,
                trace_cache=TraceCache(),
            )
            for engine in ("legacy", "vector")
        )
        assert legacy.snapshot() == vector.snapshot()

    def test_unbroadcastable_result_names_kernel_and_site(self):
        prog = _one_provider_site_program(lambda ctx: np.arange(3))
        tracer = launch_tracer(prog.launches[0], _space(prog))
        site = prog.launches[0].kernel.accesses[0]
        with pytest.raises(SimulationError, match=r"kernel 'k' site 0 \(X\)"):
            tracer.site_sectors_all_tbs(site, 0)


def _check_block_layout(launch, space, sector_bytes=32):
    """Check every ``(tb, m)`` block of the flattened trace against the
    per-TB tracer: the block's sectors are its sites' sector streams in
    program order, each sector named by its site's allocation.

    Returns the checked trace.
    """
    trace = build_launch_trace(launch, space, sector_bytes)
    tracer = launch_tracer(launch, space, sector_bytes)
    ntb, trip = launch.num_threadblocks, tracer.trip
    assert (trace.num_threadblocks, trace.trip) == (ntb, trip)
    assert trace.sectors.dtype == np.int64
    assert trace.site_index.dtype == np.int16
    assert trace.offsets.dtype == np.int64
    assert trace.offsets.size == ntb * trip + 1
    assert trace.offsets[0] == 0 and trace.offsets[-1] == trace.sectors.size
    assert trace.site_index.size == trace.sectors.size
    for tb in range(ntb):
        for m in range(trip):
            b = tb * trip + m
            lo, hi = trace.offsets[b], trace.offsets[b + 1]
            reqs = tracer.iteration_requests(tb, m)
            expected = [sr.sectors for sr in reqs]
            np.testing.assert_array_equal(
                trace.sectors[lo:hi],
                np.concatenate(expected) if expected else np.empty(0, np.int64),
            )
            arrays = [trace.site_arrays[i] for i in trace.site_index[lo:hi]]
            assert arrays == [sr.array for sr in reqs for _ in sr.sectors]
    return trace


class TestTraceLayout:
    """The flattened trace is threadblock-major, then iteration, then sites
    in program order: block ``(tb, m)`` replays exactly what the per-TB
    tracer yields for that threadblock and iteration."""

    def test_trip_one(self):
        prog = make_vecadd_program(n=1024, block_x=64)
        trace = _check_block_layout(prog.launches[0], _space(prog))
        assert trace.total_sectors == 16 * 3 * 8

    def test_once_sites_run_only_at_first_iteration(self):
        prog = make_gemm_program(side=64)
        trace = _check_block_layout(prog.launches[0], _space(prog))
        assert trace.trip > 1
        c = trace.site_arrays.index("C")
        for tb in range(trace.num_threadblocks):
            for m in range(trace.trip):
                b = tb * trace.trip + m
                block = trace.site_index[trace.offsets[b] : trace.offsets[b + 1]]
                assert (c in block) == (m == 0)

    def test_blocks_without_sectors(self):
        """A loop with only once-sites leaves every block past the first
        iteration empty, and a kernel with no sites traces to nothing."""
        prog = Program("once")
        prog.malloc_managed("A", 1024, 4)
        prog.malloc_managed("B", 1024, 4)
        once = Kernel(
            "once",
            Dim2(32),
            {"A": 4, "B": 4},
            [GlobalAccess("A", BX * BDX + TX), GlobalAccess("B", BX)],
            loop=LoopSpec(3),
        )
        bare = Kernel("bare", Dim2(32), {"A": 4}, [], loop=LoopSpec(2))
        prog.launch(once, Dim2(4), {"A": "A", "B": "B"})
        prog.launch(bare, Dim2(4), {"A": "A"})
        space = _space(prog)
        trace = _check_block_layout(prog.launches[0], space)
        assert trace.total_sectors == 4 * (4 + 1)
        assert np.diff(trace.offsets).reshape(4, 3)[:, 1:].sum() == 0
        assert _check_block_layout(prog.launches[1], space).total_sectors == 0

    def test_data_dependent_sites(self):
        prog = _fuzz_provider_program()
        assert _check_block_layout(prog.launches[0], _space(prog)).total_sectors > 0

    @pytest.mark.parametrize("wname", ["sq_gemm", "pagerank", "spmv_jds"])
    def test_suite_workloads(self, wname):
        prog = get_workload(wname).program(TEST)
        space = _space(prog)
        for launch in prog.launches:
            assert _check_block_layout(launch, space).total_sectors > 0
