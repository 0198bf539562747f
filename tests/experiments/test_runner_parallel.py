"""run_matrix parallel distribution and geomean input validation."""

import random

import pytest

from repro.compiler.classify import LocalityType
from repro.experiments.runner import geomean, run_matrix
from repro.kir.expr import BDX, BX, TX
from repro.kir.kernel import AccessMode, Dim2, GlobalAccess, Kernel
from repro.kir.program import Program
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST, Workload, WorkloadClass
from repro.workloads.suite import get_workload


class TestGeomean:
    def test_plain(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert geomean([]) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="non-positive"):
            geomean([1.0, 0.0, 4.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-positive"):
            geomean([-1.0])

    def test_accepts_generator(self):
        assert geomean(x for x in (2.0, 8.0)) == pytest.approx(4.0)

    def test_inf_propagates(self):
        # speedup_over returns inf when the other run has zero total time on
        # a degenerate topology; the geomean must surface that rather than
        # crash or silently drop it.
        assert geomean([2.0, float("inf")]) == float("inf")


class TestParallelMatrix:
    def test_parallel_matches_sequential(self):
        """Process-pool distribution is invisible in the results."""
        workloads = [get_workload(n) for n in ("vecadd", "scalarprod", "conv")]
        strategies = [
            ("H-CODA", bench_hierarchical()),
            ("Monolithic", bench_monolithic()),
        ]
        seq = run_matrix(workloads, strategies, TEST)
        par = run_matrix(workloads, strategies, TEST, parallel=2)
        assert list(par.results) == list(seq.results)  # caller's order
        for wname in seq.results:
            for sname in seq.results[wname]:
                a = seq.get(wname, sname)
                b = par.get(wname, sname)
                assert a.snapshot() == b.snapshot(), f"{wname}/{sname}"

    def test_parallel_one_worker_stays_sequential(self):
        """parallel=1 (or a single workload) avoids pool overhead."""
        workloads = [get_workload("vecadd")]
        strategies = [("H-CODA", bench_hierarchical())]
        res = run_matrix(workloads, strategies, TEST, parallel=8)
        assert set(res.results) == {"vecadd"}

    def test_engine_forwarded(self):
        workloads = [get_workload("vecadd")]
        strategies = [("H-CODA", bench_hierarchical())]
        legacy = run_matrix(workloads, strategies, TEST, engine="legacy")
        vector = run_matrix(workloads, strategies, TEST, engine="vector")
        assert (
            legacy.get("vecadd", "H-CODA").snapshot()
            == vector.get("vecadd", "H-CODA").snapshot()
        )

    def test_parallel_verbose_streams_summaries(self, capsys):
        workloads = [get_workload(n) for n in ("vecadd", "scalarprod")]
        strategies = [("H-CODA", bench_hierarchical())]
        run_matrix(workloads, strategies, TEST, verbose=True, parallel=2)
        out = capsys.readouterr().out
        assert "vecadd" in out and "scalarprod" in out


class _StochasticBuild:
    """A picklable builder that draws sizes from the global RNG.

    Without seeding, two builds (or serial-vs-pool builds) produce
    different grids; ``run_matrix(seed=...)`` must make them identical.
    """

    def __init__(self, name: str):
        self.name = name

    def __call__(self, scale):
        gdx = random.randint(2, 8)
        kernel = Kernel(
            name=f"{self.name}_k",
            block=Dim2(16),
            arrays={"A": 4},
            accesses=[GlobalAccess("A", BX * BDX + TX, AccessMode.READ)],
            insts_per_thread=8,
        )
        program = Program(self.name)
        program.malloc_managed("A", gdx * 16, 4)
        program.launch(kernel, grid=Dim2(gdx), args={"A": "A"})
        return program


def _stochastic_workload(name: str) -> Workload:
    return Workload(
        name=name,
        cls=WorkloadClass.NL,
        expected_locality=LocalityType.NO_LOCALITY,
        expected_scheduler="Align-aware",
        build=_StochasticBuild(name),
    )


class TestSeededMatrix:
    def test_parallel_equals_serial_for_stochastic_workloads(self):
        workloads = [_stochastic_workload(f"stoch{i}") for i in range(3)]
        strategies = [("H-CODA", bench_hierarchical())]
        seq = run_matrix(workloads, strategies, TEST, seed=123)
        par = run_matrix(workloads, strategies, TEST, seed=123, parallel=2)
        for wname in seq.results:
            assert (
                seq.get(wname, "H-CODA").snapshot()
                == par.get(wname, "H-CODA").snapshot()
            ), wname

    def test_seed_is_per_workload_not_per_position(self):
        """A workload's program depends only on (seed, name): running it
        alone or inside a larger matrix gives the same result."""
        strategies = [("H-CODA", bench_hierarchical())]
        full = run_matrix(
            [_stochastic_workload(f"stoch{i}") for i in range(3)],
            strategies,
            TEST,
            seed=9,
        )
        solo = run_matrix(
            [_stochastic_workload("stoch2")], strategies, TEST, seed=9
        )
        assert (
            full.get("stoch2", "H-CODA").snapshot()
            == solo.get("stoch2", "H-CODA").snapshot()
        )

    def test_different_seeds_change_stochastic_programs(self):
        strategies = [("H-CODA", bench_hierarchical())]
        snaps = set()
        for seed in range(6):
            res = run_matrix(
                [_stochastic_workload("stoch")], strategies, TEST, seed=seed
            )
            snaps.add(str(res.get("stoch", "H-CODA").snapshot()))
        assert len(snaps) > 1

    def test_unseeded_matrix_still_works(self):
        workloads = [get_workload("vecadd")]
        strategies = [("H-CODA", bench_hierarchical())]
        res = run_matrix(workloads, strategies, TEST)
        assert set(res.results) == {"vecadd"}
