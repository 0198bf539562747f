"""Swizzle head-to-head: CTA swizzle schedulers vs LADM vs H-CODA.

Two sweeps over the Fig-9 suite:

1. **Head-to-head** -- the three swizzle strategies (bit / Morton /
   Hilbert curve rasterisation with Equation-2 page snapping) against
   H-CODA and LADM on the standard bench system, reporting normalised
   performance, inter-GPU bytes and L2 hit rate per workload.
2. **Page-size sweep** -- LADM vs swizzle across page sizes, measuring
   how much of each scheduler's win survives coarser page-granularity
   placement ("Making Locality-aware GEMM Compatible with
   Page-Granularity Placement on Chiplet GPUs").

``python -m repro swizzle [--scale test] [--page-sizes 512 4096 65536]``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.compiler.passes import compile_program
from repro.engine.metrics import RunResult
from repro.engine.simulator import ENGINES, Simulator
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    MatrixResult,
    geomean,
    run_matrix,
    scale_by_name,
    strategy_by_name,
)
from repro.topology.config import bench_hierarchical
from repro.workloads.base import Scale
from repro.workloads.suite import all_workloads, get_workload

__all__ = [
    "SWIZZLE_STRATEGIES",
    "SwizzleResult",
    "PageSweepResult",
    "run_swizzle",
    "run_page_sweep",
]

BASELINE = "H-CODA"
SWIZZLE_STRATEGIES = ["H-CODA", "LADM", "SWZ-Bit", "SWZ-Morton", "SWZ-Hilbert"]
DEFAULT_PAGE_SIZES = (512, 4096, 65536)


@dataclass
class SwizzleResult:
    """The swizzle-vs-LADM head-to-head sweep."""

    matrix: MatrixResult

    def speedup(self, workload: str, strategy: str) -> float:
        by_strat = self.matrix.results[workload]
        return by_strat[strategy].speedup_over(by_strat[BASELINE])

    def geomean_speedup(self, strategy: str) -> float:
        return geomean(self.speedup(w, strategy) for w in self.matrix.results)

    def render(self) -> str:
        headers = ["workload"] + SWIZZLE_STRATEGIES[1:]
        rows = []
        for wname in self.matrix.results:
            rows.append(
                [wname]
                + [f"{self.speedup(wname, s):.2f}x" for s in SWIZZLE_STRATEGIES[1:]]
            )
        rows.append(
            ["GEOMEAN"]
            + [f"{self.geomean_speedup(s):.2f}x" for s in SWIZZLE_STRATEGIES[1:]]
        )
        return format_table(
            headers, rows, title=f"Swizzle head-to-head: speedup over {BASELINE}"
        )

    def render_traffic(self) -> str:
        headers = ["workload"] + SWIZZLE_STRATEGIES
        rows = []
        for wname, by_strat in self.matrix.results.items():
            rows.append(
                [wname]
                + [
                    f"{by_strat[s].total_inter_gpu_bytes // 1024}K"
                    for s in SWIZZLE_STRATEGIES
                ]
            )
        return format_table(headers, rows, title="Inter-GPU bytes per workload")

    def render_l2(self) -> str:
        headers = ["workload"] + SWIZZLE_STRATEGIES
        rows = []
        for wname, by_strat in self.matrix.results.items():
            rows.append(
                [wname]
                + [
                    f"{100 * by_strat[s].aggregate_l2().overall_hit_rate():.1f}%"
                    for s in SWIZZLE_STRATEGIES
                ]
            )
        return format_table(headers, rows, title="L2 hit rate per workload")

    def swizzle_wins(self) -> List[str]:
        """Workloads where some swizzle scheduler beats LADM on inter-GPU
        bytes or L2 hit rate (the acceptance metric for this family)."""
        wins = []
        for wname, by_strat in self.matrix.results.items():
            ladm = by_strat["LADM"]
            for s in SWIZZLE_STRATEGIES[2:]:
                swz = by_strat[s]
                if (
                    swz.total_inter_gpu_bytes < ladm.total_inter_gpu_bytes
                    or swz.aggregate_l2().overall_hit_rate()
                    > ladm.aggregate_l2().overall_hit_rate()
                ):
                    wins.append(f"{wname}:{s}")
        return wins


@dataclass
class PageSweepResult:
    """LADM vs swizzle across page sizes."""

    #: results[page_size][workload][strategy]
    results: Dict[int, Dict[str, Dict[str, RunResult]]] = field(default_factory=dict)
    strategies: Sequence[str] = ()

    def render(self) -> str:
        headers = ["page size", "workload"] + [
            f"{s} interGPU" for s in self.strategies
        ] + [f"{s} L2" for s in self.strategies]
        rows = []
        for ps in sorted(self.results):
            for wname, by_strat in self.results[ps].items():
                rows.append(
                    [f"{ps}B", wname]
                    + [
                        f"{by_strat[s].total_inter_gpu_bytes // 1024}K"
                        for s in self.strategies
                    ]
                    + [
                        f"{100 * by_strat[s].aggregate_l2().overall_hit_rate():.1f}%"
                        for s in self.strategies
                    ]
                )
        return format_table(
            headers, rows, title="Page-size sweep: inter-GPU bytes and L2 hit rate"
        )


def run_swizzle(
    scale: Scale,
    workload_names: Optional[Sequence[str]] = None,
    verbose: bool = False,
    parallel: Optional[int] = None,
    engine: Optional[str] = None,
) -> SwizzleResult:
    """Run the swizzle head-to-head on the Fig-9 suite."""
    if workload_names:
        workloads = [get_workload(n) for n in workload_names]
    else:
        workloads = all_workloads()
    hier = bench_hierarchical()
    strategies = [(name, hier) for name in SWIZZLE_STRATEGIES]
    matrix = run_matrix(
        workloads, strategies, scale, verbose=verbose,
        parallel=parallel, engine=engine,
    )
    return SwizzleResult(matrix=matrix)


def run_page_sweep(
    scale: Scale,
    workload_names: Optional[Sequence[str]] = None,
    page_sizes: Sequence[int] = DEFAULT_PAGE_SIZES,
    strategies: Sequence[str] = ("LADM", "SWZ-Hilbert"),
    verbose: bool = False,
) -> PageSweepResult:
    """Sweep page sizes for LADM-vs-swizzle on the Fig-9 suite.

    Each page size gets its own system config (``SystemConfig.with_``);
    programs are built and compiled once per workload and shared.
    """
    if workload_names:
        workloads = [get_workload(n) for n in workload_names]
    else:
        workloads = all_workloads()
    base = bench_hierarchical()
    out = PageSweepResult(strategies=list(strategies))
    for ps in page_sizes:
        cfg = base.with_(name=f"{base.name}-p{ps}", page_size=ps)
        out.results[ps] = {}
        for workload in workloads:
            program = workload.program(scale)
            compiled = compile_program(program)
            by_strat: Dict[str, RunResult] = {}
            for name in strategies:
                strategy = strategy_by_name(name)
                sim = Simulator(cfg)
                plan = strategy.plan(compiled, sim.topology)
                by_strat[name] = sim.run(compiled, plan)
                if verbose:
                    print(
                        f"  p={ps:<7} {workload.name:<14} {name:<12} "
                        f"{by_strat[name].summary()}",
                        flush=True,
                    )
            out.results[ps][workload.name] = by_strat
    return out


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=["bench", "test"])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument(
        "--page-sizes", nargs="*", type=int, default=list(DEFAULT_PAGE_SIZES),
        help="page sizes (bytes) for the placement-compatibility sweep",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="distribute head-to-head workloads over N worker processes",
    )
    parser.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="simulation engine (default: REPRO_ENGINE or 'vector')",
    )
    parser.add_argument(
        "--no-sweep", action="store_true", help="skip the page-size sweep"
    )
    args = parser.parse_args(argv)
    scale = scale_by_name(args.scale)
    result = run_swizzle(
        scale, args.workloads, verbose=True,
        parallel=args.parallel, engine=args.engine,
    )
    print()
    print(result.render())
    print()
    print(result.render_traffic())
    print()
    print(result.render_l2())
    wins = result.swizzle_wins()
    print()
    print(f"swizzle wins over LADM (inter-GPU bytes or L2 hit): {len(wins)}")
    for w in wins:
        print(f"  {w}")
    if not args.no_sweep:
        print()
        sweep = run_page_sweep(
            scale, args.workloads, page_sizes=args.page_sizes, verbose=True
        )
        print()
        print(sweep.render())


if __name__ == "__main__":
    main()
