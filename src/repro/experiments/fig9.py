"""Figure 9: per-workload performance of H-CODA, LASP+RTWICE, LASP+RONCE,
LADM and the hypothetical monolithic GPU, normalised to H-CODA.

Also the data source for Figure 10 (off-node traffic percentages), which
shares the same sweep.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.engine.simulator import ENGINES
from repro.experiments.reporting import bar, format_table
from repro.experiments.runner import MatrixResult, geomean, run_matrix, scale_by_name
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import Scale
from repro.workloads.suite import all_workloads, get_workload

__all__ = ["Fig9Result", "run_fig9", "FIG9_STRATEGIES"]

FIG9_STRATEGIES = ["H-CODA", "LASP+RTWICE", "LASP+RONCE", "LADM", "Monolithic"]
BASELINE = "H-CODA"


@dataclass
class Fig9Result:
    """The Figure 9/10 sweep."""

    matrix: MatrixResult

    # ------------------------------------------------------------------
    def normalized_performance(self) -> Dict[str, Dict[str, float]]:
        """speedup[workload][strategy], normalised to H-CODA (Figure 9)."""
        out: Dict[str, Dict[str, float]] = {}
        for wname, by_strat in self.matrix.results.items():
            base = by_strat[BASELINE]
            out[wname] = {
                s: by_strat[s].speedup_over(base) for s in by_strat
            }
        return out

    def off_node_percent(self) -> Dict[str, Dict[str, float]]:
        """off-node traffic %, per workload and strategy (Figure 10)."""
        return {
            wname: {s: 100.0 * r.off_node_fraction for s, r in by_strat.items()}
            for wname, by_strat in self.matrix.results.items()
        }

    def geomean_speedup(self, strategy: str) -> float:
        perf = self.normalized_performance()
        return geomean(perf[w][strategy] for w in perf)

    def mean_off_node(self, strategy: str) -> float:
        traffic = self.off_node_percent()
        vals = [traffic[w][strategy] for w in traffic]
        return sum(vals) / len(vals) if vals else 0.0

    def ladm_traffic_reduction(self) -> float:
        """The headline 'LADM reduces inter-chip traffic by 4x' ratio."""
        hcoda = self.mean_off_node(BASELINE)
        ladm = self.mean_off_node("LADM")
        return hcoda / ladm if ladm else float("inf")

    # ------------------------------------------------------------------
    def render(self) -> str:
        perf = self.normalized_performance()
        headers = ["workload"] + FIG9_STRATEGIES
        rows = []
        for wname in perf:
            rows.append(
                [wname] + [f"{perf[wname][s]:.2f}x" for s in FIG9_STRATEGIES]
            )
        rows.append(
            ["GEOMEAN"]
            + [f"{self.geomean_speedup(s):.2f}x" for s in FIG9_STRATEGIES]
        )
        return format_table(
            headers, rows, title="Figure 9: performance normalised to H-CODA"
        )

    def render_bars(self, strategy: str = "LADM") -> str:
        """Figure-like view: one bar per workload for one strategy."""
        perf = self.normalized_performance()
        peak = max(max(v.values()) for v in perf.values())
        lines = [f"Figure 9 (bars): {strategy} speedup over H-CODA"]
        for wname in perf:
            value = perf[wname][strategy]
            lines.append(f"{wname:<14} {value:5.2f}x |{bar(value, scale=peak)}")
        return "\n".join(lines)

    def render_traffic(self) -> str:
        traffic = self.off_node_percent()
        headers = ["workload"] + FIG9_STRATEGIES
        rows = []
        for wname in traffic:
            rows.append(
                [wname] + [f"{traffic[wname][s]:5.1f}%" for s in FIG9_STRATEGIES]
            )
        rows.append(
            ["MEAN"] + [f"{self.mean_off_node(s):5.1f}%" for s in FIG9_STRATEGIES]
        )
        return format_table(
            headers, rows, title="Figure 10: off-node share of memory traffic"
        )


def run_fig9(
    scale: Scale,
    workload_names: Optional[Sequence[str]] = None,
    verbose: bool = False,
    parallel: Optional[int] = None,
    engine: Optional[str] = None,
) -> Fig9Result:
    """Run the Figure 9/10 sweep at the given scale.

    ``parallel``/``engine`` are forwarded to :func:`run_matrix`.
    """
    if workload_names:
        workloads = [get_workload(n) for n in workload_names]
    else:
        workloads = all_workloads()
    hier = bench_hierarchical()
    mono = bench_monolithic()
    strategies = [
        (name, mono if name == "Monolithic" else hier) for name in FIG9_STRATEGIES
    ]
    matrix = run_matrix(
        workloads, strategies, scale, verbose=verbose,
        parallel=parallel, engine=engine,
    )
    return Fig9Result(matrix=matrix)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=["bench", "test"])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="distribute workloads over N worker processes",
    )
    parser.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="simulation engine (default: REPRO_ENGINE or 'vector')",
    )
    args = parser.parse_args(argv)
    result = run_fig9(
        scale_by_name(args.scale), args.workloads, verbose=True,
        parallel=args.parallel, engine=args.engine,
    )
    print()
    print(result.render())
    print()
    print(result.render_traffic())
    print()
    print(
        f"LADM vs H-CODA: {result.geomean_speedup('LADM'):.2f}x performance, "
        f"{result.ladm_traffic_reduction():.1f}x off-node traffic reduction "
        f"(paper: 1.8x and 4x)"
    )


if __name__ == "__main__":
    main()
