"""``repro profile``: run one workload with full instrumentation.

Runs a workload under a set of strategies with a fresh, enabled
observability session, then prints a text flame summary of where
wall-clock went (classify -> LASP decide -> placement -> schedule ->
per-launch walk call, including memo/trace-cache probes) and optionally
writes:

* ``--trace out.json`` -- a Chrome trace-event / Perfetto JSON trace
  (open it at https://ui.perfetto.dev or in ``chrome://tracing``),
* ``--counters out.json`` -- the structured counter snapshot (per-link
  bytes, per-node L2 hit/miss/bypass, insertion and scheduler decisions,
  walk backend, cache/memo hit rates).

The workload spec is either a plain workload name (profiled under the
default ``run`` strategy trio) or ``fig9:<workload>``, which profiles the
full Figure-9 strategy sweep of that workload.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.compiler.passes import compile_program
from repro.engine.metrics import RunResult
from repro.engine.simulator import ENGINES, Simulator
from repro.experiments.fig9 import FIG9_STRATEGIES
from repro.experiments.runner import scale_by_name, strategy_by_name
from repro.obs.export import flame_summary, write_counters, write_trace
from repro.obs.manifest import build_manifest
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.suite import get_workload

__all__ = ["ProfileResult", "run_profile", "main"]

#: Strategies profiled for a bare workload spec (mirrors ``repro run``).
DEFAULT_STRATEGIES = ["H-CODA", "LADM", "Monolithic"]


@dataclass
class ProfileResult:
    """One instrumented sweep: results plus the live session that saw it."""

    workload: str
    session: "obs.ObsSession"
    results: Dict[str, RunResult] = field(default_factory=dict)
    manifests: List[dict] = field(default_factory=list)


def parse_spec(spec: str) -> tuple:
    """``fig9:conv`` -> (``conv``, Figure-9 sweep); ``conv`` -> defaults."""
    if spec.startswith("fig9:"):
        return spec[len("fig9:"):], list(FIG9_STRATEGIES)
    return spec, list(DEFAULT_STRATEGIES)


def run_profile(
    workload_name: str,
    strategies: List[str],
    scale,
    engine: Optional[str] = None,
) -> ProfileResult:
    """Run one workload under ``strategies`` inside a fresh enabled session.

    The session stays installed when this returns (so callers can export
    it); install a disabled session via ``obs.disable()`` when done.
    """
    session = obs.enable()
    prof = ProfileResult(workload=workload_name, session=session)
    hier = bench_hierarchical()
    mono = bench_monolithic()
    with session.tracer.span(
        "profile", cat="pipeline", workload=workload_name, scale=scale.name
    ):
        program = get_workload(workload_name).program(scale)
        compiled = compile_program(program)
        for name in strategies:
            config = mono if name == "Monolithic" else hier
            strategy = strategy_by_name(name)
            with session.tracer.span("strategy", cat="pipeline", strategy=name):
                sim = Simulator(config, engine=engine)
                plan = strategy.plan(compiled, sim.topology)
                result = sim.run(compiled, plan)
            prof.results[name] = result
            prof.manifests.append(result.manifest)
    return prof


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="instrumented run: span trace + counters + flame summary",
    )
    parser.add_argument(
        "spec", help="workload name, or fig9:<workload> for the Figure-9 sweep"
    )
    parser.add_argument("--strategy", nargs="+", default=None)
    parser.add_argument("--scale", default="test", choices=["bench", "test"])
    parser.add_argument(
        "--engine", default=None, choices=ENGINES
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Perfetto-loadable Chrome trace-event JSON file",
    )
    parser.add_argument(
        "--counters", default=None, metavar="FILE",
        help="write the counter snapshot (with run manifests) as JSON",
    )
    parser.add_argument(
        "--max-depth", type=int, default=None,
        help="clip the flame summary below this span depth",
    )
    args = parser.parse_args(argv)

    workload_name, strategies = parse_spec(args.spec)
    if args.strategy:
        strategies = args.strategy
    prof = run_profile(
        workload_name, strategies, scale_by_name(args.scale), engine=args.engine
    )
    try:
        manifest = build_manifest(
            program=workload_name,
            engine=args.engine or "vector",
            extra={"strategies": strategies, "scale": args.scale},
        )
        for name, result in prof.results.items():
            print(result.summary())
        print()
        print(flame_summary(prof.session, max_depth=args.max_depth))
        if args.trace:
            write_trace(args.trace, prof.session, manifest)
            print(f"\nwrote trace: {args.trace} (open at https://ui.perfetto.dev)")
        if args.counters:
            write_counters(args.counters, prof.session, manifest)
            print(f"wrote counters: {args.counters}")
    finally:
        obs.disable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
