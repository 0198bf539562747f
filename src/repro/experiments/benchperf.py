"""Engine performance benchmark: the vector walk vs the legacy reference.

Times a Figure-9 style subset (8 workloads x 6 strategies) in two columns
-- the ``legacy`` engine and the ``vector`` engine (one launch-walk call per
launch) -- and writes ``BENCH_perf.json`` with per-stage wall-clock times
(trace, walk, finalize), per-workload walk-stage speedups and walk
telemetry (home-side bypasses, walk-memo hit counts, a per-launch memo
log).  The vector engine shares one trace cache and one walk memo per
workload, so each (workload, scale) traces once and replays across
strategies; the legacy engine re-traces per strategy, exactly as it did
before the vector engine existed.  The speedups are parity-run ratios, not
the performance claim (that is the perf ledger's absolute wall time).

Usage::

    PYTHONPATH=src python -m repro bench                 # full (bench scale)
    PYTHONPATH=src python -m repro bench --smoke         # CI: small + parity
    PYTHONPATH=src python -m repro bench --smoke --gate BENCH_perf.json

``--smoke`` runs a reduced subset at test scale and additionally asserts
the two engines are bit-exact on every reported metric (exit code 1 on
any mismatch), so CI catches both perf plumbing rot and parity rot.
``--gate FILE`` compares walk-stage speedups against a committed report:
same-scale runs must stay within 20% of the committed per-workload walk
speedup; cross-scale runs (smoke vs a committed bench-scale file) apply a
sanity floor instead, since absolute wall-clock does not transfer across
scales or machines.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import compiled as native_backend
from repro.compiler.passes import compile_program
from repro.engine.simulator import Simulator
from repro.obs.manifest import build_manifest
from repro.engine.trace_cache import TraceCache
from repro.engine.walk_memo import WalkMemo
from repro.experiments.runner import strategy_by_name
from repro.topology.config import SystemConfig, bench_hierarchical, bench_monolithic
from repro.workloads.base import BENCH, TEST
from repro.workloads.suite import get_workload

__all__ = ["run_bench", "check_gate", "counter_deltas", "main"]

STAGES = ("trace", "walk", "finalize")

#: Walk-telemetry counters surfaced per workload and in the totals (from
#: the ``vector`` engine run).
COUNTER_KEYS = ("l2_bypass", "walk_memo_hits")

#: Telemetry ratios compared against a committed gate file alongside the
#: walk-speedup gate (informational: printed and stored, never failing).
DELTA_KEYS = ("walk_memo_hits",)

#: Figure-9 subset: dense GEMM-shaped layers, recurrent cells, a streaming
#: reduction and a transpose -- the mix the paper sweeps, heavy enough for
#: stable timing.
WORKLOADS = [
    "conv",
    "lstm1",
    "lstm2",
    "alexnet_fc2",
    "vggnet_fc2",
    "resnet50_fc",
    "scalarprod",
    "tra",
]
SMOKE_WORKLOADS = ["conv", "scalarprod", "tra"]

STRATEGIES = [
    "Batch+FT",
    "H-CODA",
    "LADM",
    # The explicit LASP insertion-policy ablations share LADM's scheduler and
    # placement exactly (CRB just picks between them per launch), so under the
    # per-workload shared walk memo their non-divergent launches replay as
    # memo hits -- the sharing the ``walk_memo_hits > 0`` check guards.
    "LASP+RTWICE",
    "LASP+RONCE",
    "Monolithic",
]

#: Cross-scale gate: a smoke run checked against a bench-scale report only
#: has to clear this walk-stage speedup (wall-clock ratios do not transfer
#: across scales, but the vector walk falling *below* this means the fast
#: path rotted wholesale).
CROSS_SCALE_SPEEDUP_FLOOR = 0.5


def _configs() -> Dict[str, SystemConfig]:
    return {"hier": bench_hierarchical(), "mono": bench_monolithic()}


def _run_engine(
    engine: str,
    compiled,
    strategies: List[str],
    keep_results: bool,
) -> Tuple[Dict[str, float], Optional[Dict[str, list]], Dict[str, int], List[dict]]:
    """All strategies of one compiled workload under one engine.

    Returns accumulated stage times (plus ``total`` wall-clock including
    planning), optional per-strategy metric snapshots, summed walk-telemetry
    counters, and the per-launch log (vector engine; empty for legacy).
    """
    cfgs = _configs()
    array_engine = engine == "vector"
    cache = TraceCache() if array_engine else None
    # One memo per workload mirrors run_matrix sharing: strategies that
    # produce identical placement+policy skip their repeat walks; distinct
    # strategies never collide on the key.
    memo = WalkMemo() if array_engine else None
    times = {s: 0.0 for s in STAGES}
    counters = dict.fromkeys(COUNTER_KEYS, 0)
    launch_log: List[dict] = []
    snaps: Optional[Dict[str, list]] = {} if keep_results else None
    t0 = time.perf_counter()
    for name in strategies:
        cfg = cfgs["mono"] if name == "Monolithic" else cfgs["hier"]
        sim = Simulator(cfg, engine=engine, trace_cache=cache, walk_memo=memo)
        plan = strategy_by_name(name).plan(compiled, sim.topology)
        result = sim.run(compiled, plan)
        for s in STAGES:
            times[s] += sim.stage_times[s]
        for k in COUNTER_KEYS:
            src = "memo_hits" if k == "walk_memo_hits" else k
            counters[k] += sim.walk_counters[src]
        launch_log.extend({"strategy": name, **entry} for entry in sim.walk_log)
        if snaps is not None:
            snaps[name] = result.snapshot()
    times["total"] = time.perf_counter() - t0
    return times, snaps, counters, launch_log


def run_bench(
    workload_names: List[str],
    scale,
    check_parity: bool,
    verbose: bool = True,
) -> dict:
    per_workload: Dict[str, dict] = {}
    mismatches: List[str] = []
    # Static-analysis hygiene: time the full lint and the traffic-bound
    # derivation per workload.  Informational only -- never gated -- so a
    # slow analyzer shows up in bench reports before it hurts CI.
    from repro.analysis.lint import default_topology, lint_program
    from repro.analysis.traffic import plan_for_analysis, program_traffic_bounds

    analysis_topology = default_topology()
    for wname in workload_names:
        program = get_workload(wname).program(scale)
        compiled = compile_program(program)
        t_lint = time.perf_counter()
        lint_report = lint_program(
            program, name=wname, topology=analysis_topology, compiled=compiled
        )
        lint_s = time.perf_counter() - t_lint
        t_bound = time.perf_counter()
        bounds = program_traffic_bounds(
            program,
            plan_for_analysis(compiled, analysis_topology),
            analysis_topology.config,
        )
        bound_s = time.perf_counter() - t_bound
        legacy_t, legacy_snaps, _, _ = _run_engine(
            "legacy", compiled, STRATEGIES, check_parity
        )
        per_workload[wname] = {
            "legacy": legacy_t,
            "analysis": {
                "lint_s": lint_s,
                "bound_s": bound_s,
                "diagnostics": len(lint_report.diagnostics),
                "bound_lower_bytes": bounds.lower_bytes,
                "bound_upper_bytes": bounds.upper_bytes,
            },
        }
        vec_t, vec_snaps, counters, launch_log = _run_engine(
            "vector", compiled, STRATEGIES, check_parity
        )
        per_workload[wname].update(
            {
                "vector": vec_t,
                "speedup": legacy_t["total"] / vec_t["total"] if vec_t["total"] else 0.0,
                "walk_speedup": legacy_t["walk"] / vec_t["walk"] if vec_t["walk"] else 0.0,
                "counters": counters,
                "launches": launch_log,
            }
        )
        if check_parity:
            for name in STRATEGIES:
                if legacy_snaps[name] != vec_snaps[name]:
                    mismatches.append(f"{wname}/{name}[vector]")
        if verbose:
            w = per_workload[wname]
            flag = ""
            if check_parity:
                bad = [m for m in mismatches if m.startswith(wname + "/")]
                flag = "  PARITY-MISMATCH" if bad else "  parity-ok"
            ana = w["analysis"]
            print(
                f"{wname:<14} legacy={legacy_t['total']:7.2f}s "
                f"vector={w['vector']['total']:7.2f}s "
                f"speedup={w['speedup']:5.2f}x walk={w['walk_speedup']:5.2f}x "
                f"analysis[lint={ana['lint_s']:.2f}s bound={ana['bound_s']:.2f}s]"
                f"{flag}",
                flush=True,
            )

    totals = {
        eng: {
            s: sum(per_workload[w][eng][s] for w in per_workload)
            for s in STAGES + ("total",)
        }
        for eng in ("legacy", "vector")
    }
    totals["counters"] = {
        k: sum(per_workload[w]["counters"][k] for w in per_workload)
        for k in COUNTER_KEYS
    }
    totals["analysis"] = {
        k: sum(per_workload[w]["analysis"][k] for w in per_workload)
        for k in ("lint_s", "bound_s")
    }
    overall = (
        totals["legacy"]["total"] / totals["vector"]["total"]
        if totals["vector"]["total"]
        else 0.0
    )
    overall_walk = (
        totals["legacy"]["walk"] / totals["vector"]["walk"]
        if totals["vector"]["walk"]
        else 0.0
    )
    return {
        "meta": {
            "scale": scale.name,
            "workloads": workload_names,
            "strategies": STRATEGIES,
            "stages": list(STAGES),
            "engines": ["legacy", "vector"],
            "native_backend": native_backend.backend_status(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "manifest": build_manifest(
                extra={"scale": scale.name, "workloads": workload_names}
            ),
            "note": (
                "legacy re-traces per strategy; vector shares one trace "
                "cache per workload, so its trace stage is paid once"
            ),
        },
        "per_workload": per_workload,
        "totals": totals,
        "overall_speedup": overall,
        "overall_walk_speedup": overall_walk,
        "parity_checked": check_parity,
        "parity_mismatches": mismatches,
    }


def check_gate(report: dict, gate_path: str) -> List[str]:
    """Compare a fresh report against a committed one; returns failures.

    Same-scale: each shared workload's walk-stage speedup -- and the
    overall end-to-end speedup -- must stay within 20% of the committed
    value.  Cross-scale (smoke vs a bench-scale gate file): only the
    :data:`CROSS_SCALE_SPEEDUP_FLOOR` sanity floor applies.  Parity
    mismatches in the fresh report always fail.
    """
    with open(gate_path) as fh:
        gate = json.load(fh)
    failures = [f"parity mismatch: {m}" for m in report["parity_mismatches"]]
    same_scale = gate.get("meta", {}).get("scale") == report["meta"]["scale"]
    for wname, cur in report["per_workload"].items():
        cur_su = cur.get("walk_speedup", 0.0)
        ref = gate.get("per_workload", {}).get(wname)
        ref_su = ref.get("walk_speedup") if ref else None
        if same_scale and ref_su:
            if cur_su < 0.8 * ref_su:
                failures.append(
                    f"{wname}: walk speedup {cur_su:.2f}x regressed >20% "
                    f"vs committed {ref_su:.2f}x"
                )
        elif cur_su < CROSS_SCALE_SPEEDUP_FLOOR:
            failures.append(
                f"{wname}: walk speedup {cur_su:.2f}x below sanity floor "
                f"{CROSS_SCALE_SPEEDUP_FLOOR}x"
            )
    # End-to-end scalars go through the shared baseline-diff watchdog so
    # `repro regress`, servebench and this gate agree on the arithmetic.
    from repro.obs import regress as obs_regress

    findings = obs_regress.compare_reports(
        report, gate, obs_regress.PERF_SPECS, same_scale=same_scale
    )
    failures.extend(obs_regress.gate_failures(findings))
    return failures


def counter_deltas(report: dict, gate_path: str) -> Dict[str, dict]:
    """Telemetry deltas vs a committed report (walk-memo hits).

    Informational, never a failure: counter totals shift legitimately with
    scale and workload set, but a silent collapse of the memo hit count is
    exactly the regression the walk-speedup gate can miss when wall-clock
    noise hides it.  Tolerates gate files written
    before a counter existed (the committed value reads as 0 -> ratio None).
    """
    with open(gate_path) as fh:
        gate = json.load(fh)
    current = report.get("totals", {}).get("counters", {})
    committed = gate.get("totals", {}).get("counters", {})
    out: Dict[str, dict] = {}
    for key in DELTA_KEYS:
        cur = int(current.get(key, 0))
        ref = int(committed.get(key, 0))
        out[key] = {
            "current": cur,
            "committed": ref,
            "ratio": (cur / ref) if ref else None,
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small subset at test scale + bit-exact parity assertion",
    )
    parser.add_argument("--scale", default=None, choices=["bench", "test"])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--gate",
        default=None,
        metavar="FILE",
        help="committed BENCH_perf.json to gate walk-stage speedups against",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = TEST if args.scale in (None, "test") else BENCH
        names = args.workloads or SMOKE_WORKLOADS
    else:
        scale = BENCH if args.scale in (None, "bench") else TEST
        names = args.workloads or WORKLOADS

    report = run_bench(names, scale, check_parity=args.smoke)
    if args.gate:
        report["counter_deltas"] = counter_deltas(report, args.gate)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    ana = report["totals"]["analysis"]
    print(
        f"\noverall: legacy {report['totals']['legacy']['total']:.2f}s, "
        f"vector {report['totals']['vector']['total']:.2f}s "
        f"-> {report['overall_speedup']:.2f}x total, "
        f"{report['overall_walk_speedup']:.2f}x walk; "
        f"analysis lint={ana['lint_s']:.2f}s "
        f"bound={ana['bound_s']:.2f}s (informational)  (wrote {args.output})"
    )
    status = 0
    if report["parity_mismatches"]:
        print(f"PARITY FAILURES: {report['parity_mismatches']}", file=sys.stderr)
        status = 1
    if args.gate:
        for key, d in report["counter_deltas"].items():
            ratio = "n/a" if d["ratio"] is None else f"{d['ratio']:.2f}x"
            print(
                f"counters: {key} current={d['current']} "
                f"committed={d['committed']} ({ratio})"
            )
        if not report["totals"]["counters"].get("walk_memo_hits"):
            # Informational: the shared memo going cold usually means the
            # key picked up an unstable component (it silently disables the
            # cross-strategy replay fast path without failing parity).
            print(
                "counters: WARNING walk_memo_hits == 0 -- cross-strategy "
                "memo sharing is not engaging"
            )
        failures = check_gate(report, args.gate)
        for f in failures:
            print(f"GATE: {f}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"gate ok vs {args.gate}")
    return status


if __name__ == "__main__":
    sys.exit(main())
