"""``compare A/ B/``: parent (A) against change (B), metric by metric.

Each directory holds ``run --out`` documents; the i-th file of A (by name)
pairs with the i-th of B, and the two were run alternately.  For every
(end-to-end metric, workload) the verdict follows the sandbox rule:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than A's interquartile range;
* ``unresolved`` -- either side's spread (IQR / median) is wider than the
  bound, unless every B run reads better than every A run;
* ``unchanged``  -- otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

MIN_PAIRS = 10


class RefusedError(ValueError):
    """The two sides are not comparable."""


def load_runs(directory: str) -> List[Dict]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    docs = []
    for name in names:
        with open(os.path.join(directory, name)) as fh:
            docs.append(json.load(fh))
    return docs


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict:
    """The verdict for one metric from paired samples ``a[i]``/``b[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    a_q, b_q = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    a_med, b_med = statistics.median(a), statistics.median(b)
    gain = sign * (a_med - b_med)  # > 0: B is better
    spread = max((a_q[2] - a_q[0]) / abs(a_med), (b_q[2] - b_q[0]) / abs(b_med))
    if -gain > bound * abs(a_med):
        word = "regressed"
    elif wins >= 0.9 * len(a) and gain > a_q[2] - a_q[0]:
        word = "improved"
    elif spread > bound and not all(sign * (x - y) > 0 for x in a for y in b):
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "verdict": word,
        "wins": wins,
        "pairs": len(a),
        "a": {"median": a_med, "q1": a_q[0], "q3": a_q[2]},
        "b": {"median": b_med, "q1": b_q[0], "q3": b_q[2]},
        "spread": spread,
        "bound": bound,
    }


def compare(a_docs: List[Dict], b_docs: List[Dict], spec: Dict) -> List[Dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    if len(a_docs) != len(b_docs) or len(a_docs) < MIN_PAIRS:
        raise RefusedError(
            f"need at least {MIN_PAIRS} pairs, got {len(a_docs)} and {len(b_docs)} runs"
        )
    workloads = set(a_docs[0]["workloads"])
    for i, (a, b) in enumerate(zip(a_docs, b_docs)):
        if a["seed"] != b["seed"]:
            raise RefusedError(f"pair {i}: seeds {a['seed']} and {b['seed']} differ")
        workloads &= set(a["workloads"]) & set(b["workloads"])
        for w in workloads:
            da = a["workloads"][w]["untraced"]["info"].get("workload_digest")
            db = b["workloads"][w]["untraced"]["info"].get("workload_digest")
            if da != db:
                raise RefusedError(f"pair {i}: {w} ran different ops ({da} vs {db})")
    rows = []
    for w in sorted(workloads):
        for m in spec["end_to_end"]:
            a = [d["workloads"][w]["untraced"]["metrics"].get(m["name"]) for d in a_docs]
            b = [d["workloads"][w]["untraced"]["metrics"].get(m["name"]) for d in b_docs]
            if any(v is None for v in a + b):
                continue
            row = verdict(
                [v["value"] for v in a], [v["value"] for v in b], m["better"], m["bound"]
            )
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"], **row})
    return rows


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<19} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'wins':>6} {'verdict':<10}"
    ]
    for r in rows:
        a, b = r["a"], r["b"]
        lines.append(
            f"{r['workload']:<13} {r['metric']:<19} "
            f"{a['median']:>12.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
            f"{b['median']:>12.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
            f"{r['wins']:>3}/{r['pairs']:<2} {r['verdict']:<10}"
        )
    return "\n".join(lines)
