"""Declarative SLOs evaluated as burn rates over live metric windows.

An :class:`SLOSpec` names one machine-checkable service objective.  Three
kinds cover the serving stack:

* ``latency_quantile`` -- "p95 of ``serve.latency{tier=computed}`` stays
  under 2s".  Evaluated Prometheus-style as a **burn rate**: the fraction
  of windowed samples above the ceiling, divided by the allowed fraction
  (``1 - quantile``).  Burn 1.0 means the error budget is being spent
  exactly as provisioned; above ``warn_burn`` the spec is ``warn``, above
  ``breach_burn`` it is ``breach``.
* ``ratio_floor`` -- "dedup ratio > 1", "store hit rate >= 0.5".  The
  value is read from a stats document by dotted path; burn is
  ``floor / value`` (how far below the floor the service runs).
* ``value_ceiling`` -- "divergence == 0".  Any excess is an immediate
  breach; soundness has no error budget.

:func:`evaluate` folds a spec list against a metrics snapshot (windowed
histograms from :class:`~repro.obs.metrics.MetricsRegistry`) plus an
optional stats document, and returns a JSON-safe state doc whose overall
``state`` is the worst per-spec state.  ``repro serve`` exposes it through
the ``stats``/``health`` admin ops.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.obs.metrics import fraction_above, histogram_quantile

__all__ = [
    "SLOSpec",
    "SLOResult",
    "evaluate",
    "default_serve_slos",
    "stats_path",
]

_STATES = ("ok", "warn", "breach")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective; plain data, JSON round-trippable."""

    name: str
    kind: str  # latency_quantile | ratio_floor | value_ceiling
    metric: str  # histogram key (latency_quantile) or dotted stats path
    threshold: float
    quantile: Optional[float] = None  # latency_quantile only
    warn_burn: float = 1.0
    breach_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency_quantile", "ratio_floor", "value_ceiling"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency_quantile":
            if self.quantile is None or not 0.0 < self.quantile < 1.0:
                raise ValueError(
                    f"latency_quantile needs quantile in (0, 1), got {self.quantile}"
                )

    def to_doc(self) -> Dict:
        return asdict(self)


@dataclass
class SLOResult:
    """One evaluated spec: observed value, burn rate, resulting state."""

    name: str
    kind: str
    state: str
    threshold: float
    value: Optional[float]
    burn: Optional[float]
    detail: str

    def to_doc(self) -> Dict:
        return asdict(self)


def stats_path(doc: Optional[Dict], path: str):
    """Read a dotted path out of a nested stats document (None if absent)."""
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _eval_latency(spec: SLOSpec, metrics: Dict) -> SLOResult:
    hist = metrics.get("histograms", {}).get(spec.metric, {})
    window = hist.get("window", hist)
    count = int(window.get("count", 0)) if isinstance(window, dict) else 0
    if count == 0:
        return SLOResult(
            spec.name, spec.kind, "ok", spec.threshold, None, None,
            "no samples in window",
        )
    observed = histogram_quantile(window, spec.quantile)
    allowed = 1.0 - spec.quantile
    violating = fraction_above(window, spec.threshold)
    burn = violating / allowed if allowed > 0 else float("inf")
    if burn <= spec.warn_burn:
        state = "ok"
    elif burn <= spec.breach_burn:
        state = "warn"
    else:
        state = "breach"
    return SLOResult(
        spec.name, spec.kind, state, spec.threshold, observed, burn,
        f"p{spec.quantile * 100:g}={observed:.4f}s over {count} samples, "
        f"{violating * 100:.1f}% above {spec.threshold:g}s "
        f"(budget {allowed * 100:g}%)",
    )


def _eval_floor(spec: SLOSpec, stats: Optional[Dict]) -> SLOResult:
    value = stats_path(stats, spec.metric)
    if value is None:
        return SLOResult(
            spec.name, spec.kind, "ok", spec.threshold, None, None, "no data"
        )
    value = float(value)
    if value >= spec.threshold:
        burn = spec.threshold / value if value > 0 else 0.0
        return SLOResult(
            spec.name, spec.kind, "ok", spec.threshold, value, burn,
            f"{value:.3f} >= floor {spec.threshold:g}",
        )
    burn = float("inf") if value <= 0 else spec.threshold / value
    state = "warn" if burn <= spec.breach_burn else "breach"
    return SLOResult(
        spec.name, spec.kind, state, spec.threshold, value, burn,
        f"{value:.3f} below floor {spec.threshold:g}",
    )


def _eval_ceiling(spec: SLOSpec, stats: Optional[Dict]) -> SLOResult:
    value = stats_path(stats, spec.metric)
    if value is None:
        return SLOResult(
            spec.name, spec.kind, "ok", spec.threshold, None, None, "no data"
        )
    value = float(value)
    if value <= spec.threshold:
        return SLOResult(
            spec.name, spec.kind, "ok", spec.threshold, value, 0.0,
            f"{value:g} <= ceiling {spec.threshold:g}",
        )
    return SLOResult(
        spec.name, spec.kind, "breach", spec.threshold, value, float("inf"),
        f"{value:g} exceeds hard ceiling {spec.threshold:g}",
    )


def evaluate(
    specs: List[SLOSpec],
    metrics: Optional[Dict] = None,
    stats: Optional[Dict] = None,
) -> Dict:
    """Evaluate every spec; overall ``state`` is the worst individual one.

    ``metrics`` is a :meth:`MetricsRegistry.snapshot` document (windowed
    histograms feed latency specs); ``stats`` is any nested dict the
    dotted-path specs read (the server's ``describe()`` doc, a loadgen
    report...).  Infinite burns serialise as ``null`` -- JSON has no inf.
    """
    results = []
    for spec in specs:
        if spec.kind == "latency_quantile":
            results.append(_eval_latency(spec, metrics or {}))
        elif spec.kind == "ratio_floor":
            results.append(_eval_floor(spec, stats))
        else:
            results.append(_eval_ceiling(spec, stats))
    overall = max(
        (_STATES.index(r.state) for r in results), default=0
    )
    docs = []
    for r in results:
        doc = r.to_doc()
        if doc["burn"] is not None and doc["burn"] == float("inf"):
            doc["burn"] = None
            doc["burn_infinite"] = True
        docs.append(doc)
    return {"state": _STATES[overall], "specs": docs}


def default_serve_slos(
    p95_ceiling_s: float = 2.0,
    p99_ceiling_s: float = 5.0,
    cached_p95_ceiling_s: float = 0.5,
) -> List[SLOSpec]:
    """The serving defaults: computed-tier ceilings plus cached-tier snap.

    Cached tiers (memory/store) answer without simulating, so their p95
    ceiling is an order of magnitude tighter than the compute tier's.
    Floors on dedup/store hit-rates are *workload* properties -- CI's
    serve-smoke job asserts them against its duplicate-heavy stream; a live
    server with a cold, unique stream must not page anyone over them, so
    they are not part of the defaults.
    """
    specs = [
        SLOSpec(
            name="serve.p95.computed",
            kind="latency_quantile",
            metric="serve.latency{tier=computed}",
            threshold=p95_ceiling_s,
            quantile=0.95,
        ),
        SLOSpec(
            name="serve.p99.computed",
            kind="latency_quantile",
            metric="serve.latency{tier=computed}",
            threshold=p99_ceiling_s,
            quantile=0.99,
        ),
    ]
    for tier in ("memory", "store"):
        specs.append(
            SLOSpec(
                name=f"serve.p95.{tier}",
                kind="latency_quantile",
                metric=f"serve.latency{{tier={tier}}}",
                threshold=cached_p95_ceiling_s,
                quantile=0.95,
            )
        )
    return specs
