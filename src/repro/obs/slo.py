"""Declarative latency SLOs evaluated as burn rates over live metric windows.

An :class:`SLOSpec` names one machine-checkable service objective of the
one kind the serving stack uses, ``latency_quantile``: "p95 of
``serve.latency{tier=computed}`` stays under 2s".  It is evaluated
Prometheus-style as a **burn rate**: the fraction of windowed samples
above the ceiling, divided by the allowed fraction (``1 - quantile``).
Burn 1.0 means the error budget is being spent exactly as provisioned;
above ``warn_burn`` the spec is ``warn``, above ``breach_burn`` it is
``breach``.

:func:`evaluate` folds a spec list against a metrics snapshot (windowed
histograms from :class:`~repro.obs.metrics.MetricsRegistry`) and returns a
JSON-safe state doc whose overall ``state`` is the worst per-spec state.
``repro serve`` exposes it through the ``stats``/``health`` admin ops.
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
]

_STATES = ("ok", "warn", "breach")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective; plain data, JSON round-trippable."""

    name: str
    kind: str  # latency_quantile
    metric: str  # histogram key
    threshold: float
    quantile: Optional[float] = None
    warn_burn: float = 1.0
    breach_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind != "latency_quantile":
            raise ValueError(f"unknown SLO kind {self.kind!r}")
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
    burn = violating / allowed
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


def evaluate(specs: List[SLOSpec], metrics: Optional[Dict] = None) -> Dict:
    """Evaluate every spec; overall ``state`` is the worst individual one.

    ``metrics`` is a :meth:`MetricsRegistry.snapshot` document; each spec
    reads its histogram's window.
    """
    docs = [_eval_latency(spec, metrics or {}).to_doc() for spec in specs]
    overall = max((_STATES.index(d["state"]) for d in docs), default=0)
    return {"state": _STATES[overall], "specs": docs}


def default_serve_slos(
    p95_ceiling_s: float = 2.0,
    p99_ceiling_s: float = 5.0,
    cached_p95_ceiling_s: float = 0.5,
) -> List[SLOSpec]:
    """The serving defaults: computed-tier ceilings plus cached-tier snap.

    Cached tiers (memory/store) answer without simulating, so their p95
    ceiling is an order of magnitude tighter than the compute tier's.
    Dedup and store hit rates are *workload* properties -- CI's
    serve-smoke job asserts them against its duplicate-heavy stream; a live
    server with a cold, unique stream must not page anyone over them, so
    no SLO covers them.
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
