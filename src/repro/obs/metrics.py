"""Streaming metrics: log-bucketed histograms over a total and a window.

Where :mod:`repro.obs.counters` answers "how many", this module answers
"how fast, lately".  The primitives are built for a *serving* process --
``repro serve`` records one latency observation per answered query on its
hot path, and that one record is the answer's whole telemetry: tier
counts, rates and SLO burn all read it back -- so recording is lock-cheap
(one small lock per instrument, held for a dict increment) and a disabled
registry returns after a single attribute check, matching the counter
registry's zero-cost contract.

Three primitives:

* :class:`LogHistogram` -- counts in geometric buckets ``(g**(i-1), g**i]``
  with growth factor ``g`` (default ``2**0.25``, ~19% bucket width).  A
  quantile read returns the upper edge of the bucket holding the ranked
  sample, so it is within one bucket width of the exact sample quantile
  (the property test in ``tests/obs/test_metrics.py`` pins the bound).
  Snapshots are plain JSON-safe dicts; :meth:`LogHistogram.merge` folds a
  snapshot in and equals recording the concatenated streams exactly --
  bucket counts are integers, no interpolation anywhere.
* :class:`WindowedHistogram` -- a ring of ``slices`` per-slice histograms
  covering ``window_s`` seconds.  Expiry is deterministic in the injected
  ``clock`` (slice index = ``now // slice_width``), so tests drive it with
  a fake clock and never sleep.  Its count over ``window_s`` is the
  instrument's recent event rate.
* :class:`MetricsRegistry` -- named histograms with canonical
  ``name{label=value}`` keys (shared with the counter registry).  Each
  key keeps a *total* (cumulative: its count is the number of events
  ever recorded) and a *window* (recent: feeds rates, SLO burn rates and
  ``repro top``).

Catalogue of metric names lives in ``docs/observability.md``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.counters import counter_key

__all__ = [
    "DEFAULT_GROWTH",
    "LogHistogram",
    "WindowedHistogram",
    "MetricsRegistry",
    "histogram_quantile",
    "fraction_above",
    "summarize_histogram",
    "validate_histogram",
]

#: Default geometric bucket growth: four buckets per octave (~19% width).
DEFAULT_GROWTH = 2.0 ** 0.25

#: Values at or below this record in the dedicated zero bucket; latency
#: observations below a nanosecond are clock noise, not signal.
_MIN_POSITIVE = 1e-9


def _bucket_index(value: float, growth: float) -> int:
    """The index ``i`` with ``growth**(i-1) < value <= growth**i``."""
    return math.ceil(math.log(value) / math.log(growth) - 1e-12)


class LogHistogram:
    """Counts in geometric buckets; exact-count snapshots; mergeable."""

    __slots__ = ("growth", "count", "total", "vmin", "vmax", "zero", "buckets", "_lock")

    def __init__(self, growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = growth
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.zero = 0
        self.buckets: Dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.vmin is None or value < self.vmin:
                self.vmin = value
            if self.vmax is None or value > self.vmax:
                self.vmax = value
            if value <= _MIN_POSITIVE:
                self.zero += 1
                return
            idx = _bucket_index(value, self.growth)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain JSON-safe dict; bucket keys are stringified indices."""
        with self._lock:
            return {
                "growth": self.growth,
                "count": self.count,
                "sum": self.total,
                "min": self.vmin,
                "max": self.vmax,
                "zero": self.zero,
                "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            }

    def merge(self, snap: Dict) -> None:
        """Fold one snapshot in (e.g. shipped from a worker process)."""
        if abs(snap.get("growth", self.growth) - self.growth) > 1e-12:
            raise ValueError("cannot merge histograms with different growth")
        with self._lock:
            self.count += int(snap.get("count", 0))
            self.total += float(snap.get("sum", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                other = snap.get(bound)
                if other is not None:
                    mine = self.vmin if bound == "min" else self.vmax
                    merged = other if mine is None else pick(mine, other)
                    if bound == "min":
                        self.vmin = merged
                    else:
                        self.vmax = merged
            self.zero += int(snap.get("zero", 0))
            for key, c in snap.get("buckets", {}).items():
                idx = int(key)
                self.buckets[idx] = self.buckets.get(idx, 0) + int(c)

    def quantile(self, p: float) -> float:
        return histogram_quantile(self.snapshot(), p)


# ----------------------------------------------------------------------
# Snapshot-level operations (work on plain dicts, no live instrument)
# ----------------------------------------------------------------------
def histogram_quantile(snap: Dict, p: float) -> float:
    """The ``p``-quantile estimate: upper edge of the ranked sample's bucket.

    Rank convention matches ``loadgen._percentile`` (``round(p * (n-1))``),
    so against the exact sample quantile ``t`` the estimate ``r`` obeys
    ``t <= r <= t * growth`` (modulo float rounding at bucket edges).
    Returns 0.0 on an empty snapshot.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile {p} not in [0, 1]")
    n = int(snap.get("count", 0))
    if n == 0:
        return 0.0
    rank = min(n - 1, max(0, round(p * (n - 1))))
    seen = int(snap.get("zero", 0))
    if rank < seen:
        return 0.0
    growth = snap.get("growth", DEFAULT_GROWTH)
    for key in sorted(snap.get("buckets", {}), key=int):
        seen += int(snap["buckets"][key])
        if rank < seen:
            upper = growth ** int(key)
            vmax = snap.get("max")
            return min(upper, vmax) if vmax is not None else upper
    vmax = snap.get("max")
    return float(vmax) if vmax is not None else 0.0


def fraction_above(snap: Dict, threshold: float) -> float:
    """Fraction of recorded samples above ``threshold`` (bucket-resolved).

    Samples in the bucket straddling the threshold count as above iff the
    bucket's upper edge exceeds it -- a conservative (over-)estimate of the
    violation fraction, biased at most one bucket width.  Feeds the SLO
    burn-rate evaluation in :mod:`repro.obs.slo`.
    """
    n = int(snap.get("count", 0))
    if n == 0:
        return 0.0
    growth = snap.get("growth", DEFAULT_GROWTH)
    above = 0
    for key, c in snap.get("buckets", {}).items():
        if growth ** int(key) > threshold:
            above += int(c)
    if threshold < 0:
        above += int(snap.get("zero", 0))
    return above / n


def summarize_histogram(snap: Dict) -> Dict:
    """Human-facing summary: count, mean and the serving quantile ladder."""
    n = int(snap.get("count", 0))
    return {
        "count": n,
        "mean": (float(snap.get("sum", 0.0)) / n) if n else 0.0,
        "p50": histogram_quantile(snap, 0.50),
        "p95": histogram_quantile(snap, 0.95),
        "p99": histogram_quantile(snap, 0.99),
        "p999": histogram_quantile(snap, 0.999),
        "max": snap.get("max") or 0.0,
    }


def validate_histogram(snap: Dict) -> List[str]:
    """Schema errors of one histogram snapshot ([] when valid)."""
    errors: List[str] = []
    if not isinstance(snap, dict):
        return ["histogram snapshot not an object"]
    for field in ("growth", "count", "sum", "zero", "buckets"):
        if field not in snap:
            errors.append(f"histogram missing {field!r}")
    if not isinstance(snap.get("buckets"), dict):
        errors.append("histogram buckets not an object")
        return errors
    bucketed = int(snap.get("zero", 0))
    for key, c in snap["buckets"].items():
        try:
            int(key)
        except (TypeError, ValueError):
            errors.append(f"bucket key {key!r} not an int")
        if not isinstance(c, int) or c < 0:
            errors.append(f"bucket {key!r}: count {c!r} not a non-negative int")
        else:
            bucketed += c
    if isinstance(snap.get("count"), int) and bucketed != snap["count"]:
        errors.append(
            f"bucket counts sum to {bucketed}, count says {snap['count']}"
        )
    return errors


# ----------------------------------------------------------------------
# Sliding window
# ----------------------------------------------------------------------
class WindowedHistogram:
    """A ring of per-slice histograms covering the trailing ``window_s``.

    ``record`` lands in the slice ``int(now / slice_width)``; ``snapshot``
    merges every slice whose index is within ``slices`` of the current one
    and discards the rest -- so expiry is a pure function of the injected
    ``clock`` and tests never sleep.  The whole window is at most one
    slice-width stale at the boundaries (standard coarse-slice tradeoff).
    """

    __slots__ = ("growth", "window_s", "slices", "_clock", "_ring", "_lock")

    def __init__(
        self,
        window_s: float = 60.0,
        slices: int = 6,
        growth: float = DEFAULT_GROWTH,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_s <= 0 or slices <= 0:
            raise ValueError("window_s and slices must be positive")
        self.growth = growth
        self.window_s = float(window_s)
        self.slices = int(slices)
        self._clock = clock
        # ring position -> (slice_index, LogHistogram)
        self._ring: List[Optional[Tuple[int, LogHistogram]]] = [None] * self.slices
        self._lock = threading.Lock()

    @property
    def slice_width(self) -> float:
        return self.window_s / self.slices

    def _slice_index(self) -> int:
        return int(self._clock() / self.slice_width)

    def record(self, value: float) -> None:
        idx = self._slice_index()
        pos = idx % self.slices
        with self._lock:
            slot = self._ring[pos]
            if slot is None or slot[0] != idx:
                slot = (idx, LogHistogram(growth=self.growth))
                self._ring[pos] = slot
        slot[1].record(value)

    def snapshot(self) -> Dict:
        """Merged histogram of the live slices (older ones drop out)."""
        idx = self._slice_index()
        out = LogHistogram(growth=self.growth)
        with self._lock:
            live = [
                s for s in self._ring if s is not None and idx - s[0] < self.slices
            ]
        for _, hist in live:
            out.merge(hist.snapshot())
        return out.snapshot()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Named histograms with canonical counter-style keys.

    Each key owns a cumulative *total* (never expires) and a sliding
    *window* (feeds live views, rates and SLO burn rates).  The disabled
    path is one attribute check, mirroring
    :class:`~repro.obs.counters.CounterRegistry`.
    """

    def __init__(
        self,
        enabled: bool = True,
        window_s: float = 60.0,
        slices: int = 6,
        growth: float = DEFAULT_GROWTH,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.enabled = enabled
        self.window_s = window_s
        self.slices = slices
        self.growth = growth
        self._clock = clock
        self._hists: Dict[str, Tuple[LogHistogram, WindowedHistogram]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _histogram(self, key: str) -> Tuple[LogHistogram, WindowedHistogram]:
        pair = self._hists.get(key)
        if pair is None:
            with self._lock:
                pair = self._hists.get(key)
                if pair is None:
                    pair = (
                        LogHistogram(growth=self.growth),
                        WindowedHistogram(
                            window_s=self.window_s,
                            slices=self.slices,
                            growth=self.growth,
                            clock=self._clock,
                        ),
                    )
                    self._hists[key] = pair
        return pair

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram instrument."""
        if not self.enabled:
            return
        total, window = self._histogram(counter_key(name, **labels))
        total.record(value)
        window.record(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The full JSON-safe registry state (totals + live windows)."""
        with self._lock:
            hist_keys = list(self._hists)
        return {
            "window_s": self.window_s,
            "histograms": {
                k: {
                    "total": self._hists[k][0].snapshot(),
                    "window": self._hists[k][1].snapshot(),
                }
                for k in sorted(hist_keys)
            },
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._hists)
