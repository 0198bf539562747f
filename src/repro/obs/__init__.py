"""Observability: span tracing, counters and run provenance.

The subsystem is a *null object* by default: every instrumentation site in
the engine, runtime and experiment layers goes through the process-wide
:class:`ObsSession` returned by :func:`current`, and when that session is
disabled (the default) a span is a shared no-op context manager and a
counter increment returns after one attribute check -- nanoseconds, no
allocation, no locking.  Enabling observability (:func:`enable`, the
``repro profile`` command, or ``REPRO_OBS=1``) swaps in live recorders
without touching any call site.

Components:

* :mod:`repro.obs.tracer` -- the span tracer (context-manager API,
  monotonic ``perf_counter_ns`` clocks, thread-safe, pid/tid stamped),
* :mod:`repro.obs.counters` -- the structured counter registry
  (``name{label=value,...}`` keys, snapshot/diff),
* :mod:`repro.obs.manifest` -- run manifests (config digest, topology,
  strategy, engine, package version) attached to every ``RunResult``,
* :mod:`repro.obs.export` -- Chrome trace-event / Perfetto JSON export,
  schema validators and the text flame summary,
* :mod:`repro.obs.profile` -- the ``repro profile`` CLI subcommand.

See ``docs/observability.md`` for the API walkthrough and the counter
name catalogue.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.counters import CounterRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer

__all__ = ["ObsSession", "current", "enable", "disable", "install"]


class ObsSession:
    """One tracer, one counter registry and one metrics registry -- enabled
    or inert together.  ``metrics`` holds the streaming latency histograms
    (cumulative + sliding window) the serving layer records into; like the
    others its disabled path is one attribute check."""

    def __init__(self, enabled: bool = True, epoch_ns: Optional[int] = None):
        self.enabled = enabled
        self.tracer = SpanTracer(enabled=enabled, epoch_ns=epoch_ns)
        self.counters = CounterRegistry(enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)


_current: Optional[ObsSession] = None


def current() -> ObsSession:
    """The process-wide session every instrumentation site reports to.

    Created lazily; starts disabled unless ``REPRO_OBS`` is set to a
    non-empty value other than ``0``.
    """
    global _current
    if _current is None:
        _current = ObsSession(
            enabled=os.environ.get("REPRO_OBS", "") not in ("", "0")
        )
    return _current


def enable() -> ObsSession:
    """Install (and return) a fresh, enabled process-wide session."""
    return install(ObsSession(enabled=True))


def disable() -> ObsSession:
    """Install (and return) a fresh, disabled process-wide session."""
    return install(ObsSession(enabled=False))


def install(session: ObsSession) -> ObsSession:
    """Make ``session`` the process-wide session."""
    global _current
    _current = session
    return session
