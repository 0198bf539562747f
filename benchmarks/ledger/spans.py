"""The benchmark's own span recorder.

Spans wrap the calls the benchmark makes into each layer of the program
(``workloads.build``, ``compiler.compile``, ``strategies.plan``,
``engine.trace``, ``engine.run``) inside one ``op`` span per operation.
They are kept in memory and written as a Chrome trace-event file at exit.
The program's own ``repro.obs`` session is not used: this measures the
layers from outside, through their public entry points.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec: "SpanRecorder", index: int):
        self._rec = rec
        self._index = index

    def __enter__(self):
        self._rec._stack.append(self._index)
        self._rec.spans[self._index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec.spans[self._index][2] = time.perf_counter()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    """Nested spans ``[name, start, end, parent index, op id]``.

    Disabled, :meth:`span` returns a shared no-op context manager, so the
    untraced run pays one attribute check per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        self.spans.append([name, 0.0, 0.0, parent, op])
        return _Span(self, len(self.spans) - 1)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)``: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, Tuple[float, int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write_chrome_trace(self, path: str) -> None:
        """Complete ("X") events, microseconds from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def span_cost_s(samples: int = 2000) -> float:
    """Host seconds one recorded span costs, measured in this process."""
    rec = SpanRecorder(True)
    t0 = time.perf_counter()
    for i in range(samples):
        with rec.span("op", op=i):
            with rec.span("child"):
                pass
    return (time.perf_counter() - t0) / (2 * samples)
