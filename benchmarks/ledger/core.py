"""Paths, the metric spec, statistics and the per-run report."""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
#: Run artefacts (traces, per-run documents, temporary stores).
RUN_DIR = os.path.join(ROOT, ".ledger")

BATCH_WORKLOADS = ("fig9-sweep", "oneshot-cold")
WORKLOADS = BATCH_WORKLOADS + ("serve-cold", "serve-warm")

#: The strategies a batch workload can draw (golden.json covers all of them).
STRATEGIES = (
    "Baseline-RR",
    "Batch+FT",
    "Kernel-wide",
    "CODA",
    "H-CODA",
    "LASP+RTWICE",
    "LASP+RONCE",
    "LADM",
    "SWZ-Hilbert",
    "Monolithic",
)

#: Workloads of the ``--smoke`` batch runs (the load generator's smoke mix).
SMOKE_WORKLOADS = ("conv", "scalarprod", "tra")


class HarnessError(RuntimeError):
    """A process the benchmark started could not be started, stopped or measured."""


def child_env() -> Dict[str, str]:
    """The environment for processes the benchmark starts: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_first_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """The first line ``proc`` writes to its (unbuffered) stdout pipe."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + timeout_s
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise HarnessError(f"{proc.args[:4]} wrote no line in {timeout_s:.0f} s")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise HarnessError(f"{proc.args[:4]} exited with {proc.wait()} before its first line")
        buf += chunk
    return buf.split(b"\n", 1)[0].decode("utf-8", "replace")


def time_import_start(imports: str, timeout_s: float = 120.0) -> float:
    """Seconds from exec until a fresh interpreter has run ``imports``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"{imports}\nprint('ready', flush=True)"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
    )
    try:
        line = read_first_line(proc, timeout_s)
        ready_s = time.perf_counter() - t0
        code = proc.wait(timeout_s)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line != "ready":
        raise HarnessError(f"import probe wrote {line!r} and exited with {code}")
    return ready_s


def load_spec() -> Dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: ``q=0.99`` of 3000 leaves 30 samples above."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _jsonable(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot hash {type(obj).__name__}")


def digest_of(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def snapshot_sha(result) -> str:
    """The golden identity of one simulated answer: sha256 of its snapshot."""
    return digest_of(result.snapshot())


def load_golden(path: str) -> Dict[str, Dict[str, str]]:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# The per-run report
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Everything one run of one workload measured and checked."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: first descriptions of failed ops (wrong answer, error, timeout)
    errors: List[str] = field(default_factory=list)
    #: reasons the run itself is invalid (harness checks)
    invalid: List[str] = field(default_factory=list)
    #: name -> {"value", "unit"}
    metrics: Dict[str, Dict] = field(default_factory=dict)
    info: Dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def add_latencies(self, latencies: List[float]) -> None:
        """Per-op latency percentiles.

        ``BENCHMARK.json`` bounds p50 and p90.  p99 is only reported: a few
        stall events decide it, and over ten seeds its IQR was 36-46% of its
        median on the serve workloads (p95 on serve-cold: 10-24%).
        """
        for name, q in (("latency_p50_s", 0.5), ("latency_p90_s", 0.9), ("latency_p99_s", 0.99)):
            self.add(name, percentile(latencies, q), "s")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid

    def to_doc(self) -> Dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "invalid": self.invalid,
            "metrics": self.metrics,
            "info": self.info,
        }
