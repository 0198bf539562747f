"""Exception hierarchy for the LADM reproduction.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch package failures without
masking programming errors such as ``TypeError``.  :func:`env_int` reads the
integer ``REPRO_*`` knobs, so a malformed value fails as a
:class:`ConfigError` naming the variable rather than as a raw traceback.
"""

import os


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ExpressionError(ReproError):
    """Raised for invalid symbolic-expression operations (e.g. inexact division)."""


class KernelIRError(ReproError):
    """Raised for malformed kernel IR (bad dims, unknown arrays, bad loop specs)."""


class CompilationError(ReproError):
    """Raised when the static index analysis cannot process a program."""


class TopologyError(ReproError):
    """Raised for invalid system topology configurations."""


class MemoryError_(ReproError):
    """Raised for address-space/page-table violations (name avoids builtin clash)."""


class PlacementError(ReproError):
    """Raised when a page-placement policy is misconfigured or incomplete."""


class SchedulingError(ReproError):
    """Raised when a threadblock schedule is invalid (unassigned/duplicated TBs)."""


class SimulationError(ReproError):
    """Raised by the trace-driven engine for inconsistent simulation state."""


class MetricsError(ReproError):
    """Raised for malformed metrics containers (empty runs, shape mismatches)."""


class WorkloadError(ReproError):
    """Raised when a workload definition is inconsistent with its inputs."""


class ConfigError(ReproError):
    """Raised for a malformed ``REPRO_*`` environment setting."""


def env_int(name: str, default: int) -> int:
    """The non-negative integer in environment variable ``name``, or
    ``default`` when it is unset or empty."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"{name}={raw!r} is not a non-negative integer")
    return value
