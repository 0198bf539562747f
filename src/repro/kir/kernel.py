"""Kernel-level IR: global accesses, loop specs, and kernel definitions.

A :class:`Kernel` models a CUDA ``__global__`` function at the level of
detail the LADM compiler needs:

* the block dimensions it is written for,
* the set of global-memory accesses it performs, each with a symbolic index
  expression over prime variables (:mod:`repro.kir.expr`),
* an optional *outermost loop* (the ``m`` induction variable of the paper),
* a per-thread instruction weight used by the performance model.

Data-dependent accesses (``X[Y[tid]]`` in the paper) carry an opaque
``VarKind.PARAM`` "data" variable inside the index so the compiler sees them
as unanalysable-or-ITL, plus a *provider* callback the trace generator calls
to obtain concrete element indices at simulation time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro.errors import KernelIRError
from repro.kir.expr import Expr, ExprLike, Var, VarKind

__all__ = [
    "AccessMode",
    "Dim2",
    "GlobalAccess",
    "IndirectAccess",
    "LoopSpec",
    "Kernel",
    "data_var",
]


def data_var(name: str) -> Var:
    """A variable standing for a data-dependent value (e.g. ``Y[tid]``).

    The index analysis cannot see through data-dependent terms; representing
    them as a distinct variable lets Algorithm 1 recognise the
    ``loopVariant == m`` intra-thread-locality shape while refusing to
    classify anything else that touches the variable.
    """
    return Var(name, VarKind.PARAM)


class AccessMode(enum.Enum):
    """Whether an access reads or writes global memory."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Dim2:
    """A 2-D CUDA dimension (x, y); 1-D shapes use ``y == 1``."""

    x: int
    y: int = 1

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1:
            raise KernelIRError(f"dimensions must be >= 1, got {self}")

    @property
    def count(self) -> int:
        return self.x * self.y

    @property
    def is_2d(self) -> bool:
        return self.y > 1

    def __iter__(self):
        return iter((self.x, self.y))


# A trace-time provider for data-dependent accesses.  It receives the trace
# context (repro.engine.trace.TraceCtx) and returns the element indices the
# threads touch at one iteration.  The context's ids are either scalars (one
# block) or broadcast columns and rows (every block at once), so a provider
# must be plain numpy on them, and its result must broadcast to
# ``(threads,)`` or ``(ntb, threads)`` respectively.
Provider = Callable[..., object]


@dataclass(frozen=True)
class GlobalAccess:
    """One static global-memory access site inside a kernel.

    ``index`` is the element index expression over prime variables.  If
    ``provider`` is set, the trace generator calls it instead of evaluating
    ``index`` (the expression is still what the compiler analyses).
    ``bytes_per_element`` defaults to the owning array's element size.
    """

    array: str
    index: Expr
    mode: AccessMode = AccessMode.READ
    in_loop: bool = False
    provider: Optional[Provider] = None
    weight: float = 1.0  # relative dynamic frequency of this site
    atomic: bool = False  # hardware-atomic RMW; exempt from write-race lint

    def __post_init__(self) -> None:
        if not isinstance(self.index, Expr):
            object.__setattr__(self, "index", Expr.coerce(self.index))
        if self.weight <= 0:
            raise KernelIRError(f"access weight must be positive, got {self.weight}")

    @property
    def is_data_dependent(self) -> bool:
        return self.provider is not None


def IndirectAccess(
    array: str,
    symbolic_index: Expr,
    provider: Provider,
    mode: AccessMode = AccessMode.READ,
    in_loop: bool = False,
    weight: float = 1.0,
    atomic: bool = False,
) -> GlobalAccess:
    """Convenience constructor for a data-dependent access.

    ``symbolic_index`` should use :func:`data_var` for the opaque terms so the
    compiler classifies the site honestly (ITL when it matches ``base + m``,
    unclassified otherwise).
    """
    return GlobalAccess(
        array=array,
        index=symbolic_index,
        mode=mode,
        in_loop=in_loop,
        provider=provider,
        weight=weight,
        atomic=atomic,
    )


@dataclass(frozen=True)
class LoopSpec:
    """The kernel's outermost data-parallel loop.

    ``trip`` is the iteration count: an int, or an expression over runtime
    parameters / grid dims, evaluated at launch.  The induction variable is
    always :data:`repro.kir.expr.M`.
    """

    trip: ExprLike

    def trip_count(self, env: Mapping[Var, int]) -> int:
        trip = Expr.coerce(self.trip)
        value = trip.evaluate(env)
        if value < 0:
            raise KernelIRError(f"negative loop trip count {value}")
        return value


@dataclass(frozen=True)
class Kernel:
    """A CUDA kernel: block shape, global accesses, optional outer loop.

    ``arrays`` maps kernel argument names to element sizes in bytes, e.g.
    ``{"A": 4, "B": 4, "C": 4}`` for three float arrays.
    ``insts_per_thread`` feeds the analytical compute-time model: the number
    of warp instructions each thread executes per outer-loop iteration (or in
    total for loop-less kernels).
    """

    name: str
    block: Dim2
    arrays: Mapping[str, int]
    accesses: Sequence[GlobalAccess]
    loop: Optional[LoopSpec] = None
    insts_per_thread: float = 16.0

    def __post_init__(self) -> None:
        if not self.arrays:
            raise KernelIRError(f"kernel {self.name!r} declares no arrays")
        for acc in self.accesses:
            if acc.array not in self.arrays:
                raise KernelIRError(
                    f"kernel {self.name!r}: access to undeclared array {acc.array!r}"
                )
            if acc.in_loop and self.loop is None:
                raise KernelIRError(
                    f"kernel {self.name!r}: in-loop access to {acc.array!r} "
                    "but the kernel has no loop"
                )
        for name, size in self.arrays.items():
            if size not in (1, 2, 4, 8, 16):
                raise KernelIRError(
                    f"kernel {self.name!r}: array {name!r} has unsupported "
                    f"element size {size}"
                )

    @property
    def has_loop(self) -> bool:
        return self.loop is not None

    def accesses_to(self, array: str) -> Tuple[GlobalAccess, ...]:
        """All access sites touching the given kernel argument."""
        return tuple(a for a in self.accesses if a.array == array)

    def element_size(self, array: str) -> int:
        return self.arrays[array]
