"""Memory-trace generation from the kernel IR.

For every threadblock and outer-loop iteration, each access site yields the
set of 32-byte sectors its warps request.  Affine sites are evaluated
directly from their index expression (vectorised over all threads of the
block); data-dependent sites call their provider with a :class:`TraceCtx`.

Requests are coalesced at threadblock granularity (unique sectors per site
per iteration), which matches warp-level coalescing for the regular patterns
in this suite and is the level at which the L2 sees traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.kir.expr import BX, BY, M, TX, TY, Var
from repro.kir.kernel import AccessMode, GlobalAccess
from repro.kir.program import KernelLaunch
from repro.memory.address_space import AddressSpace

__all__ = ["TraceCtx", "SiteRequests", "TBTrace", "trace_threadblock"]


@dataclass
class TraceCtx:
    """Context handed to data-dependent access providers.

    The ids come in one of two shapes, and a provider must accept both:

    * one threadblock (the legacy walk, paging): ``tb``/``bx``/``by`` are
      ints and ``tx``/``ty`` are per-thread arrays (thread-linear order);
    * every threadblock at once (the trace cache): ``tb``/``bx``/``by`` are
      ``(ntb, 1)`` columns and ``tx``/``ty`` are ``(1, threads)`` rows.

    Plain numpy arithmetic and indexing on the ids serves both; an
    ``int(...)`` of an id does not.  The result must broadcast to
    ``(threads,)`` or ``(ntb, threads)`` respectively.  Providers must be
    deterministic functions of this context (no hidden randomness) so
    simulations are reproducible.
    """

    launch: KernelLaunch
    tb: Union[int, np.ndarray]
    bx: Union[int, np.ndarray]
    by: Union[int, np.ndarray]
    m: int
    tx: np.ndarray
    ty: np.ndarray

    @property
    def num_threads(self) -> int:
        return self.tx.shape[-1]

    @property
    def linear_tid(self) -> np.ndarray:
        """Global linear thread id (unique across the whole grid)."""
        block_threads = self.launch.kernel.block.count
        return self.tb * block_threads + self.ty * self.launch.kernel.block.x + self.tx


@dataclass
class SiteRequests:
    """Coalesced requests of one site in one (threadblock, iteration)."""

    array: str  # allocation name (already resolved through launch args)
    mode: AccessMode
    sectors: np.ndarray  # unique sector ids (int64)
    pages: np.ndarray  # page index per sector (aligned with ``sectors``)


@dataclass
class TBTrace:
    """All requests of one threadblock, iteration by iteration."""

    tb: int
    iterations: List[List[SiteRequests]]

    def total_requests(self) -> int:
        return sum(sr.sectors.size for it in self.iterations for sr in it)


class _LaunchTracer:
    """Caches per-launch constants for fast per-TB trace generation."""

    def __init__(self, launch: KernelLaunch, space: AddressSpace, sector_bytes: int):
        self.launch = launch
        self.space = space
        self.sector_bytes = sector_bytes
        kernel = launch.kernel
        bdx, bdy = kernel.block.x, kernel.block.y
        lin = np.arange(kernel.block.count, dtype=np.int64)
        self._tx = lin % bdx
        self._ty = lin // bdx
        self._base_env: Dict[Var, object] = dict(launch.launch_env())
        self.trip = launch.trip_count()
        # Sites executed every iteration vs. once (loop-less sites run at m=0).
        self.loop_sites = tuple(a for a in kernel.accesses if a.in_loop)
        self.once_sites = tuple(a for a in kernel.accesses if not a.in_loop)

    def sites_at(self, m: int) -> Tuple[GlobalAccess, ...]:
        """The access sites that execute at outer-loop iteration ``m``."""
        if m == 0:
            return self.loop_sites + self.once_sites
        return self.loop_sites

    def iteration_requests(self, tb: int, m: int) -> List[SiteRequests]:
        """Coalesced requests of one threadblock at one iteration."""
        gdx = self.launch.grid.x
        bx, by = tb % gdx, tb // gdx
        reqs: List[SiteRequests] = []
        for site in self.sites_at(m):
            sr = self._site_requests(site, tb, bx, by, m)
            if sr.sectors.size:
                reqs.append(sr)
        return reqs

    def trace_tb(self, tb: int) -> TBTrace:
        iterations = [self.iteration_requests(tb, m) for m in range(self.trip)]
        return TBTrace(tb=tb, iterations=iterations)

    # ------------------------------------------------------------------
    # Batched (all-threadblock) evaluation, used by the trace cache
    # ------------------------------------------------------------------
    def site_sectors_all_tbs(self, site: GlobalAccess, m: int):
        """Per-TB sorted-unique sector ids of one site at iteration ``m``.

        Evaluates the site for *every* threadblock in one broadcast
        (threadblocks down the rows, threads across the columns) instead of
        one Python round-trip per TB: an affine site through its index
        expression, a data-dependent site through one provider call whose
        :class:`TraceCtx` holds id columns and rows.  Returns ``(sectors,
        counts)`` where ``sectors`` concatenates each TB's sorted unique
        sector ids in TB order and ``counts[tb]`` is each TB's contribution.
        An empty provider result requests nothing, as on the legacy walk;
        any other result that does not broadcast to ``(ntb, threads)``
        raises :class:`~repro.errors.SimulationError`.
        """
        launch = self.launch
        ntb = launch.num_threadblocks
        gdx = launch.grid.x
        tbs = np.arange(ntb, dtype=np.int64)[:, None]
        tx, ty = self._tx[None, :], self._ty[None, :]
        bx, by = tbs % gdx, tbs // gdx
        if site.provider is not None:
            ctx = TraceCtx(launch=launch, tb=tbs, bx=bx, by=by, m=m, tx=tx, ty=ty)
            elements = site.provider(ctx)
        else:
            env = dict(self._base_env)
            env.update({TX: tx, TY: ty, BX: bx, BY: by, M: m})
            elements = site.index.evaluate_vectorized(env)
        elements = np.asarray(elements, dtype=np.int64)
        if elements.size == 0:
            return elements.reshape(0), np.zeros(ntb, dtype=np.int64)
        try:
            elements = np.broadcast_to(elements, (ntb, self._tx.size))
        except ValueError:
            raise SimulationError(
                f"kernel {launch.kernel.name!r} site "
                f"{launch.kernel.accesses.index(site)} ({site.array}): elements "
                f"of shape {elements.shape} do not broadcast to (threadblocks, "
                f"threads) = {(ntb, self._tx.size)}"
            ) from None
        alloc_name = launch.args[site.array]
        addresses = self.space.element_addresses(alloc_name, elements.reshape(-1))
        sectors = (addresses // self.sector_bytes).reshape(ntb, -1)
        # Row-wise sort + dedup: equivalent to np.unique per row, without the
        # per-row Python loop.
        sectors = np.sort(sectors, axis=1)
        keep = np.empty(sectors.shape, dtype=bool)
        keep[:, 0] = True
        keep[:, 1:] = sectors[:, 1:] != sectors[:, :-1]
        counts = keep.sum(axis=1)
        return sectors[keep], counts

    def _site_requests(
        self, site: GlobalAccess, tb: int, bx: int, by: int, m: int
    ) -> SiteRequests:
        launch = self.launch
        alloc_name = launch.args[site.array]
        if site.provider is not None:
            ctx = TraceCtx(
                launch=launch, tb=tb, bx=bx, by=by, m=m, tx=self._tx, ty=self._ty
            )
            elements = np.asarray(site.provider(ctx), dtype=np.int64)
        else:
            env = dict(self._base_env)
            env[TX] = self._tx
            env[TY] = self._ty
            env[BX] = bx
            env[BY] = by
            env[M] = m
            elements = np.asarray(
                site.index.evaluate_vectorized(env), dtype=np.int64
            )
            if elements.ndim == 0:
                elements = elements.reshape(1)
        addresses = self.space.element_addresses(alloc_name, elements)
        sectors = np.unique(addresses // self.sector_bytes)
        pages = (sectors * self.sector_bytes) // self.space.page_size - (
            self.space.first_page
        )
        return SiteRequests(array=alloc_name, mode=site.mode, sectors=sectors, pages=pages)


def trace_threadblock(
    launch: KernelLaunch, space: AddressSpace, tb: int, sector_bytes: int = 32
) -> TBTrace:
    """Convenience single-TB tracing (tests, diagnostics)."""
    return _LaunchTracer(launch, space, sector_bytes).trace_tb(tb)


def launch_tracer(
    launch: KernelLaunch, space: AddressSpace, sector_bytes: int = 32
) -> _LaunchTracer:
    """A reusable tracer for all threadblocks of one launch."""
    return _LaunchTracer(launch, space, sector_bytes)
