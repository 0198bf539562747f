"""Static inter-GPU traffic bounds from symbolic footprints.

Given an :class:`~repro.engine.plan.ExecutionPlan` (placement + schedule)
this module turns the abstract footprints of ``analysis/footprint.py``
into **sound lower and upper bounds on the launch's inter-GPU bytes** --
the quantity the engine reports as ``inter_gpu_bytes`` and emits as
``walk.link.bytes{link=inter_gpu}`` counters -- without simulating.

Soundness argument (checked continuously by the fuzzer's bound invariant,
``fuzz/diff.py``):

* **Lower.**  On a *cold* launch (L2 flushed between kernels, or the first
  launch of a run) the first request any node ``n`` makes for a sector
  ``s`` necessarily passes its per-TB L1 filter (that TB has never seen
  ``s``) and misses the cold L2 slice -- and if ``s``'s page is homed on a
  different GPU the walk charges one inter-GPU transfer unconditionally.
  So every (node, sector) pair where the sector is *provably touched* by
  some TB on ``n`` and *pre-mapped* to a remote GPU contributes at least
  ``sector_bytes``.  Guaranteed sectors come from the dense stride lattice
  (a contiguous sector interval when ``stride*esize <= sector_bytes``),
  from exact offset enumeration of narrow sparse lattices, or from corner
  witnesses; per node they are unioned (interval sweep) so no sector is
  counted twice.  Pages left to first-touch contribute nothing (their home
  is unknown).  Warm launches get a lower bound of 0.
* **Upper.**  Per (TB, site, iteration) the trace coalesces to at most
  ``min(threads_per_block, sectors in the site's box)`` unique sector
  requests, each causing at most one inter-GPU transfer, and only if the
  sector's page is pre-mapped to a remote GPU *or* unmapped (first touch
  could land it anywhere).  Summing ``events x min(...)`` over TBs and
  sites is therefore an upper bound whatever the cache contents.  ⊤ sites
  use their whole allocation as the box.

``REPRO_FAULT_INJECT`` containing ``bound-lower-off-by-one`` inflates the
lower bound by one sector -- the self-test hook proving the fuzzer's bound
invariant actually bites (mirrors the ArrayLRU fault hook).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.analysis.footprint import (
    ENUM_ASSIGNMENT_BUDGET,
    ENUM_TOTAL_BUDGET,
    LaunchFootprint,
    analyze_launch,
)
from repro.engine.plan import ExecutionPlan
from repro.kir.program import Program
from repro.memory.page_table import FIRST_TOUCH_UNMAPPED
from repro.topology.config import SystemConfig

__all__ = [
    "LaunchTrafficBounds",
    "TrafficBounds",
    "launch_traffic_bounds",
    "program_traffic_bounds",
    "plan_for_analysis",
    "check_program_traffic",
]

_FAULT_ENV = "REPRO_FAULT_INJECT"
_MERGE_SHIFT = 1 << 50  # > any sector id; separates per-node interval lanes


@dataclass
class LaunchTrafficBounds:
    """Static inter-GPU byte bounds for one launch under one plan."""

    launch_index: int
    kernel: str
    lower_bytes: int
    upper_bytes: int
    cold: bool
    top_sites: int
    total_sites: int
    #: per-node footprint box bytes of the TBs scheduled there
    node_footprint_bytes: Dict[int, int] = field(default_factory=dict)
    #: node footprint / one L2 slice capacity (static pressure estimate)
    node_l2_pressure: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "launch_index": self.launch_index,
            "kernel": self.kernel,
            "lower_bytes": self.lower_bytes,
            "upper_bytes": self.upper_bytes,
            "cold": self.cold,
            "top_sites": self.top_sites,
            "total_sites": self.total_sites,
            "node_footprint_bytes": {
                str(k): v for k, v in sorted(self.node_footprint_bytes.items())
            },
            "node_l2_pressure": {
                str(k): round(v, 6) for k, v in sorted(self.node_l2_pressure.items())
            },
        }


@dataclass
class TrafficBounds:
    """Per-launch bounds plus program totals for one (plan, config)."""

    program: str
    strategy: str
    launches: List[LaunchTrafficBounds]

    @property
    def lower_bytes(self) -> int:
        return sum(lb.lower_bytes for lb in self.launches)

    @property
    def upper_bytes(self) -> int:
        return sum(lb.upper_bytes for lb in self.launches)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "strategy": self.strategy,
            "lower_bytes": self.lower_bytes,
            "upper_bytes": self.upper_bytes,
            "launches": [lb.to_dict() for lb in self.launches],
        }


def _marked_below(mask: np.ndarray, prefix: np.ndarray, spp: int, rel: np.ndarray):
    """Marked sectors among table-relative sectors [0, rel) (vectorised).

    ``mask`` is the per-page 0/1 mark, ``prefix`` its exclusive prefix sum,
    ``spp`` sectors per page.  Clips out-of-table positions.
    """
    rel = np.clip(rel, 0, mask.size * spp)
    page = rel // spp
    inner = rel - page * spp
    safe = np.minimum(page, mask.size - 1) if mask.size else page
    edge = np.where(page < mask.size, mask[safe], 0) if mask.size else 0
    return prefix[page] * spp + edge * inner


def _merge_intervals(nodes, lo, hi):
    """Union per-node sector intervals; returns merged (nodes, lo, hi)."""
    if lo.size == 0:
        return nodes, lo, hi
    key_lo = lo + nodes.astype(np.int64) * _MERGE_SHIFT
    order = np.argsort(key_lo, kind="stable")
    nodes, lo, hi, key_lo = nodes[order], lo[order], hi[order], key_lo[order]
    key_hi = hi + nodes.astype(np.int64) * _MERGE_SHIFT
    running = np.maximum.accumulate(key_hi)
    # An interval starts a new merged group iff it begins past everything
    # seen so far (node lanes are disjoint by construction of the shift).
    new_group = np.ones(lo.size, dtype=bool)
    new_group[1:] = key_lo[1:] > running[:-1]
    group = np.cumsum(new_group) - 1
    num_groups = int(group[-1]) + 1
    out_hi = np.full(num_groups, np.iinfo(np.int64).min)
    np.maximum.at(out_hi, group, hi)
    return nodes[new_group], lo[new_group], out_hi


def _guaranteed_sector_intervals(site, extent, tb_nodes, sector_bytes):
    """Per-TB guaranteed sector intervals for one site.

    Returns (nodes, lo_sector, hi_sector) arrays; an empty triple when the
    site guarantees nothing usable.
    """
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    kind, payload = site.guaranteed()
    nodes64 = tb_nodes.astype(np.int64)
    esize = site.element_size
    if kind == "none":
        return empty
    if kind == "ap":
        lo_elem, span, stride = payload
        addr_lo = extent.base + lo_elem * esize
        if stride == 0 or span == 0:
            sec = addr_lo // sector_bytes
            return nodes64, sec, sec.copy()
        if stride * esize <= sector_bytes:
            # Dense coverage: consecutive touched addresses are at most one
            # sector apart, so the whole sector range is guaranteed.
            addr_hi = addr_lo + span * esize
            return nodes64, addr_lo // sector_bytes, addr_hi // sector_bytes
        count = span // stride + 1
        if count <= ENUM_ASSIGNMENT_BUDGET and lo_elem.size * count <= ENUM_TOTAL_BUDGET:
            offs = stride * esize * np.arange(count, dtype=np.int64)
            secs = (addr_lo[:, None] + offs[None, :]) // sector_bytes
            flat = secs.ravel()
            return np.repeat(nodes64, count), flat, flat.copy()
        ends = np.stack([addr_lo, addr_lo + span * esize], axis=1) // sector_bytes
        flat = ends.ravel()
        return np.repeat(nodes64, 2), flat, flat.copy()
    if kind == "offsets":
        lo_elem = site.lo_elem
        count = int(payload.size)
        if count == 0:
            return empty
        if lo_elem.size * count > ENUM_TOTAL_BUDGET:
            payload = payload[[0, -1]] if count > 1 else payload
            count = int(payload.size)
        addrs = extent.base + (lo_elem[:, None] + payload[None, :]) * esize
        secs = (addrs // sector_bytes).ravel()
        return np.repeat(nodes64, count), secs, secs.copy()
    # kind == "points": concrete witness elements per TB.
    points = payload
    if points is None or points.size == 0:
        return empty
    secs = ((extent.base + points * esize) // sector_bytes).ravel()
    return np.repeat(nodes64, points.shape[1]), secs, secs.copy()


def launch_traffic_bounds(
    program: Program,
    plan: ExecutionPlan,
    launch_index: int,
    config: SystemConfig,
    footprint: Optional[LaunchFootprint] = None,
    homes: Optional[np.ndarray] = None,
) -> LaunchTrafficBounds:
    """Static inter-GPU byte bounds for one launch of a planned program.

    ``homes`` must be the page-table snapshot *before any launch runs*
    (defaults to ``plan.page_table.snapshot()``, correct when the plan has
    not been executed yet).
    """
    launch_plan = plan.launches[launch_index]
    launch = launch_plan.launch
    space = plan.space
    footprint = footprint or analyze_launch(program, launch)
    if homes is None:
        homes = plan.page_table.snapshot()
    sector_bytes = config.l2.sector_bytes
    page_size = space.page_size
    chiplets = config.chiplets_per_gpu
    num_gpus = config.num_gpus
    tb_nodes = launch_plan.tb_nodes
    tpb = launch.threads_per_block
    cold = bool(config.flush_l2_between_kernels) or launch_index == 0
    divisible = page_size % sector_bytes == 0
    spp = page_size // sector_bytes if divisible else 1
    first_sector = (space.first_page * page_size) // sector_bytes

    node_gpu = np.arange(config.num_nodes, dtype=np.int64) // chiplets
    page_gpu = homes.astype(np.int64) // chiplets
    unmapped = homes == FIRST_TOUCH_UNMAPPED

    # Per-GPU page masks + exclusive prefix sums.
    remote_mapped = np.zeros((num_gpus, homes.size), dtype=np.int64)
    remote_or_unknown = np.zeros((num_gpus, homes.size), dtype=np.int64)
    for gpu in range(num_gpus):
        rm = (~unmapped) & (page_gpu != gpu)
        remote_mapped[gpu] = rm
        remote_or_unknown[gpu] = rm | unmapped
    pfx_mapped = np.zeros((num_gpus, homes.size + 1), dtype=np.int64)
    pfx_unknown = np.zeros((num_gpus, homes.size + 1), dtype=np.int64)
    np.cumsum(remote_mapped, axis=1, out=pfx_mapped[:, 1:])
    np.cumsum(remote_or_unknown, axis=1, out=pfx_unknown[:, 1:])

    def count_marked(gpus, s_lo, s_hi, mask, prefix):
        """Marked sectors inside inclusive [s_lo, s_hi] per interval."""
        out = np.zeros(s_lo.shape, dtype=np.int64)
        for gpu in range(num_gpus):
            sel = gpus == gpu
            if not np.any(sel):
                continue
            hi_cnt = _marked_below(mask[gpu], prefix[gpu], spp, s_hi[sel] - first_sector + 1)
            lo_cnt = _marked_below(mask[gpu], prefix[gpu], spp, s_lo[sel] - first_sector)
            out[sel] = hi_cnt - lo_cnt
        return out

    lower = 0
    upper = 0
    if num_gpus > 1:
        # ---- upper bound -------------------------------------------------
        tb_gpus = node_gpu[tb_nodes]
        for site in footprint.sites:
            extent = space.extent(site.alloc)
            esize = site.element_size
            if site.top:
                s_lo = np.full(tb_nodes.size, extent.base // sector_bytes, dtype=np.int64)
                s_hi = np.full(
                    tb_nodes.size,
                    (extent.base + (extent.num_elements - 1) * esize) // sector_bytes,
                    dtype=np.int64,
                )
            else:
                s_lo = (extent.base + site.lo_elem * esize) // sector_bytes
                s_hi = (extent.base + site.hi_elem * esize) // sector_bytes
            span_sectors = s_hi - s_lo + 1
            if divisible:
                risky = count_marked(tb_gpus, s_lo, s_hi, remote_or_unknown, pfx_unknown)
            else:
                risky = span_sectors
            per_tb = np.minimum(np.minimum(tpb, span_sectors), risky)
            upper += site.events * int(per_tb.sum())

        # ---- lower bound -------------------------------------------------
        if cold and divisible:
            all_nodes: List[np.ndarray] = []
            all_lo: List[np.ndarray] = []
            all_hi: List[np.ndarray] = []
            for site in footprint.sites:
                extent = space.extent(site.alloc)
                nodes, s_lo, s_hi = _guaranteed_sector_intervals(
                    site, extent, tb_nodes, sector_bytes
                )
                if nodes.size:
                    all_nodes.append(nodes)
                    all_lo.append(s_lo)
                    all_hi.append(s_hi)
            if all_nodes:
                nodes = np.concatenate(all_nodes)
                s_lo = np.concatenate(all_lo)
                s_hi = np.concatenate(all_hi)
                nodes, s_lo, s_hi = _merge_intervals(nodes, s_lo, s_hi)
                gpus = node_gpu[nodes]
                counts = count_marked(gpus, s_lo, s_hi, remote_mapped, pfx_mapped)
                lower = int(counts.sum())
        if "bound-lower-off-by-one" in os.environ.get(_FAULT_ENV, ""):
            lower += 1  # seeded fault: one phantom guaranteed sector
        lower *= sector_bytes
        upper *= sector_bytes

    # ---- per-node working-set pressure (static, plan-aware) -------------
    node_bytes: Dict[int, int] = {}
    boxes = footprint.per_alloc_boxes()
    l2_size = config.l2.size
    for node in np.unique(tb_nodes):
        sel = tb_nodes == node
        total = 0
        for lo, hi, esize in boxes.values():
            total += (int(hi[sel].max()) - int(lo[sel].min()) + 1) * esize
        node_bytes[int(node)] = total
    pressure = {n: b / l2_size for n, b in node_bytes.items()} if l2_size else {}

    return LaunchTrafficBounds(
        launch_index=launch_index,
        kernel=launch.kernel.name,
        lower_bytes=lower,
        upper_bytes=upper,
        cold=cold,
        top_sites=len(footprint.top_sites),
        total_sites=len(footprint.sites),
        node_footprint_bytes=node_bytes,
        node_l2_pressure=pressure,
    )


def program_traffic_bounds(
    program: Program,
    plan: ExecutionPlan,
    config: SystemConfig,
) -> TrafficBounds:
    """Static bounds for every launch of a planned program.

    The page-table snapshot is taken once, before anything runs, so later
    launches' bounds only trust plan-time placement (first-touch results of
    earlier launches are unknown statically -- their pages count toward no
    lower bound and every upper bound).
    """
    session = obs.current()
    with session.tracer.span(
        "bound.check", cat="analysis", program=program.name, strategy=plan.strategy_name
    ):
        homes = plan.page_table.snapshot()
        launches = []
        for i in range(len(plan.launches)):
            footprint = analyze_launch(program, plan.launches[i].launch)
            launches.append(
                launch_traffic_bounds(
                    program, plan, i, config, footprint=footprint, homes=homes
                )
            )
        bounds = TrafficBounds(
            program=program.name, strategy=plan.strategy_name, launches=launches
        )
        session.counters.inc(
            "analysis.bound.launches", len(launches), strategy=plan.strategy_name
        )
        session.counters.inc(
            "analysis.bound.lower_bytes", bounds.lower_bytes, strategy=plan.strategy_name
        )
        session.counters.inc(
            "analysis.bound.upper_bytes", bounds.upper_bytes, strategy=plan.strategy_name
        )
        top = sum(lb.top_sites for lb in launches)
        if top:
            session.counters.inc(
                "analysis.bound.top_sites", top, strategy=plan.strategy_name
            )
    return bounds


def check_program_traffic(compiled, topology, strategy_name: str = "LADM"):
    """The FOOTPRINT-*/TRAFFIC-* lint pass (see docs/locality_lint.md).

    Plans the program with ``strategy_name`` (the reference LASP policy),
    derives symbolic footprints and static traffic bounds, and emits:

    * ``FOOTPRINT-L2`` (INFO): some threadblock's working-set box exceeds
      one L2 slice -- intra-TB reuse cannot be fully captured;
    * ``FOOTPRINT-ASPECT`` (INFO): an affine site's tightest stride spans
      more than a sector, so every touched sector serves a single element
      (tile-aspect mismatch between the index and the 32 B sector);
    * ``TRAFFIC-BROADCAST`` (INFO): the *lower* bound on inter-GPU bytes
      exceeds broadcasting the launch's whole footprint to every other
      GPU once -- the placement+schedule forces re-fetch amplification
      (typically one fetch per chiplet of shared data) no cache can
      absorb.  Legitimate for genuinely shared inputs, hence a note.
    """
    from repro.analysis.diagnostics import Diagnostic, Provenance, Severity

    config = topology.config
    program = compiled.program
    plan = plan_for_analysis(compiled, topology, strategy_name)
    homes = plan.page_table.snapshot()
    diags = []
    seen = set()

    def emit(diag):
        key = (diag.rule, diag.provenance.render(), diag.message)
        if key not in seen:
            seen.add(key)
            diags.append(diag)

    for launch_index, launch_plan in enumerate(plan.launches):
        launch = launch_plan.launch
        kernel = launch.kernel
        footprint = analyze_launch(program, launch)
        bounds = launch_traffic_bounds(
            program, plan, launch_index, config, footprint=footprint, homes=homes
        )

        tb_bytes = int(footprint.per_tb_box_bytes().max())
        if tb_bytes > config.l2.size:
            emit(
                Diagnostic(
                    rule="FOOTPRINT-L2",
                    severity=Severity.INFO,
                    provenance=Provenance(program.name, kernel.name),
                    message=(
                        f"a threadblock's working-set box is {tb_bytes} B, "
                        f"exceeding one L2 slice ({config.l2.size} B)"
                    ),
                    hint="expect capacity misses even with perfect "
                    "scheduling; consider smaller tiles",
                )
            )
        for site in footprint.sites:
            if site.top or not site.affine or not site.free_dims:
                continue
            min_coef = site.free_dims[0][0]
            if min_coef * site.element_size > config.l2.sector_bytes:
                emit(
                    Diagnostic(
                        rule="FOOTPRINT-ASPECT",
                        severity=Severity.INFO,
                        provenance=Provenance(program.name, kernel.name, site.label),
                        message=(
                            f"tightest stride is {min_coef} elements "
                            f"({min_coef * site.element_size} B > "
                            f"{config.l2.sector_bytes} B sector): each sector "
                            "fetched serves one element"
                        ),
                        hint="transpose the tile so the fastest-varying "
                        "thread index walks contiguous elements",
                    )
                )
        broadcast = (config.num_gpus - 1) * footprint.union_box_bytes()
        if config.num_gpus > 1 and bounds.lower_bytes > broadcast:
            emit(
                Diagnostic(
                    rule="TRAFFIC-BROADCAST",
                    severity=Severity.INFO,
                    provenance=Provenance(program.name, kernel.name),
                    message=(
                        f"static inter-GPU lower bound {bounds.lower_bytes} B "
                        f"exceeds the broadcast bound {broadcast} B "
                        f"(footprint once to every other GPU) under "
                        f"{strategy_name}"
                    ),
                    hint="the placement re-fetches shared data per chiplet; "
                    "align the schedule with the placement axis",
                )
            )
    return diags


def plan_for_analysis(compiled, topology, strategy_name: str = "LADM") -> ExecutionPlan:
    """A pristine plan for static analysis (never executed).

    Strategies build plans deterministically from (compiled, topology), so
    this is exactly the placement+schedule a fresh run of ``strategy_name``
    would execute -- usable for bounds without perturbing any live run.
    """
    from repro.experiments.runner import strategy_by_name

    return strategy_by_name(strategy_name).plan(compiled, topology)
