"""Configuration dataclasses for simulated systems (paper Table III).

All bandwidths are bytes/second, all sizes bytes, clocks in Hz.  Factory
functions build the paper's configurations and the scaled-down variants used
by the test suite (scaling shrinks caches together with workload footprints
so hit-rate regimes are preserved; see DESIGN.md Section 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import TopologyError

__all__ = [
    "KB",
    "MB",
    "GB",
    "TopologyKind",
    "CacheConfig",
    "SystemConfig",
    "paper_hierarchical",
    "scaled_hierarchical",
    "monolithic",
    "fig4_multi_gpu_xbar",
    "fig4_mcm_ring",
    "scaled_monolithic",
    "bench_hierarchical",
    "bench_monolithic",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
GBPS = 1e9  # link vendors quote decimal GB/s


class TopologyKind(enum.Enum):
    """How nodes are wired together."""

    HIERARCHICAL = "hierarchical"  # ring inside each GPU, switch between GPUs
    FLAT_XBAR = "flat_xbar"  # every node pair through a switch (Fig 4 left)
    FLAT_RING = "flat_ring"  # nodes on one ring (Fig 4 right, MCM-like)
    MONOLITHIC = "monolithic"  # one node, no NUMA


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one L2 slice (per node).

    The simulator caches at *sector* granularity (32 B in GPUs); ``size``
    divided by ``sector_bytes`` gives the number of cached sectors.
    """

    size: int = 1 * MB
    assoc: int = 16
    sector_bytes: int = 32
    line_bytes: int = 128

    def __post_init__(self) -> None:
        if self.size % (self.assoc * self.sector_bytes) != 0:
            raise TopologyError(
                f"L2 size {self.size} not divisible into {self.assoc}-way "
                f"sets of {self.sector_bytes}B sectors"
            )
        if self.line_bytes % self.sector_bytes != 0:
            raise TopologyError("line size must be a multiple of the sector size")

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.sector_bytes)


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated machine.

    ``num_gpus`` and ``chiplets_per_gpu`` define the node grid; a *node* is a
    chiplet (the unit owning an HBM stack, an L2 slice and a TB scheduler
    queue).  Flat topologies use ``chiplets_per_gpu == 1``.
    """

    name: str
    kind: TopologyKind
    num_gpus: int = 4
    chiplets_per_gpu: int = 4
    sms_per_node: int = 16
    clock_hz: float = 1.4e9
    ipc_per_sm: float = 4.0  # 4 warp schedulers, 1 inst/cycle each
    warp_size: int = 32

    mem_bw_per_node: float = 180 * GBPS
    intra_node_bw: float = 720 * GBPS  # SM<->L2 crossbar inside a chiplet
    ring_bw_per_gpu: float = 720 * GBPS  # inter-chiplet ring, per GPU
    inter_gpu_link_bw: float = 180 * GBPS  # per GPU<->switch link, each way
    remote_latency_s: float = 0.0  # optional additive latency term

    l2: CacheConfig = field(default_factory=CacheConfig)
    page_size: int = 4 * KB
    l1_filter_sectors: int = 2048  # per-threadblock L1 sector filter entries
    l1_filter_assoc: int = 8
    page_fault_cost_s: float = 25e-6  # UVM first-touch fault stall (Sec II-B)
    remote_caching: bool = True  # dynamically-shared L2 (Milic et al.)
    flush_l2_between_kernels: bool = True  # baseline NUMA coherence

    def __post_init__(self) -> None:
        if self.num_gpus < 1 or self.chiplets_per_gpu < 1:
            raise TopologyError("need at least one GPU and one chiplet per GPU")
        if self.kind is TopologyKind.MONOLITHIC and self.num_nodes != 1:
            raise TopologyError("a monolithic system must have exactly one node")
        if self.kind in (TopologyKind.FLAT_XBAR, TopologyKind.FLAT_RING):
            if self.chiplets_per_gpu != 1:
                raise TopologyError(f"{self.kind} requires chiplets_per_gpu == 1")
        if self.l1_filter_sectors < 1:
            raise TopologyError(
                f"l1_filter_sectors must be >= 1, got {self.l1_filter_sectors}"
            )

    @property
    def num_nodes(self) -> int:
        return self.num_gpus * self.chiplets_per_gpu

    @property
    def total_sms(self) -> int:
        return self.num_nodes * self.sms_per_node

    @property
    def total_mem_bw(self) -> float:
        return self.num_nodes * self.mem_bw_per_node

    def with_(self, **changes) -> "SystemConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **changes)


def paper_hierarchical() -> SystemConfig:
    """Table III: 4 GPUs x 4 chiplets x 16 SMs = 256 SMs."""
    return SystemConfig(name="hier-4x4", kind=TopologyKind.HIERARCHICAL)


def monolithic(total_sms: int = 256, l2_total: int = 16 * MB) -> SystemConfig:
    """The hypothetical equal-SM monolithic GPU used for normalisation.

    One node with aggregated memory bandwidth (16 x 180 GB/s) and the full
    16 MB L2; its 256x256 crossbar (11.2 TB/s) is modelled as the intra-node
    bandwidth.  It never flushes its L2 between kernels, preserving the
    inter-kernel locality the paper credits it with (Section V-A).
    """
    return SystemConfig(
        name="monolithic",
        kind=TopologyKind.MONOLITHIC,
        num_gpus=1,
        chiplets_per_gpu=1,
        sms_per_node=total_sms,
        mem_bw_per_node=16 * 180 * GBPS,
        intra_node_bw=11.2e12,
        ring_bw_per_gpu=11.2e12,
        inter_gpu_link_bw=11.2e12,
        l2=CacheConfig(size=l2_total),
        flush_l2_between_kernels=False,
    )


def fig4_multi_gpu_xbar(link_bw_gbps: float) -> SystemConfig:
    """Figure 4 left: four discrete GPUs behind an NVSwitch-style crossbar.

    Each node aggregates a whole GPU: 64 SMs, 720 GB/s HBM, 4 MB L2.
    """
    return SystemConfig(
        name=f"xbar-{int(link_bw_gbps)}GBps",
        kind=TopologyKind.FLAT_XBAR,
        num_gpus=4,
        chiplets_per_gpu=1,
        sms_per_node=64,
        mem_bw_per_node=720 * GBPS,
        intra_node_bw=2.8e12,
        ring_bw_per_gpu=2.8e12,
        inter_gpu_link_bw=link_bw_gbps * GBPS,
        l2=CacheConfig(size=4 * MB),
    )


def fig4_mcm_ring(ring_bw_tbps: float) -> SystemConfig:
    """Figure 4 right: four MCM chiplet nodes on a high-speed ring."""
    return SystemConfig(
        name=f"ring-{ring_bw_tbps}TBps",
        kind=TopologyKind.FLAT_RING,
        num_gpus=4,
        chiplets_per_gpu=1,
        sms_per_node=64,
        mem_bw_per_node=720 * GBPS,
        intra_node_bw=2.8e12,
        ring_bw_per_gpu=ring_bw_tbps * 1e12,
        inter_gpu_link_bw=ring_bw_tbps * 1e12,
        l2=CacheConfig(size=4 * MB),
    )


def bench_hierarchical() -> SystemConfig:
    """The evaluation system used by the benchmark harness.

    A 4 GPU x 4 chiplet machine with the paper's Table-III bandwidth
    *ratios*, shrunk uniformly: fewer SMs per chiplet, a smaller L2 and a
    512-byte page, matched to the scaled workload footprints so cache
    pressure and page/datablock alignment ratios sit in the paper's regime.
    """
    return SystemConfig(
        name="bench-hier-4x4",
        kind=TopologyKind.HIERARCHICAL,
        sms_per_node=4,
        l2=CacheConfig(size=32 * KB),
        page_size=512,
        # A threadblock's fair share of the SM's L1 (64 KB across ~8 resident
        # blocks); keeping this small lets cross-iteration reuse reach the L2,
        # where insertion policy (RTWICE/RONCE) decides its fate.
        l1_filter_sectors=256,
        # Scaled kernels run ~1000x shorter than the paper's; scale the UVM
        # fault stall identically so the fault-to-runtime ratio is preserved.
        page_fault_cost_s=50e-9,
    )


def bench_monolithic() -> SystemConfig:
    """The equal-resource monolithic twin of :func:`bench_hierarchical`."""
    hier = bench_hierarchical()
    return SystemConfig(
        name="bench-monolithic",
        kind=TopologyKind.MONOLITHIC,
        num_gpus=1,
        chiplets_per_gpu=1,
        sms_per_node=hier.total_sms,
        mem_bw_per_node=hier.num_nodes * hier.mem_bw_per_node,
        intra_node_bw=11.2e12,
        ring_bw_per_gpu=11.2e12,
        inter_gpu_link_bw=11.2e12,
        l2=CacheConfig(size=hier.num_nodes * hier.l2.size),
        page_size=hier.page_size,
        flush_l2_between_kernels=False,
    )


def scaled_hierarchical(scale: int = 8) -> SystemConfig:
    """A shrunk 4x4 hierarchical system for fast simulation.

    SM counts and the L2 shrink by ``scale``; bandwidth ratios (the quantity
    that shapes every result in the paper) are preserved exactly.  Workload
    footprints in :mod:`repro.workloads` shrink by the same factor.
    """
    if scale < 1:
        raise TopologyError("scale must be >= 1")
    base = paper_hierarchical()
    l2_size = max(32 * KB, base.l2.size // scale)
    return base.with_(
        name=f"hier-4x4/s{scale}",
        sms_per_node=max(1, base.sms_per_node // max(1, scale // 4)),
        l2=CacheConfig(size=l2_size),
    )


def scaled_monolithic(scale: int = 8) -> SystemConfig:
    """The monolithic twin of :func:`scaled_hierarchical`."""
    mono = monolithic()
    hier = scaled_hierarchical(scale)
    return mono.with_(
        name=f"monolithic/s{scale}",
        sms_per_node=hier.total_sms,
        l2=CacheConfig(size=hier.l2.size * hier.num_nodes),
    )
