"""Execution plans: everything a strategy decides before the engine runs.

A strategy (LADM or a baseline) converts a compiled program plus a topology
into an :class:`ExecutionPlan`: a populated page table (or first-touch
markers), one threadblock-to-node assignment per launch, and per-array cache
insertion policies.  The engine then simply executes the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np

from repro.cache.insertion import CachePolicy
from repro.errors import SimulationError
from repro.kir.program import KernelLaunch
from repro.memory.address_space import AddressSpace
from repro.memory.page_table import PageTable

__all__ = ["LaunchPlan", "ExecutionPlan"]


@dataclass
class LaunchPlan:
    """Per-launch decisions.

    ``tb_nodes[i]`` is the node executing linear threadblock ``i``;
    ``cache_policy`` maps *allocation* names to insertion policies (arrays
    not listed default to RTWICE); ``scheduler_desc``/``placement_desc``
    record what was decided for reporting (Table IV's "Scheduler Decision").
    """

    launch: KernelLaunch
    tb_nodes: np.ndarray
    cache_policy: Mapping[str, CachePolicy] = field(default_factory=dict)
    scheduler_desc: str = ""
    placement_desc: str = ""

    def __post_init__(self) -> None:
        expected = self.launch.num_threadblocks
        self.tb_nodes = np.asarray(self.tb_nodes, dtype=np.int32)
        if self.tb_nodes.shape != (expected,):
            raise SimulationError(
                f"launch of {self.launch.kernel.name!r}: {self.tb_nodes.shape[0]} "
                f"assignments for {expected} threadblocks"
            )

    def policy_for(self, allocation: str) -> CachePolicy:
        return self.cache_policy.get(allocation, CachePolicy.RTWICE)


@dataclass
class ExecutionPlan:
    """The full pre-run decision set for one program on one system."""

    space: AddressSpace
    page_table: PageTable
    launches: List[LaunchPlan]
    strategy_name: str
    fault_cost_s: float = 0.0  # per-page UVM fault charge (first-touch only)
    #: one-off cost charged before the first kernel (e.g. migration time)
    setup_time_s: float = 0.0
    notes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.launches:
            raise SimulationError("an execution plan needs at least one launch")
