"""Strategy base class: the shared plan-building template.

Subclasses implement :meth:`Strategy.decide_launch`, returning a
:class:`repro.runtime.lasp.LaunchDecision`; the base class turns the
decisions of all launches into a populated page table and per-launch
threadblock assignments.  Placement happens at the *first* launch that uses
an allocation (paper Section III-D1, "timing of page placement").
"""

from __future__ import annotations

import abc
from typing import Set

from repro import obs
from repro.compiler.passes import CompiledProgram
from repro.engine.plan import ExecutionPlan, LaunchPlan
from repro.kir.program import KernelLaunch
from repro.memory.address_space import AddressSpace
from repro.memory.page_table import PageTable
from repro.placement.policies import ChunkedPlacement, PlacementContext
from repro.runtime.lasp import LaunchDecision
from repro.sched.schedulers import SchedContext
from repro.topology.system import SystemTopology

__all__ = ["Strategy"]


class Strategy(abc.ABC):
    """Turns compiled programs into execution plans."""

    #: Human-readable name used in results and reports.
    name: str = "strategy"

    @abc.abstractmethod
    def decide_launch(
        self,
        compiled: CompiledProgram,
        topology: SystemTopology,
        launch: KernelLaunch,
    ) -> LaunchDecision:
        """Scheduling/placement/caching decisions for one launch."""

    def fault_cost_s(self, topology: SystemTopology) -> float:
        """Per-page UVM fault charge; nonzero only for reactive strategies."""
        return 0.0

    def node_order(self, topology: SystemTopology) -> list:
        """Order in which chunks/batches are dealt to nodes.

        The default (plain node ids) is hierarchy-affine because chiplets of
        one GPU are contiguous.
        """
        return list(range(topology.config.num_nodes))

    # ------------------------------------------------------------------
    def plan(self, compiled: CompiledProgram, topology: SystemTopology) -> ExecutionPlan:
        cfg = topology.config
        program = compiled.program
        space = AddressSpace(program, cfg.page_size)
        page_table = PageTable(space, cfg.num_nodes)
        order = self.node_order(topology)
        pctx = PlacementContext(
            num_nodes=cfg.num_nodes, page_size=cfg.page_size, node_order=order
        )
        sched_ctx = SchedContext(
            num_nodes=cfg.num_nodes,
            num_gpus=cfg.num_gpus,
            chiplets_per_gpu=cfg.chiplets_per_gpu,
            node_order=order,
        )

        session = obs.current()
        tr = session.tracer
        placed: Set[str] = set()
        launch_plans = []
        with tr.span("plan", cat="pipeline", strategy=self.name):
            for launch_index, launch in enumerate(program.launches):
                with tr.span(
                    "lasp.decide", cat="plan",
                    kernel=launch.kernel.name, launch=launch_index,
                ):
                    decision = self.decide_launch(compiled, topology, launch)
                with tr.span("placement", cat="plan", launch=launch_index):
                    for alloc_name, policy in decision.placements.items():
                        if alloc_name in placed:
                            continue
                        first, last = space.page_range(alloc_name)
                        page_table.map_allocation(
                            alloc_name, policy.homes(last - first, pctx)
                        )
                        placed.add(alloc_name)
                with tr.span("schedule", cat="plan", launch=launch_index):
                    tb_nodes = decision.scheduler.assign(launch.grid, sched_ctx)
                session.counters.inc(
                    "sched.family",
                    family=getattr(decision.scheduler, "family", "unknown"),
                    strategy=self.name,
                )
                launch_plans.append(
                    LaunchPlan(
                        launch=launch,
                        tb_nodes=tb_nodes,
                        cache_policy=decision.cache_policy,
                        scheduler_desc=decision.scheduler_desc,
                        placement_desc=decision.placement_desc,
                    )
                )

            # Allocations never named by any launch fall back to chunks.
            fallback = ChunkedPlacement()
            for name in space.extents():
                if name not in placed:
                    first, last = space.page_range(name)
                    page_table.map_allocation(name, fallback.homes(last - first, pctx))

        return ExecutionPlan(
            space=space,
            page_table=page_table,
            launches=launch_plans,
            strategy_name=self.name,
            fault_cost_s=self.fault_cost_s(topology),
        )
