"""Cost-aware migration planning.

§7: "Continuous migration mechanisms across BBs are required to maintain
balanced resource distribution" — but §3.2 warns that migrations cost
performance.  The planner reconciles the two: candidate moves are scored by
imbalance improvement per unit of migration cost (pre-copy transfer time),
and only moves whose benefit clears a configurable cost factor are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.infrastructure.capacity import GENERAL_OVERCOMMIT
from repro.infrastructure.hierarchy import ComputeNode, Region
from repro.infrastructure.vm import VM
from repro.migration.precopy import MigrationEstimate, PrecopyModel

#: Maps a VM to (cpu_load_cores, memory_ratio) for costing and balancing.
LoadView = Callable[[VM], tuple[float, float]]


def _allocated_view(vm: VM) -> tuple[float, float]:
    return float(vm.flavor.vcpus), 0.8


@dataclass(frozen=True)
class PlannedMove:
    """One migration the planner recommends."""

    vm_id: str
    source_node: str
    target_node: str
    improvement: float  # imbalance reduction (std of load fractions)
    estimate: MigrationEstimate

    @property
    def benefit_per_second(self) -> float:
        if self.estimate.total_seconds <= 0:
            return float("inf")
        return self.improvement / self.estimate.total_seconds


@dataclass
class MigrationPlan:
    """A batch of planned moves with aggregate cost."""

    moves: list[PlannedMove] = field(default_factory=list)

    @property
    def total_transfer_mb(self) -> float:
        return sum(m.estimate.transferred_mb for m in self.moves)

    @property
    def total_downtime_s(self) -> float:
        return sum(m.estimate.downtime_seconds for m in self.moves)

    def __len__(self) -> int:
        return len(self.moves)


class MigrationPlanner:
    """Plans cross-node (and cross-BB) rebalancing moves under cost limits."""

    def __init__(
        self,
        precopy: PrecopyModel | None = None,
        min_benefit_per_second: float = 1e-5,
        downtime_budget_s: float = 2.0,
        max_moves: int = 16,
    ) -> None:
        self.precopy = precopy or PrecopyModel()
        self.min_benefit_per_second = min_benefit_per_second
        self.downtime_budget_s = downtime_budget_s
        self.max_moves = max_moves

    def plan_for_nodes(
        self,
        nodes: list[ComputeNode],
        load_view: LoadView = _allocated_view,
    ) -> MigrationPlan:
        """Plan moves across an arbitrary node set (intra- or inter-BB).

        The balancing objective is the std-dev of load fractions (load
        over physical cores), the same metric DRS uses, and as in DRS
        failed nodes are left out of it: their zero load is not an
        imbalance a move could fix.  A target must be healthy and fit the
        VM under the general-purpose overcommit policy.
        """
        plan = MigrationPlan()
        nodes = [node for node in nodes if not node.failed]
        if len(nodes) < 2:
            return plan
        loads = {
            node.node_id: sum(load_view(vm)[0] for vm in node.vms.values())
            for node in nodes
        }
        capacities = {node.node_id: node.physical.vcpus for node in nodes}
        by_id = {node.node_id: node for node in nodes}

        def imbalance() -> float:
            fractions = [
                loads[n] / capacities[n] for n in loads if capacities[n] > 0
            ]
            return float(np.std(fractions)) if len(fractions) > 1 else 0.0

        moved: set[str] = set()
        for _ in range(self.max_moves):
            current = imbalance()
            best: PlannedMove | None = None
            ordered = sorted(loads, key=lambda n: -loads[n] / max(capacities[n], 1e-9))
            source = by_id[ordered[0]]
            for vm in source.vms.values():
                if vm.vm_id in moved:
                    continue
                cpu_load, mem_ratio = load_view(vm)
                estimate = self.precopy.estimate_for_vm(vm.flavor, mem_ratio)
                if (
                    not estimate.converged
                    or estimate.downtime_seconds > self.downtime_budget_s
                ):
                    continue  # §3.2: leave heavy VMs alone
                for target_id in reversed(ordered[1:]):
                    target = by_id[target_id]
                    if not target.healthy or not target.fits(
                        vm.requested(), GENERAL_OVERCOMMIT
                    ):
                        continue
                    after = self._imbalance_after(
                        loads, capacities, source.node_id, target_id, cpu_load
                    )
                    improvement = current - after
                    if improvement <= 0:
                        continue
                    candidate = PlannedMove(
                        vm_id=vm.vm_id,
                        source_node=source.node_id,
                        target_node=target_id,
                        improvement=improvement,
                        estimate=estimate,
                    )
                    if candidate.benefit_per_second < self.min_benefit_per_second:
                        continue
                    if best is None or candidate.improvement > best.improvement:
                        best = candidate
            if best is None:
                break
            plan.moves.append(best)
            moved.add(best.vm_id)
            cpu_load, _ = load_view(by_id[best.source_node].vms[best.vm_id])
            loads[best.source_node] -= cpu_load
            loads[best.target_node] += cpu_load
        return plan

    def plan_cross_bb(
        self,
        region: Region,
        datacenter: str,
        load_view: LoadView = _allocated_view,
    ) -> MigrationPlan:
        """Plan rebalancing across general-purpose BBs of one DC (§7).

        Cross-DC moves are out of scope, as in the paper.
        """
        nodes: list[ComputeNode] = []
        for bb in region.iter_building_blocks():
            if bb.datacenter != datacenter or bb.aggregate_class:
                continue
            nodes.extend(bb.iter_nodes())
        return self.plan_for_nodes(nodes, load_view=load_view)

    @staticmethod
    def _imbalance_after(loads, capacities, source, target, cpu_load) -> float:
        updated = dict(loads)
        updated[source] -= cpu_load
        updated[target] += cpu_load
        fractions = [
            updated[n] / capacities[n] for n in updated if capacities[n] > 0
        ]
        return float(np.std(fractions)) if len(fractions) > 1 else 0.0
