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

from repro.drs.imbalance import (
    balanced_nodes,
    general_purpose_nodes,
    imbalance,
    left_sum,
    moved_rows,
    row_imbalance,
)
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

        The balancing objective and node set are DRS's
        (:mod:`repro.drs.imbalance`), scored in load space: each VM's
        admissible targets in one array op over the node loads with the
        move applied, then divided by capacities.  A target must be
        healthy and fit the VM under the general-purpose overcommit policy.
        """
        plan = MigrationPlan()
        nodes = balanced_nodes(nodes)
        if len(nodes) < 2:
            return plan
        loads = np.array(
            [left_sum(load_view(vm)[0] for vm in node.vms.values()) for node in nodes],
            dtype=float,
        )
        capacities = np.array([node.physical.vcpus for node in nodes], dtype=float)
        column = {node.node_id: i for i, node in enumerate(nodes)}

        moved: set[str] = set()
        for _ in range(self.max_moves):
            fractions = loads / capacities
            current = imbalance(fractions)
            best: PlannedMove | None = None
            ordered = np.argsort(-fractions, kind="stable")
            source = nodes[ordered[0]]
            # Candidate targets: every other node, least loaded first.
            targets = [nodes[i] for i in ordered[:0:-1]]
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
                admissible = [
                    target
                    for target in targets
                    if target.healthy
                    and target.fits(vm.requested(), GENERAL_OVERCOMMIT)
                ]
                if not admissible:
                    continue
                cols = [column[target.node_id] for target in admissible]
                rows = moved_rows(loads, column[source.node_id], cpu_load, cols, cpu_load)
                after = row_imbalance(rows / capacities).tolist()
                for target, imbalance_after in zip(admissible, after):
                    improvement = current - imbalance_after
                    if improvement <= 0:
                        continue
                    candidate = PlannedMove(
                        vm_id=vm.vm_id,
                        source_node=source.node_id,
                        target_node=target.node_id,
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
            cpu_load, _ = load_view(source.vms[best.vm_id])
            loads[column[best.source_node]] -= cpu_load
            loads[column[best.target_node]] += cpu_load
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
        return self.plan_for_nodes(
            general_purpose_nodes(region, datacenter), load_view=load_view
        )
