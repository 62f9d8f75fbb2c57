"""The two-layer rebalancing loop (§7): DRS inside BBs, planner across them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.drs.balancer import DrsBalancer, LoadFn, _allocated_load, migrate
from repro.drs.imbalance import general_purpose_nodes, imbalance, load_fractions
from repro.infrastructure.hierarchy import Region
from repro.scheduler.placement import AllocationError, PlacementService

if TYPE_CHECKING:
    from repro.migration.planner import MigrationPlanner


@dataclass
class RebalanceReport:
    """Outcome of one or more rebalancing passes."""

    passes: int = 0
    intra_bb_migrations: int = 0
    cross_bb_migrations: int = 0
    skipped_moves: int = 0
    #: Moves that started but aborted mid-precopy (allocations rolled back).
    aborted_moves: int = 0
    imbalance_before: float = 0.0
    imbalance_after: float = 0.0
    total_transfer_mb: float = 0.0
    history: list[str] = field(default_factory=list)
    #: Canonical placement-service counters (claims/releases/moves/failed)
    #: snapshotted after the pass; empty when no placement is attached.
    placement_stats: dict[str, int] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        return self.imbalance_before - self.imbalance_after


class RebalanceDriver:
    """Applies intra-BB DRS and cross-BB planned migrations to a region."""

    def __init__(
        self,
        region: Region,
        placement: PlacementService | None = None,
        drs: DrsBalancer | None = None,
        planner: MigrationPlanner | None = None,
        fault_model=None,
        recovery_move_cap: int = 4,
    ) -> None:
        """``fault_model`` is a :class:`repro.faults.MigrationFaultModel`.

        ``recovery_move_cap`` bounds cross-BB migrations per pass while any
        host in the DC is failed — recovery evacuations own the migration
        network then, and rebalancing must not compete with them.
        """
        if recovery_move_cap < 0:
            raise ValueError("recovery_move_cap must be >= 0")
        if planner is None:
            # Not at module level: the planner imports repro.drs.imbalance.
            from repro.migration.planner import MigrationPlanner

            planner = MigrationPlanner()
        self.region = region
        self.placement = placement
        self.drs = drs or DrsBalancer()
        self.planner = planner
        self.fault_model = fault_model
        self.recovery_move_cap = recovery_move_cap

    def dc_imbalance(self, datacenter: str, load_fn: LoadFn = _allocated_load) -> float:
        """Std-dev of load fractions over the DC's general-purpose nodes."""
        nodes = general_purpose_nodes(self.region, datacenter)
        return imbalance(list(load_fractions(nodes, load_fn).values()))

    def run_pass(
        self, datacenter: str, load_fn: LoadFn = _allocated_load
    ) -> RebalanceReport:
        """One full rebalancing pass over one data center."""
        report = RebalanceReport(passes=1)
        report.imbalance_before = self.dc_imbalance(datacenter, load_fn)

        aborted_before = self.fault_model.aborted if self.fault_model else 0

        # Layer 1: DRS inside every spread building block.
        for bb in self.region.iter_building_blocks():
            if bb.datacenter != datacenter or bb.policy == "pack":
                continue
            migrations = self.drs.run(bb, load_fn=load_fn, fault_model=self.fault_model)
            report.intra_bb_migrations += len(migrations)
            for m in migrations:
                report.history.append(
                    f"drs {m.vm_id}: {m.source_node} -> {m.target_node}"
                )

        # Layer 2: cost-aware moves across the DC's general BBs.  While any
        # host is down, recovery traffic has priority: cap this pass's moves.
        move_budget = (
            self.recovery_move_cap
            if self._dc_has_failed_host(datacenter)
            else None
        )
        plan = self.planner.plan_cross_bb(
            self.region,
            datacenter,
            load_view=lambda vm: (load_fn(vm), 0.6),
        )
        for move in plan.moves:
            if move_budget is not None and report.cross_bb_migrations >= move_budget:
                report.skipped_moves += 1
                continue
            if self._apply_move(move.vm_id, move.source_node, move.target_node):
                report.cross_bb_migrations += 1
                report.total_transfer_mb += move.estimate.transferred_mb
                report.history.append(
                    f"xbb {move.vm_id}: {move.source_node} -> {move.target_node}"
                )
            else:
                report.skipped_moves += 1

        if self.fault_model is not None:
            report.aborted_moves = self.fault_model.aborted - aborted_before

        report.imbalance_after = self.dc_imbalance(datacenter, load_fn)
        if self.placement is not None:
            report.placement_stats = self.placement.stats()
        return report

    def run_until_stable(
        self,
        datacenter: str,
        load_fn: LoadFn = _allocated_load,
        max_passes: int = 5,
        min_improvement: float = 1e-3,
    ) -> RebalanceReport:
        """Repeat passes until the imbalance stops improving."""
        total = RebalanceReport()
        total.imbalance_before = self.dc_imbalance(datacenter, load_fn)
        for _ in range(max_passes):
            report = self.run_pass(datacenter, load_fn)
            total.passes += 1
            total.intra_bb_migrations += report.intra_bb_migrations
            total.cross_bb_migrations += report.cross_bb_migrations
            total.skipped_moves += report.skipped_moves
            total.aborted_moves += report.aborted_moves
            total.total_transfer_mb += report.total_transfer_mb
            total.history.extend(report.history)
            if report.improvement < min_improvement:
                break
        total.imbalance_after = self.dc_imbalance(datacenter, load_fn)
        if self.placement is not None:
            total.placement_stats = self.placement.stats()
        return total

    def _dc_has_failed_host(self, datacenter: str) -> bool:
        return any(
            node.failed
            for bb in self.region.iter_building_blocks()
            if bb.datacenter == datacenter
            for node in bb.iter_nodes()
        )

    def _apply_move(self, vm_id: str, source_id: str, target_id: str) -> bool:
        """Execute one planned move against region (and placement) state.

        Never moves onto an unhealthy (failed or draining) node.  When the
        fault model aborts the migration mid-precopy, any cross-BB claim
        already made on the target is rolled back atomically and the VM
        stays on its source.
        """
        try:
            source = self.region.find_node(source_id)
            target = self.region.find_node(target_id)
        except KeyError:
            return False
        if vm_id not in source.vms:
            return False
        if not target.healthy:
            return False
        source_bb, target_bb = source.building_block, target.building_block
        moved_claim = False
        if self.placement is not None and source_bb != target_bb:
            try:
                self.placement.move(vm_id, target_bb)
            except AllocationError:
                return False
            moved_claim = True
        if not migrate(vm_id, source, target, self.fault_model):
            # Abort mid-precopy: the source still runs the VM; undo the claim.
            if moved_claim:
                self.placement.move(vm_id, source_bb)
            return False
        return True
