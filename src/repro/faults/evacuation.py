"""Evacuation of VMs stranded by host failures.

On a host failure every resident VM loses its placement allocation and
enters ERROR; the :class:`EvacuationManager` then drives each one back
through the region's scheduler with bounded retries and exponential
backoff in *simulation* time.  When the retry budget is exhausted the VM
is parked in the dead-letter queue (Nova's NoValidHost terminal state)
and reported, never silently dropped.

The manager is deliberately coupled to the simulation object (duck-typed
``RegionSimulation``): evacuation must mutate the same node/placement/VM
state the event handlers use, and going through the sim keeps one source
of truth for node selection inside a building block.
"""

from __future__ import annotations

from typing import Any

from repro.faults.config import FaultConfig
from repro.faults.report import DeadLetter, FaultReport
from repro.infrastructure.hierarchy import ComputeNode
from repro.infrastructure.vm import VMState
from repro.scheduler.placement import AllocationError
from repro.scheduler.pipeline import NoValidHost
from repro.scheduler.request import RequestSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EVAC_RETRY


class EvacuationManager:
    """Reschedules VMs off failed hosts; dead-letters the unplaceable."""

    def __init__(self, sim: Any, config: FaultConfig, report: FaultReport) -> None:
        self.sim = sim
        self.config = config
        self.report = report

    # -- host lifecycle ---------------------------------------------------------

    def on_host_fail(self, engine: SimulationEngine, node: ComputeNode) -> None:
        """Mark the node failed and queue every resident VM for evacuation.

        Evacuations start in batches of ``max_concurrent_evacuations``,
        spaced ``evac_batch_spacing_s`` apart — recovery bandwidth is
        bounded, a thundering herd of live migrations is not free.
        """
        node.failed = True
        self.report.host_failures += 1
        self.report.failed_hosts.append(node.node_id)
        # The failure flag bypasses placement, so tell an indexing
        # scheduler its cached view of this building block is stale.
        self._invalidate_host(node.building_block)
        victims = list(node.vms.values())
        for i, vm in enumerate(victims):
            node.remove_vm(vm.vm_id)
            vm.transition(VMState.ERROR)
            try:
                self.sim.placement.release(vm.vm_id)
            except AllocationError:
                pass  # never claimed (mid-operation); nothing to free
            self.report.evacuations_requested += 1
            batch = i // self.config.max_concurrent_evacuations
            engine.schedule(
                engine.now + batch * self.config.evac_batch_spacing_s,
                EVAC_RETRY,
                vm_id=vm.vm_id,
                attempt=1,
                failed_at=engine.now,
                failed_host=node.node_id,
                excluded=(),
            )

    def on_host_recover(self, engine: SimulationEngine, node: ComputeNode) -> None:
        """Clear the failure flag; the node is placeable again."""
        if node.failed:
            node.failed = False
            self.report.host_recoveries += 1
            self._invalidate_host(node.building_block)

    def _invalidate_host(self, bb_id: str) -> None:
        invalidate = getattr(self.sim.scheduler, "invalidate_host", None)
        if invalidate is not None:
            invalidate(bb_id)

    # -- retry loop -------------------------------------------------------------

    def on_retry(self, engine: SimulationEngine, event: Any) -> None:
        """One evacuation attempt for one VM."""
        payload = event.payload
        vm = self.sim.vms.get(payload["vm_id"])
        if vm is None or vm.state is not VMState.ERROR:
            return  # deleted or already evacuated; the retry is moot
        excluded = frozenset(payload["excluded"])
        spec = RequestSpec(
            vm_id=vm.vm_id,
            flavor=vm.flavor,
            tenant=vm.tenant,
            operation="migrate",
            excluded_hosts=excluded,
        )
        try:
            result = self.sim.scheduler.schedule(spec)
        except NoValidHost:
            self._attempt_failed(engine, payload, excluded)
            return
        bb = self.sim._bb_index.get(result.host_id)
        node = (
            self.sim._node_index.get(result.host_id)
            if bb is None
            else bb.pick_node(vm.requested())
        )
        if bb is None and node is not None:
            bb = self.sim._bb_index.get(node.building_block)
        if node is None or bb is None:
            # The BB-level claim succeeded but no single node fits: roll the
            # claim back and retry with this building block excluded.
            if self.sim.placement.allocation_for(vm.vm_id) is not None:
                self.sim.placement.release(vm.vm_id)
            self._attempt_failed(engine, payload, excluded | {result.host_id})
            return
        vm.transition(VMState.BUILDING)
        vm.transition(VMState.ACTIVE)
        node.add_vm(vm)
        self.report.record_evacuation_success(
            latency_s=engine.now - payload["failed_at"],
            attempts=payload["attempt"],
        )

    def _attempt_failed(
        self,
        engine: SimulationEngine,
        payload: dict,
        excluded: frozenset[str],
    ) -> None:
        attempt = payload["attempt"]
        if attempt >= self.config.evac_max_retries:
            self.report.record_dead_letter(
                DeadLetter(
                    vm_id=payload["vm_id"],
                    failed_host=payload["failed_host"],
                    attempts=attempt,
                    failed_at=payload["failed_at"],
                    dead_lettered_at=engine.now,
                )
            )
            self.sim.drop_demand(payload["vm_id"])
            return
        self.report.evacuation_retries += 1
        backoff = self.config.evac_backoff_base_s * (
            self.config.evac_backoff_factor ** (attempt - 1)
        )
        engine.schedule(
            engine.now + backoff,
            EVAC_RETRY,
            vm_id=payload["vm_id"],
            attempt=attempt + 1,
            failed_at=payload["failed_at"],
            failed_host=payload["failed_host"],
            excluded=tuple(sorted(excluded)),
        )
