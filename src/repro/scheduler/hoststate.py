"""Scheduler's view of one candidate compute host.

In the SAP deployment a Nova compute host is a whole vSphere cluster /
building block (§3.1), so a :class:`HostState` summarises a building block:
free and total capacity from the placement provider, instance count, tenant
set, and scheduling-relevant attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.infrastructure.hierarchy import BuildingBlock
from repro.scheduler.placement import DISK_GB, MEMORY_MB, VCPU, PlacementService


@dataclass
class HostState:
    """Point-in-time candidate state consumed by filters and weighers."""

    host_id: str
    az: str = ""
    aggregate_class: str = ""
    policy: str = "spread"
    free_vcpus: float = 0.0
    free_ram_mb: float = 0.0
    free_disk_gb: float = 0.0
    total_vcpus: float = 0.0
    total_ram_mb: float = 0.0
    total_disk_gb: float = 0.0
    num_instances: int = 0
    #: Concurrent build/resize/migrate operations in flight on the host —
    #: Nova's IoOpsWeigher penalises hosts already busy provisioning.
    num_io_ops: int = 0
    tenants: frozenset[str] = frozenset()
    #: Tenants allowed on this host; empty means "any" (tenant isolation).
    allowed_tenants: frozenset[str] = frozenset()
    enabled: bool = True
    metadata: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_building_block(
        cls, bb: BuildingBlock, placement: PlacementService
    ) -> "HostState":
        """Build the candidate view of ``bb`` from placement inventories."""
        provider = placement.provider(bb.bb_id)
        return cls(
            host_id=bb.bb_id,
            az=bb.az,
            aggregate_class=bb.aggregate_class,
            policy=bb.policy,
            free_vcpus=provider.free(VCPU),
            free_ram_mb=provider.free(MEMORY_MB),
            free_disk_gb=provider.free(DISK_GB),
            total_vcpus=provider.capacity(VCPU),
            total_ram_mb=provider.capacity(MEMORY_MB),
            total_disk_gb=provider.capacity(DISK_GB),
            num_instances=bb.vm_count,
            tenants=bb.tenants(),
            # A BB with no healthy member (all failed or draining) cannot
            # accept placements: the MaintenanceFilter rejects it outright.
            enabled=any(n.healthy for n in bb.nodes.values()),
        )

    def consume(self, vcpus: float, ram_mb: float, disk_gb: float) -> None:
        """Deduct a provisional claim (scheduler-local, pre-placement)."""
        self.free_vcpus -= vcpus
        self.free_ram_mb -= ram_mb
        self.free_disk_gb -= disk_gb
        self.num_instances += 1

    #: Fields compared by :meth:`diff_fields`.  ``metadata`` is excluded by
    #: contract: schedulers decorate it in place, so cached and rebuilt
    #: states legitimately differ there (see the index invariants).
    COMPARED_FIELDS = (
        "host_id", "az", "aggregate_class", "policy",
        "free_vcpus", "free_ram_mb", "free_disk_gb",
        "total_vcpus", "total_ram_mb", "total_disk_gb",
        "num_instances", "num_io_ops", "tenants", "allowed_tenants",
        "enabled",
    )

    def diff_fields(self, other: "HostState") -> list[tuple[str, object, object]]:
        """Field-by-field differences vs ``other`` as (field, self, other).

        The equality contract the incremental index must uphold against a
        from-scratch rebuild; the differential oracle reports each tuple
        as a structured mismatch.
        """
        return [
            (name, mine, theirs)
            for name in self.COMPARED_FIELDS
            if (mine := getattr(self, name)) != (theirs := getattr(other, name))
        ]
