"""Nova-style scheduler filters.

Each filter eliminates candidate hosts that cannot satisfy the request
(§2.2, Fig 3).  Filters are stateless callables: ``passes(host, spec)``.
The filter set mirrors the upstream Nova filters the paper names plus the
SAP-specific aggregate handling for special-purpose building blocks (§3.1).
"""

from __future__ import annotations

import abc

from repro.scheduler.hoststate import HostState
from repro.scheduler.request import RequestSpec


class Filter(abc.ABC):
    """Base class: one pass/fail decision per (host, request)."""

    name = "Filter"

    #: Relative evaluation cost; the scheduler runs cheaper
    #: filters first so inexpensive eliminations (capacity, aggregate)
    #: short-circuit expensive ones (affinity, QoS/NUMA).  Ordering never
    #: changes the survivor set — filters are pure per-host predicates.
    cost = 1

    @abc.abstractmethod
    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        """True when ``host`` remains a valid candidate for ``spec``."""

    def relevant(self, spec: RequestSpec) -> bool:
        """False when this filter cannot reject any host for ``spec``.

        The scheduler skips irrelevant filters entirely (e.g.
        the retry filter when nothing is excluded yet).  Must be
        conservative: only return False when ``passes`` would be True for
        every conceivable host.
        """
        return True

    def filter_all(
        self, hosts: list[HostState], spec: RequestSpec
    ) -> list[HostState]:
        """Hosts surviving this filter."""
        passes = self.passes
        return [h for h in hosts if passes(h, spec)]

    def __repr__(self) -> str:
        return f"<{self.name}>"


class AllHostsFilter(Filter):
    """No-op filter (Nova's default fallback)."""

    name = "AllHostsFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return True

    def relevant(self, spec: RequestSpec) -> bool:
        return False


class ComputeFilter(Filter):
    """Rejects disabled hosts and hosts without compute capacity.

    Per the paper: "the ComputeFilter removes all hypervisors with
    insufficient compute resources (CPU, memory) for the VM."
    """

    name = "ComputeFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        if not host.enabled:
            return False
        requested = spec.requested()
        return (
            host.free_vcpus >= requested.vcpus
            and host.free_ram_mb >= requested.memory_mb
        )

    def filter_all(
        self, hosts: list[HostState], spec: RequestSpec
    ) -> list[HostState]:
        # Hot path: resolve the requested capacity once per batch instead
        # of once per host.
        requested = spec.requested()
        vcpus, ram_mb = requested.vcpus, requested.memory_mb
        return [
            h
            for h in hosts
            if h.enabled and h.free_vcpus >= vcpus and h.free_ram_mb >= ram_mb
        ]


class VCpuFilter(Filter):
    """Free-vCPU check only (Nova CoreFilter)."""

    name = "VCpuFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.free_vcpus >= spec.flavor.vcpus


class RamFilter(Filter):
    """Free-memory check only."""

    name = "RamFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.free_ram_mb >= spec.flavor.ram_mb


class DiskFilter(Filter):
    """Free-local-storage check."""

    name = "DiskFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.free_disk_gb >= spec.flavor.disk_gb


class AvailabilityZoneFilter(Filter):
    """Honours the requested AZ; requests without an AZ match any host."""

    name = "AvailabilityZoneFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        if spec.availability_zone is None:
            return True
        return host.az == spec.availability_zone

    def relevant(self, spec: RequestSpec) -> bool:
        return spec.availability_zone is not None


class AggregateInstanceExtraSpecsFilter(Filter):
    """Matches flavor extra specs against host aggregate membership.

    Two-way exclusivity, per §3.1: flavors that demand an aggregate class
    (GPU, ≥3 TB HANA) only land on matching special-purpose building blocks,
    and those building blocks accept no other VMs.
    """

    name = "AggregateInstanceExtraSpecsFilter"
    cost = 0

    #: Aggregate classes that are exclusive to matching flavors.
    EXCLUSIVE_CLASSES = frozenset({"hana", "hana_xl", "gpu"})

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        wanted = spec.flavor.spec("aggregate_class")
        if wanted is not None:
            return host.aggregate_class == wanted
        return host.aggregate_class not in self.EXCLUSIVE_CLASSES


class TenantIsolationFilter(Filter):
    """Hosts with a tenant allowlist only accept those tenants."""

    name = "TenantIsolationFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        if not host.allowed_tenants:
            return True
        return spec.tenant in host.allowed_tenants


class MaintenanceFilter(Filter):
    """Rejects hosts that are fully in maintenance."""

    name = "MaintenanceFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.enabled


class NumInstancesFilter(Filter):
    """Caps the number of instances per host."""

    name = "NumInstancesFilter"
    cost = 0

    def __init__(self, max_instances: int = 10_000) -> None:
        if max_instances < 1:
            raise ValueError("max_instances must be positive")
        self.max_instances = max_instances

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.num_instances < self.max_instances


class RetryFilter(Filter):
    """Excludes hosts that already failed this request (Nova retries)."""

    name = "RetryFilter"
    cost = 0

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.host_id not in spec.excluded_hosts

    def relevant(self, spec: RequestSpec) -> bool:
        return bool(spec.excluded_hosts)


class QuarantineFilter(Filter):
    """Rejects hosts fenced by the host health service.

    Holds a reference to anything exposing ``quarantined_hosts`` (a set of
    host ids — building blocks and/or nodes, so the filter serves both the
    BB-level FilterScheduler and node-level schedulers).  The set is read
    live on every pass: quarantine decisions take effect on the next
    request without any filter rewiring.
    """

    name = "QuarantineFilter"
    cost = 0

    def __init__(self, health) -> None:
        self.health = health

    def passes(self, host: HostState, spec: RequestSpec) -> bool:
        return host.host_id not in self.health.quarantined_hosts

    def relevant(self, spec: RequestSpec) -> bool:
        return bool(self.health.quarantined_hosts)


def default_filters() -> list[Filter]:
    """The filter chain used by the SAP-like deployment."""
    return [
        RetryFilter(),
        MaintenanceFilter(),
        AvailabilityZoneFilter(),
        AggregateInstanceExtraSpecsFilter(),
        TenantIsolationFilter(),
        ComputeFilter(),
        DiskFilter(),
    ]
