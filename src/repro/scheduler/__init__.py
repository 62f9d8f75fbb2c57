"""OpenStack Nova scheduler simulator.

Reproduces the scheduling architecture of §2.2 and Figures 2–3: a
filter/weigher pipeline performing *initial placement* of VMs onto compute
hosts (in the SAP deployment a compute host is a whole vSphere cluster /
building block), backed by a placement service that maintains resource
provider inventories and consumer allocations, with greedy
selection-plus-retries and alternates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RequestSpec": "request",
    "PlacementService": "placement",
    "ResourceProvider": "placement",
    "Allocation": "placement",
    "AllocationError": "placement",
    "Filter": "filters",
    "AllHostsFilter": "filters",
    "ComputeFilter": "filters",
    "RamFilter": "filters",
    "VCpuFilter": "filters",
    "DiskFilter": "filters",
    "AvailabilityZoneFilter": "filters",
    "AggregateInstanceExtraSpecsFilter": "filters",
    "TenantIsolationFilter": "filters",
    "MaintenanceFilter": "filters",
    "NumInstancesFilter": "filters",
    "Weigher": "weighers",
    "WeigherPipeline": "weighers",
    "CPUWeigher": "weighers",
    "RAMWeigher": "weighers",
    "DiskWeigher": "weighers",
    "NumInstancesWeigher": "weighers",
    "IoOpsWeigher": "weighers",
    "FitnessWeigher": "weighers",
    "FilterScheduler": "pipeline",
    "HostState": "pipeline",
    "SchedulingResult": "pipeline",
    "NoValidHost": "pipeline",
    "SchedulerConfig": "config",
    "HostStateIndex": "index",
    "bucket_key": "index",
    "pack_policy_weighers": "policies",
    "spread_policy_weighers": "policies",
    "SCHEDULER_STAT_KEYS": "stats",
    "PLACEMENT_STAT_KEYS": "stats",
    "normalize_stats": "stats",
    "stats_of": "stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
