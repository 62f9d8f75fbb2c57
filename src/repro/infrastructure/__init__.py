"""Infrastructure model: the region → AZ → DC → building block → node hierarchy.

Mirrors the hierarchy of Section 2.1/Figure 1 of the paper.  A *building
block* (BB) is a vSphere cluster of uniform ESXi compute nodes; Nova sees a
whole BB as one compute host, while VMware DRS balances VMs across the nodes
inside it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Capacity": "capacity",
    "OvercommitPolicy": "capacity",
    "Flavor": "flavors",
    "FlavorCatalog": "flavors",
    "default_catalog": "flavors",
    "VM": "vm",
    "VMState": "vm",
    "Region": "hierarchy",
    "AvailabilityZone": "hierarchy",
    "DataCenter": "hierarchy",
    "BuildingBlock": "hierarchy",
    "ComputeNode": "hierarchy",
    "DatacenterSpec": "topology",
    "TopologySpec": "topology",
    "build_region": "topology",
    "paper_datacenter_table": "topology",
    "paper_region_spec": "topology",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
