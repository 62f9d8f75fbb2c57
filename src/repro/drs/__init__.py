"""VMware DRS simulator: intra-building-block load balancing, and the
continuous rebalancing across building blocks that §7 calls for.

The second scheduling layer of the SAP architecture (§3.1): Nova places a VM
onto a vSphere cluster (building block); DRS then "monitors the load of the
ESXi hosts and triggers automatic migrations of VMs from over-utilized to
less utilized hosts".  This package reproduces that loop: an imbalance
metric over member nodes, migration recommendations with cost thresholds,
and optional affinity rules.

§7: "Fragmentation across logically grouped resources, such as BBs,
results in measurable imbalances ... Continuous migration mechanisms
across BBs are required to maintain balanced resource distribution."
:class:`RebalanceDriver` closes that loop: DRS inside every spread
building block, then cost-bounded cross-BB migrations per data center.
Both layers balance on the one objective in :mod:`repro.drs.imbalance`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DrsBalancer": "balancer",
    "DrsConfig": "balancer",
    "Migration": "balancer",
    "Recommendation": "recommendations",
    "recommend_moves": "recommendations",
    "AffinityRules": "affinity",
    "RebalanceDriver": "rebalance",
    "RebalanceReport": "rebalance",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
