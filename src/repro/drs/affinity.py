"""DRS affinity / anti-affinity rules.

Anti-affinity keeps listed VMs on distinct nodes (HA pairs of HANA
replicas); affinity keeps groups co-located.  Rules constrain which
migrations the balancer may recommend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.infrastructure.hierarchy import BuildingBlock


@dataclass
class AffinityRules:
    """Rule set evaluated against a candidate migration."""

    #: Groups of VM ids that must share a node.
    affinity_groups: list[frozenset[str]] = field(default_factory=list)
    #: Groups of VM ids that must all be on distinct nodes.
    anti_affinity_groups: list[frozenset[str]] = field(default_factory=list)

    def add_affinity(self, vm_ids: set[str]) -> None:
        """Require the given VMs to share one node."""
        if len(vm_ids) < 2:
            raise ValueError("affinity groups need at least two VMs")
        self.affinity_groups.append(frozenset(vm_ids))

    def add_anti_affinity(self, vm_ids: set[str]) -> None:
        """Require the given VMs to stay on distinct nodes."""
        if len(vm_ids) < 2:
            raise ValueError("anti-affinity groups need at least two VMs")
        self.anti_affinity_groups.append(frozenset(vm_ids))

    def constrains(self, vm_id: str) -> bool:
        """Whether any affinity or anti-affinity group names ``vm_id``."""
        return any(vm_id in group for group in self.anti_affinity_groups) or any(
            vm_id in group for group in self.affinity_groups
        )

    def allows_move(
        self, bb: BuildingBlock, vm_id: str, target_node_id: str
    ) -> bool:
        """Whether moving ``vm_id`` to ``target_node_id`` keeps rules valid.

        A VM no group names may go to any node of ``bb``; only a grouped
        VM's move reads the residents.
        """
        target = bb.nodes.get(target_node_id)
        if target is None:
            return False
        if not self.constrains(vm_id):
            return True
        resident = set(target.vms)
        for group in self.anti_affinity_groups:
            if vm_id in group and resident & (group - {vm_id}):
                return False
        for group in self.affinity_groups:
            if vm_id in group:
                # Peers must either be on the target already or nowhere else.
                peers = group - {vm_id}
                placed_elsewhere = set()
                for node in bb.nodes.values():
                    if node.node_id == target_node_id:
                        continue
                    placed_elsewhere |= set(node.vms) & peers
                if placed_elsewhere:
                    return False
        return True
