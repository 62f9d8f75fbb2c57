"""The region → AZ → DC → building block → compute node hierarchy (Figure 1).

A :class:`ComputeNode` is an individual hypervisor (ESXi host).  A
:class:`BuildingBlock` is a vSphere cluster of uniform nodes — the unit Nova
places onto (§3.1: "each vSphere cluster is represented as a single compute
host"); nodes inside it are balanced by DRS.  A :class:`DataCenter` is the
placement and scheduling domain of this study (§3.1, cross-DC migrations are
out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.vm import VM


#: Monotonic counter bumped by every node-level mutation that can affect
#: scheduling: VM add/remove and the failure/maintenance flags.  The
#: scheduler's HostStateIndex compares it across queries to skip its
#: fingerprint scan entirely when no node changed — O(1) instead of
#: O(nodes) on the scheduling hot path.
NODE_MUTATION_EPOCH = 0


def _bump_node_epoch() -> None:
    global NODE_MUTATION_EPOCH
    NODE_MUTATION_EPOCH += 1


@dataclass
class ComputeNode:
    """One physical hypervisor.

    Tracks allocated (requested) resources of resident VMs.  Actual *usage*
    is a telemetry concern handled by the simulation; allocation here is the
    placement-relevant bookkeeping the Nova placement API maintains.
    """

    node_id: str
    physical: Capacity
    building_block: str = ""
    datacenter: str = ""
    az: str = ""
    vms: dict[str, VM] = field(default_factory=dict)
    maintenance: bool = False
    #: Hard failure (hypervisor down): resident VMs must be evacuated and no
    #: new placements may land here until recovery clears the flag.
    failed: bool = False
    #: Control-plane fence: the host health service quarantines nodes that
    #: flap (fail/recover oscillation).  A quarantined node keeps its
    #: resident VMs but accepts no new placements until re-admitted.
    quarantined: bool = False
    #: Bumped by add_vm/remove_vm; part of the resident-VM memo guard.
    _vm_epoch: int = field(default=0, init=False, repr=False, compare=False)
    #: (vm_epoch, vms-dict ref, len, allocated Capacity, tenant frozenset)
    #: summarising the resident VMs, or None.  The dict-identity + length
    #: guards catch mutations that bypass add_vm/remove_vm (e.g. the verify
    #: harness forking ``vms`` to inject a ghost VM), so a stale summary can
    #: never be served to a caller that would otherwise re-count the
    #: registry.
    _vm_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: (policy ref, physical ref, allocatable Capacity) of the last
    #: allocatable() call, or None.  Identity guards: replacing the BB's
    #: overcommit policy or the node's hardware recomputes.
    _allocatable_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        # Flipping a health flag must invalidate any scheduler-side cache;
        # writes to these fields are rare, so the hook costs nothing
        # where it matters.
        if name == "failed" or name == "maintenance" or name == "quarantined":
            _bump_node_epoch()
        object.__setattr__(self, name, value)

    @property
    def healthy(self) -> bool:
        """Neither draining, failed, nor fenced off by quarantine."""
        return not self.maintenance and not self.failed and not self.quarantined

    def _resident(self) -> tuple:
        """The resident-VM memo, recomputed in one pass after any add,
        remove or registry swap (O(VMs on this node))."""
        vms = self.vms
        memo = self._vm_memo
        if (
            memo is not None
            and memo[0] == self._vm_epoch
            and memo[1] is vms
            and memo[2] == len(vms)
        ):
            return memo
        # Component sums in residency order: the same float additions as
        # folding Capacity.__add__ over the requests.
        vcpus = memory_mb = disk_gb = network_gbps = 0.0
        tenants = set()
        for vm in vms.values():
            req = vm.requested()
            vcpus += req.vcpus
            memory_mb += req.memory_mb
            disk_gb += req.disk_gb
            network_gbps += req.network_gbps
            tenants.add(vm.tenant)
        memo = (
            self._vm_epoch,
            vms,
            len(vms),
            Capacity(vcpus, memory_mb, disk_gb, network_gbps),
            frozenset(tenants),
        )
        object.__setattr__(self, "_vm_memo", memo)
        return memo

    def allocated(self) -> Capacity:
        """Sum of resources requested by resident VMs (memoised)."""
        return self._resident()[3]

    def tenants(self) -> frozenset[str]:
        """Tenants with a VM resident on this node (memoised)."""
        return self._resident()[4]

    def allocatable(self, policy: OvercommitPolicy) -> Capacity:
        """``policy.allocatable(self.physical)``, cached per policy."""
        cache = self._allocatable_cache
        if cache is not None and cache[0] is policy and cache[1] is self.physical:
            return cache[2]
        allocatable = policy.allocatable(self.physical)
        object.__setattr__(
            self, "_allocatable_cache", (policy, self.physical, allocatable)
        )
        return allocatable

    def free(self, policy: OvercommitPolicy) -> Capacity:
        """Allocatable-minus-allocated capacity under ``policy``."""
        return self.allocatable(policy) - self.allocated()

    def fits(self, requested: Capacity, policy: OvercommitPolicy) -> bool:
        """True when ``requested`` fits this node's free capacity under
        ``policy`` — the node-level fit check every placement site uses.

        Same result as ``requested.fits_within(self.free(policy))``: each
        component is compared against the same ``max(0, allocatable -
        allocated)`` clamp ``Capacity.__sub__`` applies, but from the
        cached allocatable and allocated vectors, with no Capacity built.
        """
        cap = self.allocatable(policy)
        used = self._resident()[3]
        vcpus = cap.vcpus - used.vcpus
        memory_mb = cap.memory_mb - used.memory_mb
        disk_gb = cap.disk_gb - used.disk_gb
        network_gbps = cap.network_gbps - used.network_gbps
        # ``x if x > 0.0 else 0.0`` is exactly ``max(0.0, x)`` (for -0.0
        # and NaN too), at a fraction of the builtin call's cost.
        return (
            requested.vcpus <= (vcpus if vcpus > 0.0 else 0.0)
            and requested.memory_mb <= (memory_mb if memory_mb > 0.0 else 0.0)
            and requested.disk_gb <= (disk_gb if disk_gb > 0.0 else 0.0)
            and requested.network_gbps
            <= (network_gbps if network_gbps > 0.0 else 0.0)
        )

    def can_host(self, vm: VM, policy: OvercommitPolicy) -> bool:
        """True when the VM's request fits this node under ``policy``."""
        return self.healthy and self.fits(vm.requested(), policy)

    def add_vm(self, vm: VM) -> None:
        """Place ``vm`` on this node and stamp its ``node_id``."""
        vms = self.vms
        if vm.vm_id in vms:
            raise ValueError(f"VM {vm.vm_id} already on node {self.node_id}")
        memo = self._vm_memo
        current = (
            memo is not None
            and memo[0] == self._vm_epoch
            and memo[1] is vms
            and memo[2] == len(vms)
        )
        vms[vm.vm_id] = vm
        vm.node_id = self.node_id
        epoch = self._vm_epoch + 1
        object.__setattr__(self, "_vm_epoch", epoch)
        if current:
            # The VM joins at the end of the residency order, so extending
            # each sum by its request gives the floats a recount would.
            req = vm.requested()
            used = memo[3]
            tenants = memo[4]
            if vm.tenant not in tenants:
                tenants = tenants | {vm.tenant}
            object.__setattr__(
                self,
                "_vm_memo",
                (
                    epoch,
                    vms,
                    len(vms),
                    Capacity(
                        used.vcpus + req.vcpus,
                        used.memory_mb + req.memory_mb,
                        used.disk_gb + req.disk_gb,
                        used.network_gbps + req.network_gbps,
                    ),
                    tenants,
                ),
            )
        _bump_node_epoch()

    def remove_vm(self, vm_id: str) -> VM:
        """Remove and return a resident VM; clears its ``node_id``."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} not on node {self.node_id}") from None
        vm.node_id = None
        object.__setattr__(self, "_vm_epoch", self._vm_epoch + 1)
        _bump_node_epoch()
        return vm

    @property
    def vm_count(self) -> int:
        return len(self.vms)


@dataclass
class BuildingBlock:
    """A vSphere cluster: the aggregation Nova schedules onto.

    Nodes within a BB are homogeneous (§3.2: "hosts exhibit homogeneous
    hardware capabilities within a given building block").
    """

    bb_id: str
    datacenter: str = ""
    az: str = ""
    nodes: dict[str, ComputeNode] = field(default_factory=dict)
    overcommit: OvercommitPolicy = field(default_factory=OvercommitPolicy)
    #: Aggregate class for special-purpose BBs ("hana_xl", "gpu", or "" for
    #: general-purpose), matching §3.1's reserved building blocks.
    aggregate_class: str = ""
    #: Placement policy applied inside/onto this BB: "spread" or "pack".
    policy: str = "spread"
    #: (nodes-dict ref, len, Capacity) memo of physical(); node hardware is
    #: immutable, so the sum only changes when the member set does.
    _physical_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_node(self, node: ComputeNode) -> None:
        """Add a member node, stamping its BB/DC/AZ identifiers."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node {node.node_id} in BB {self.bb_id}")
        node.building_block = self.bb_id
        node.datacenter = self.datacenter
        node.az = self.az
        self.nodes[node.node_id] = node
        _bump_node_epoch()

    def iter_nodes(self) -> Iterator[ComputeNode]:
        return iter(self.nodes.values())

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def physical(self) -> Capacity:
        """Total physical capacity across member nodes (memoised; any
        change to the member set recomputes)."""
        nodes = self.nodes
        cache = self._physical_cache
        if cache is not None and cache[0] is nodes and cache[1] == len(nodes):
            return cache[2]
        total = Capacity()
        for node in nodes.values():
            total = total + node.physical
        self._physical_cache = (nodes, len(nodes), total)
        return total

    def allocated(self) -> Capacity:
        """Sum of resources requested by VMs across member nodes."""
        total = Capacity()
        for node in self.nodes.values():
            total = total + node.allocated()
        return total

    def free(self) -> Capacity:
        """Free allocatable capacity across member nodes."""
        total = Capacity()
        for node in self.nodes.values():
            total = total + node.free(self.overcommit)
        return total

    def vms(self) -> list[VM]:
        """All VMs resident on this building block's nodes."""
        out: list[VM] = []
        for node in self.nodes.values():
            out.extend(node.vms.values())
        return out

    def tenants(self) -> frozenset[str]:
        """Tenants with a VM on any member node: a union of the per-node
        memos, so only nodes whose VMs changed are re-read."""
        return frozenset().union(*[node.tenants() for node in self.nodes.values()])

    @property
    def vm_count(self) -> int:
        return sum(len(node.vms) for node in self.nodes.values())

    def pick_node(self, requested: Capacity) -> ComputeNode | None:
        """The member node that takes a VM requesting ``requested`` (§3.2's
        second step), or None when no healthy node fits.

        ``pack`` picks the fitting node with the highest allocated-memory
        fraction, ``spread`` the one with the lowest allocated-vCPU
        fraction; ties go to the larger (pack) or smaller (spread) node id.
        """
        policy = self.overcommit
        pack = self.policy == "pack"
        best: ComputeNode | None = None
        best_load = 0.0
        for node in self.nodes.values():
            if not node.healthy or not node.fits(requested, policy):
                continue
            used = node.allocated()
            if pack:
                load = used.memory_mb / node.physical.memory_mb
                better = best is None or load > best_load or (
                    load == best_load and node.node_id > best.node_id
                )
            else:
                load = used.vcpus / node.physical.vcpus
                better = best is None or load < best_load or (
                    load == best_load and node.node_id < best.node_id
                )
            if better:
                best, best_load = node, load
        return best


@dataclass
class DataCenter:
    """A data center: the placement/scheduling domain of the study."""

    dc_id: str
    az: str = ""
    building_blocks: dict[str, BuildingBlock] = field(default_factory=dict)

    def add_building_block(self, bb: BuildingBlock) -> None:
        """Add a building block, propagating DC/AZ identifiers down."""
        if bb.bb_id in self.building_blocks:
            raise ValueError(f"duplicate BB {bb.bb_id} in DC {self.dc_id}")
        bb.datacenter = self.dc_id
        bb.az = self.az
        for node in bb.nodes.values():
            node.datacenter = self.dc_id
            node.az = self.az
        self.building_blocks[bb.bb_id] = bb

    def iter_nodes(self) -> Iterator[ComputeNode]:
        for bb in self.building_blocks.values():
            yield from bb.iter_nodes()

    def iter_building_blocks(self) -> Iterator[BuildingBlock]:
        return iter(self.building_blocks.values())

    @property
    def node_count(self) -> int:
        return sum(bb.node_count for bb in self.building_blocks.values())

    @property
    def vm_count(self) -> int:
        return sum(bb.vm_count for bb in self.building_blocks.values())


@dataclass
class AvailabilityZone:
    """A logical group of independent, co-located DCs (§2.1)."""

    az_id: str
    datacenters: dict[str, DataCenter] = field(default_factory=dict)

    def add_datacenter(self, dc: DataCenter) -> None:
        """Add a data center, propagating the AZ identifier down."""
        if dc.dc_id in self.datacenters:
            raise ValueError(f"duplicate DC {dc.dc_id} in AZ {self.az_id}")
        dc.az = self.az_id
        for bb in dc.building_blocks.values():
            bb.az = self.az_id
            for node in bb.nodes.values():
                node.az = self.az_id
        self.datacenters[dc.dc_id] = dc


@dataclass
class Region:
    """The top of the hierarchy: one or more AZs."""

    region_id: str
    azs: dict[str, AvailabilityZone] = field(default_factory=dict)

    def add_az(self, az: AvailabilityZone) -> None:
        """Add an availability zone to the region."""
        if az.az_id in self.azs:
            raise ValueError(f"duplicate AZ {az.az_id} in region {self.region_id}")
        self.azs[az.az_id] = az

    def iter_datacenters(self) -> Iterator[DataCenter]:
        for az in self.azs.values():
            yield from az.datacenters.values()

    def iter_building_blocks(self) -> Iterator[BuildingBlock]:
        for dc in self.iter_datacenters():
            yield from dc.iter_building_blocks()

    def iter_nodes(self) -> Iterator[ComputeNode]:
        for dc in self.iter_datacenters():
            yield from dc.iter_nodes()

    def iter_vms(self) -> Iterator[VM]:
        for node in self.iter_nodes():
            yield from node.vms.values()

    def find_node(self, node_id: str) -> ComputeNode:
        """Look up one node anywhere in the region (KeyError if absent)."""
        for node in self.iter_nodes():
            if node.node_id == node_id:
                return node
        raise KeyError(f"unknown node: {node_id}")

    def find_building_block(self, bb_id: str) -> BuildingBlock:
        """Look up one building block (KeyError if absent)."""
        for bb in self.iter_building_blocks():
            if bb.bb_id == bb_id:
                return bb
        raise KeyError(f"unknown building block: {bb_id}")

    @property
    def node_count(self) -> int:
        return sum(dc.node_count for dc in self.iter_datacenters())

    @property
    def vm_count(self) -> int:
        return sum(dc.vm_count for dc in self.iter_datacenters())
