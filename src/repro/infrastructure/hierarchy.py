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
    #: (vms-dict ref, len, allocated Capacity, tenant frozenset) summarising
    #: the resident VMs, or None.  ``add_vm`` extends it and ``remove_vm``
    #: drops it; the dict-identity + length guards catch writes that bypass
    #: both (e.g. the verify harness writing a ghost VM straight into
    #: ``vms``), so a stale summary can never be served to a caller that
    #: would otherwise re-count the registry.
    _vm_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The building block this node is a member of (set by ``add_node``);
    #: every VM add/remove and health-flag write is reported to it, and it
    #: forwards the change to whoever watches it (the scheduler's index).
    _owner: BuildingBlock | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: (policy ref, physical ref, allocatable Capacity) of the last
    #: allocatable() call, or None.  Identity guards: replacing the BB's
    #: overcommit policy or the node's hardware recomputes.
    _allocatable_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        # A health-flag write, however it happens, reaches the owning
        # block's watchers; these writes are rare, so the hook costs
        # nothing where it matters.
        if name == "failed" or name == "maintenance" or name == "quarantined":
            owner = self._owner
            if owner is not None:
                owner._node_health_changed()

    @property
    def healthy(self) -> bool:
        """Neither draining, failed, nor fenced off by quarantine."""
        return not self.maintenance and not self.failed and not self.quarantined

    def _resident(self) -> tuple:
        """The resident-VM memo, recomputed in one pass after any add,
        remove or registry swap (O(VMs on this node))."""
        vms = self.vms
        memo = self._vm_memo
        if memo is not None and memo[0] is vms and memo[1] == len(vms):
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
            vms,
            len(vms),
            Capacity(vcpus, memory_mb, disk_gb, network_gbps),
            frozenset(tenants),
        )
        object.__setattr__(self, "_vm_memo", memo)
        return memo

    def allocated(self) -> Capacity:
        """Sum of resources requested by resident VMs (memoised)."""
        return self._resident()[2]

    def tenants(self) -> frozenset[str]:
        """Tenants with a VM resident on this node (memoised)."""
        return self._resident()[3]

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
        used = self._resident()[2]
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
        current = memo is not None and memo[0] is vms and memo[1] == len(vms)
        vms[vm.vm_id] = vm
        vm.node_id = self.node_id
        if current:
            # The VM joins at the end of the residency order, so extending
            # each sum by its request gives the floats a recount would.
            req = vm.requested()
            used = memo[2]
            tenants = memo[3]
            if vm.tenant not in tenants:
                tenants = tenants | {vm.tenant}
            memo = (
                vms,
                len(vms),
                Capacity(
                    used.vcpus + req.vcpus,
                    used.memory_mb + req.memory_mb,
                    used.disk_gb + req.disk_gb,
                    used.network_gbps + req.network_gbps,
                ),
                tenants,
            )
        else:
            memo = None
        object.__setattr__(self, "_vm_memo", memo)
        owner = self._owner
        if owner is not None:
            owner._node_vm_added(vm)

    def remove_vm(self, vm_id: str) -> VM:
        """Remove and return a resident VM; clears its ``node_id``."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} not on node {self.node_id}") from None
        vm.node_id = None
        # Subtracting would not give the floats a recount in residency
        # order gives, so the next read recounts.
        object.__setattr__(self, "_vm_memo", None)
        owner = self._owner
        if owner is not None:
            owner._node_vm_removed(vm)
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
    #: Subscribers told about every member-node change (see :meth:`watch`).
    _watchers: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for node in self.nodes.values():
            node._owner = self

    def __getstate__(self) -> dict:
        # Copies and pickles leave the watchers behind: they belong to the
        # simulation that subscribed to this building block.
        state = dict(self.__dict__)
        state["_watchers"] = []
        return state

    def watch(self, watcher) -> None:
        """Subscribe ``watcher`` to member-node changes.

        It is called as ``watcher.vm_added(bb, vm)`` and
        ``watcher.vm_removed(bb, vm)`` after a member node's ``add_vm`` /
        ``remove_vm``, ``watcher.health_changed(bb)`` after a write to a
        member's ``failed``, ``maintenance`` or ``quarantined`` flag, and
        ``watcher.nodes_changed(bb)`` after :meth:`add_node`.
        """
        self._watchers.append(watcher)

    def unwatch(self, watcher) -> None:
        """Unsubscribe a watcher (no-op if absent)."""
        if watcher in self._watchers:
            self._watchers.remove(watcher)

    def _node_vm_added(self, vm: VM) -> None:
        for watcher in self._watchers:
            watcher.vm_added(self, vm)

    def _node_vm_removed(self, vm: VM) -> None:
        for watcher in self._watchers:
            watcher.vm_removed(self, vm)

    def _node_health_changed(self) -> None:
        for watcher in self._watchers:
            watcher.health_changed(self)

    def add_node(self, node: ComputeNode) -> None:
        """Add a member node, stamping its BB/DC/AZ identifiers."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node {node.node_id} in BB {self.bb_id}")
        node.building_block = self.bb_id
        node.datacenter = self.datacenter
        node.az = self.az
        node._owner = self
        self.nodes[node.node_id] = node
        for watcher in self._watchers:
            watcher.nodes_changed(self)

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
