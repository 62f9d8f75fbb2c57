"""Incremental host-state index for the scheduling hot path.

The legacy pipeline rebuilds every building block's :class:`HostState`
from scratch for each request — O(building blocks × (nodes + VMs)) per
placement.  At paper scale (~1,800 hypervisors, ~48k VMs) that rescan
dominates the run.  The index keeps one long-lived ``HostState`` per
building block and maintains it incrementally:

* a :class:`~repro.scheduler.placement.PlacementService` listener updates
  free capacities the instant a claim / release / move lands — exactly,
  since free capacity derives from the provider alone, no rebuild needed;
* a cheap *fingerprint scan* — ``(vm_epochs, any_healthy)`` per
  building block, one pass over the member nodes, where ``vm_epochs``
  sums the nodes' ``add_vm``/``remove_vm`` counters — catches mutations
  that do not flow through placement (host failures, maintenance,
  node-level VM bookkeeping).  The epoch sum grows on every add or
  remove, so a remove-then-add that keeps the VM count (but may change
  the tenant set) still marks the block.  The scan itself is skipped in O(1)
  whenever :data:`repro.infrastructure.hierarchy.NODE_MUTATION_EPOCH`
  shows no node changed since the last query.  A drifted block is
  rebuilt from the per-node resident-VM memos
  (:meth:`ComputeNode.tenants`), so reflecting one node-level add or
  remove re-reads only the touched node's VMs: O(nodes in the block +
  VMs on the touched node);
* free-vCPU *buckets* (log₂-spaced) give a constant-time superset of the
  hosts that can possibly satisfy a request's vCPU demand, so capacity
  filters start from a pre-narrowed candidate list.

Invariants (checked by the property tests):

1. After ``refresh()``, every cached state equals
   ``HostState.from_building_block(bb, placement)`` field-for-field
   (modulo ``metadata``, which schedulers may decorate in place).
2. ``bucket(free) >= bucket(v)`` for every host with ``free >= v``, so
   ``candidates(v)`` is always a superset of the exact feasible set —
   pre-selection can never drop a host the filters would have kept.
"""

from __future__ import annotations

from operator import attrgetter

from repro.infrastructure import hierarchy
from repro.infrastructure.hierarchy import BuildingBlock, Region
from repro.scheduler.hoststate import HostState
from repro.scheduler.placement import (
    DISK_GB,
    MEMORY_MB,
    VCPU,
    AllocationError,
    PlacementService,
)


_vm_epoch_of = attrgetter("_vm_epoch")


def bucket_key(free_vcpus: float) -> int:
    """Log₂ bucket of a free-vCPU amount (monotonic in ``free_vcpus``)."""
    return max(0, int(free_vcpus)).bit_length()


class HostStateIndex:
    """Long-lived, incrementally maintained HostStates for one region."""

    def __init__(self, region: Region, placement: PlacementService) -> None:
        self.region = region
        self.placement = placement
        self._bbs: dict[str, BuildingBlock] = {
            bb.bb_id: bb for bb in region.iter_building_blocks()
        }
        self._order: list[str] = list(self._bbs)
        self._states: dict[str, HostState] = {}
        #: bb_id -> (vm_epochs, any_healthy) at last rebuild
        self._fingerprints: dict[str, tuple[int, bool]] = {}
        self._dirty: set[str] = set(self._bbs)
        self._buckets: dict[int, set[str]] = {}
        self._bucket_of: dict[str, int] = {}
        #: Scan accelerator, refreshed on rebuild: each block's node tuple
        #: (members change only through ``add_node``, and node VM
        #: registries only through ``add_vm``/``remove_vm``).
        self._scan_nodes: dict[str, tuple] = {}
        #: Last hierarchy.NODE_MUTATION_EPOCH the fingerprint scan ran at;
        #: -1 forces the first scan.
        self._seen_epoch = -1
        placement.add_listener(self._on_placement_event)

    def close(self) -> None:
        """Unsubscribe from placement events (index becomes inert)."""
        self.placement.remove_listener(self._on_placement_event)

    # -- incremental maintenance ------------------------------------------------

    def _on_placement_event(self, event: str, provider_id: str) -> None:
        if provider_id not in self._bbs:
            return
        if event == "remove":
            self._discard(provider_id)
            return
        # Fast path: free capacities track the provider immediately and
        # exactly (they derive from nothing else).  The other fields
        # (tenants, num_instances, enabled) change only through node-level
        # mutations, which the fingerprint scan in :meth:`refresh` catches —
        # so a claim/release does NOT need a full rebuild.
        state = self._states.get(provider_id)
        if state is None:
            self._dirty.add(provider_id)
            return
        try:
            provider = self.placement.provider(provider_id)
        except AllocationError:
            return
        state.free_vcpus = provider.free(VCPU)
        state.free_ram_mb = provider.free(MEMORY_MB)
        state.free_disk_gb = provider.free(DISK_GB)
        self._place_in_bucket(provider_id, state.free_vcpus)

    def invalidate(self, host_id: str) -> None:
        """Force a from-scratch rebuild of one building block's state."""
        if host_id in self._bbs:
            self._dirty.add(host_id)

    def invalidate_all(self) -> None:
        """Force a full rebuild on the next :meth:`refresh`."""
        self._dirty.update(self._bbs)

    def refresh(self) -> None:
        """Bring every cached state up to date (fingerprint scan + rebuilds)."""
        dirty = self._dirty
        epoch = hierarchy.NODE_MUTATION_EPOCH
        if epoch != self._seen_epoch:
            self._seen_epoch = epoch
            self._fingerprint_scan(dirty)
        if dirty:
            for bb_id in dirty:
                self._rebuild_one(bb_id)
            dirty.clear()

    def _fingerprint_scan(self, dirty: set[str]) -> None:
        """Mark building blocks whose node-level view drifted as dirty."""
        fingerprints = self._fingerprints
        scan_nodes = self._scan_nodes
        for bb_id, bb in self._bbs.items():
            if bb_id in dirty:
                continue
            # O(nodes) with a tiny constant: a C-level sum over the nodes'
            # add/remove counters, short-circuiting any() on the raw flags
            # (skips per-node ``healthy`` property-call overhead).  Node
            # membership changes are caught by the length check.
            nodes = scan_nodes[bb_id]
            if len(nodes) != len(bb.nodes):
                dirty.add(bb_id)
                continue
            vm_epochs = sum(map(_vm_epoch_of, nodes))
            healthy = any(
                not (n.maintenance or n.failed or n.quarantined) for n in nodes
            )
            if fingerprints.get(bb_id) != (vm_epochs, healthy):
                dirty.add(bb_id)

    def _rebuild_one(self, bb_id: str) -> None:
        bb = self._bbs[bb_id]
        old = self._states.get(bb_id)
        state = HostState.from_building_block(bb, self.placement)
        if old is not None and old.metadata:
            # Preserve scheduler-side decorations (e.g. churn class) the
            # way a fresh from-scratch rebuild by the caller would re-stamp.
            state.metadata.update(old.metadata)
        self._states[bb_id] = state
        nodes = tuple(bb.nodes.values())
        self._fingerprints[bb_id] = (
            sum(map(_vm_epoch_of, nodes)),
            state.enabled,
        )
        self._scan_nodes[bb_id] = nodes
        self._place_in_bucket(bb_id, state.free_vcpus)

    def _discard(self, bb_id: str) -> None:
        self._bbs.pop(bb_id, None)
        self._states.pop(bb_id, None)
        self._fingerprints.pop(bb_id, None)
        self._scan_nodes.pop(bb_id, None)
        self._dirty.discard(bb_id)
        if bb_id in self._order:
            self._order.remove(bb_id)
        old = self._bucket_of.pop(bb_id, None)
        if old is not None:
            self._buckets.get(old, set()).discard(bb_id)

    def _place_in_bucket(self, bb_id: str, free_vcpus: float) -> None:
        key = bucket_key(free_vcpus)
        old = self._bucket_of.get(bb_id)
        if old == key:
            return
        if old is not None:
            self._buckets[old].discard(bb_id)
        self._buckets.setdefault(key, set()).add(bb_id)
        self._bucket_of[bb_id] = key

    # -- queries ---------------------------------------------------------------

    def states(self) -> list[HostState]:
        """All cached states in region iteration order (call refresh first)."""
        states = self._states
        return [states[bb_id] for bb_id in self._order]

    def candidates(self, min_vcpus: float) -> list[HostState]:
        """States whose free-vCPU bucket can possibly fit ``min_vcpus``.

        A superset of the exact feasible set (invariant 2); capacity
        filters still run afterwards and provide the exact check.
        """
        want = bucket_key(min_vcpus)
        eligible: set[str] = set()
        for key, members in self._buckets.items():
            if key >= want:
                eligible.update(members)
        if len(eligible) == len(self._order):
            return self.states()
        states = self._states
        return [states[bb_id] for bb_id in self._order if bb_id in eligible]

    def buckets(self) -> dict[int, frozenset[str]]:
        """Snapshot of the bucket table (for tests / introspection)."""
        return {k: frozenset(v) for k, v in self._buckets.items() if v}
