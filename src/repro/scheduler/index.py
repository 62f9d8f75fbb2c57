"""Incremental host-state index for the scheduling hot path.

The reference pipeline rebuilds every building block's :class:`HostState`
from scratch for each request — O(building blocks × (nodes + VMs)) per
placement.  At paper scale (~1,800 hypervisors, ~48k VMs) that rescan
dominates the run.  The index keeps one long-lived ``HostState`` per
building block and keeps it up to date from pushed changes, so a request
costs only what it touches:

* a :class:`~repro.scheduler.placement.PlacementService` listener updates
  free capacities the instant a claim / release / move lands — exactly,
  since free capacity derives from the provider alone;
* the index :meth:`~repro.infrastructure.hierarchy.BuildingBlock.watch`\\ es
  every building block of its region.  A member node reports each
  ``add_vm`` / ``remove_vm`` and each write to its ``failed``,
  ``maintenance`` or ``quarantined`` flag to its block, which forwards it
  here: ``num_instances`` and a per-block tenant multiset move by one VM
  in O(1) (the ``tenants`` frozenset is rebuilt only when a tenant
  appears or disappears), and a health write recomputes ``enabled`` from
  that block's nodes alone.  Only ``add_node`` and :meth:`invalidate`
  schedule a from-scratch rebuild of one block.  Nothing is shared
  between indexes: two regions in one process never see each other's
  changes;
* free-vCPU *buckets* (log₂-spaced) give a constant-time superset of the
  hosts that can possibly satisfy a request's vCPU demand, so capacity
  filters start from a pre-narrowed candidate list.

The contract this rests on: a node's ``vms`` registry changes only through
``add_vm`` / ``remove_vm``.  A write that bypasses them (the verify
harness's desync self-test plants exactly such a ghost VM) stays invisible
to the index, and the differential oracle, whose truth re-reads the
registries, reports it.

Invariants (checked by the property tests):

1. After ``refresh()``, every cached state equals
   ``HostState.from_building_block(bb, placement)`` field-for-field
   (modulo ``metadata``, which schedulers may decorate in place).
2. ``bucket(free) >= bucket(v)`` for every host with ``free >= v``, so
   ``candidates(v)`` is always a superset of the exact feasible set —
   pre-selection can never drop a host the filters would have kept.
"""

from __future__ import annotations

from repro.infrastructure.hierarchy import BuildingBlock, Region
from repro.infrastructure.vm import VM
from repro.scheduler.hoststate import HostState
from repro.scheduler.placement import (
    DISK_GB,
    MEMORY_MB,
    VCPU,
    AllocationError,
    PlacementService,
)


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
        #: bb_id -> {tenant: resident VM count}, behind ``state.tenants``.
        self._tenant_counts: dict[str, dict[str, int]] = {}
        self._dirty: set[str] = set(self._bbs)
        self._buckets: dict[int, set[str]] = {}
        self._bucket_of: dict[str, int] = {}
        for bb in self._bbs.values():
            bb.watch(self)
        placement.add_listener(self._on_placement_event)

    def close(self) -> None:
        """Unsubscribe from placement and node changes (index becomes inert)."""
        self.placement.remove_listener(self._on_placement_event)
        for bb in self._bbs.values():
            bb.unwatch(self)

    # -- incremental maintenance ------------------------------------------------

    def _on_placement_event(self, event: str, provider_id: str) -> None:
        if provider_id not in self._bbs:
            return
        if event == "remove":
            self._discard(provider_id)
            return
        # Free capacities track the provider immediately and exactly (they
        # derive from nothing else); the node-level fields arrive through
        # the building-block notifications below.
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

    # A block with no built state yet is in ``_dirty``: its first build
    # reads the nodes, so the notifications below have nothing to update.

    def vm_added(self, bb: BuildingBlock, vm: VM) -> None:
        """A member node of ``bb`` gained ``vm``."""
        state = self._states.get(bb.bb_id)
        if state is None:
            return
        state.num_instances += 1
        counts = self._tenant_counts[bb.bb_id]
        tenant = vm.tenant
        held = counts.get(tenant, 0)
        counts[tenant] = held + 1
        if not held:
            state.tenants = state.tenants | {tenant}

    def vm_removed(self, bb: BuildingBlock, vm: VM) -> None:
        """A member node of ``bb`` lost ``vm``."""
        state = self._states.get(bb.bb_id)
        if state is None:
            return
        state.num_instances -= 1
        counts = self._tenant_counts[bb.bb_id]
        tenant = vm.tenant
        held = counts[tenant]
        if held == 1:
            del counts[tenant]
            state.tenants = state.tenants - {tenant}
        else:
            counts[tenant] = held - 1

    def health_changed(self, bb: BuildingBlock) -> None:
        """A member node of ``bb`` had a health flag written."""
        state = self._states.get(bb.bb_id)
        if state is not None:
            state.enabled = any(n.healthy for n in bb.nodes.values())

    def nodes_changed(self, bb: BuildingBlock) -> None:
        """``bb`` gained a member node: rebuild it on the next refresh."""
        self._dirty.add(bb.bb_id)

    def invalidate(self, host_id: str) -> None:
        """Force a from-scratch rebuild of one building block's state."""
        if host_id in self._bbs:
            self._dirty.add(host_id)

    def invalidate_all(self) -> None:
        """Force a full rebuild on the next :meth:`refresh`."""
        self._dirty.update(self._bbs)

    def refresh(self) -> None:
        """Rebuild the blocks marked for a from-scratch rebuild, if any."""
        dirty = self._dirty
        if dirty:
            for bb_id in dirty:
                self._rebuild_one(bb_id)
            dirty.clear()

    def _rebuild_one(self, bb_id: str) -> None:
        bb = self._bbs[bb_id]
        old = self._states.get(bb_id)
        state = HostState.from_building_block(bb, self.placement)
        if old is not None and old.metadata:
            # Preserve scheduler-side decorations (e.g. churn class) the
            # way a fresh from-scratch rebuild by the caller would re-stamp.
            state.metadata.update(old.metadata)
        self._states[bb_id] = state
        counts: dict[str, int] = {}
        for node in bb.nodes.values():
            for vm in node.vms.values():
                counts[vm.tenant] = counts.get(vm.tenant, 0) + 1
        self._tenant_counts[bb_id] = counts
        self._place_in_bucket(bb_id, state.free_vcpus)

    def _discard(self, bb_id: str) -> None:
        bb = self._bbs.pop(bb_id, None)
        if bb is not None:
            bb.unwatch(self)
        self._states.pop(bb_id, None)
        self._tenant_counts.pop(bb_id, None)
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
