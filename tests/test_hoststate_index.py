"""Tests for the incremental HostStateIndex.

The index's contract is equivalence: after ``refresh()`` every cached
state matches a from-scratch ``HostState.from_building_block`` rebuild,
and the free-vCPU bucket table matches one rebuilt from those states —
no matter how claims, releases, moves, rollbacks, node failures, or
VM bookkeeping interleaved since the last query.
"""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM
from repro.scheduler.hoststate import HostState
from repro.scheduler.index import HostStateIndex, bucket_key
from repro.scheduler.placement import AllocationError, PlacementService
from tests.conftest import build_tiny_region_spec, make_node

_COMPARED_FIELDS = (
    "host_id",
    "az",
    "aggregate_class",
    "policy",
    "free_vcpus",
    "free_ram_mb",
    "free_disk_gb",
    "total_vcpus",
    "total_ram_mb",
    "total_disk_gb",
    "num_instances",
    "tenants",
    "enabled",
)


@pytest.fixture
def placement(tiny_region):
    placement = PlacementService()
    for bb in tiny_region.iter_building_blocks():
        placement.register_building_block(bb)
    return placement


@pytest.fixture
def index(tiny_region, placement):
    idx = HostStateIndex(tiny_region, placement)
    yield idx
    idx.close()


def assert_equivalent(index, region, placement):
    """Index states and buckets match a from-scratch rebuild."""
    index.refresh()
    states = {s.host_id: s for s in index.states()}
    expected_buckets: dict[int, set[str]] = {}
    for bb in region.iter_building_blocks():
        fresh = HostState.from_building_block(bb, placement)
        cached = states.pop(bb.bb_id)
        for field in _COMPARED_FIELDS:
            assert getattr(cached, field) == getattr(fresh, field), (
                f"{bb.bb_id}.{field}: cached {getattr(cached, field)!r} "
                f"!= fresh {getattr(fresh, field)!r}"
            )
        expected_buckets.setdefault(bucket_key(fresh.free_vcpus), set()).add(
            bb.bb_id
        )
    assert not states, f"index has stale entries: {sorted(states)}"
    actual_buckets = {k: v for k, v in index.buckets().items() if v}
    assert actual_buckets == expected_buckets


class TestBucketKey:
    def test_monotonic(self):
        keys = [bucket_key(f) for f in (0, 0.5, 1, 2, 3, 8, 100, 1e6)]
        assert keys == sorted(keys)

    def test_negative_free_maps_to_zero(self):
        assert bucket_key(-3.0) == 0

    def test_candidates_are_superset_of_feasible(self, tiny_region, placement, index):
        index.refresh()
        for demand in (0.5, 1, 7, 64, 200, 500):
            candidate_ids = {s.host_id for s in index.candidates(demand)}
            feasible = {
                s.host_id for s in index.states() if s.free_vcpus >= demand
            }
            assert feasible <= candidate_ids


class TestIncrementalMaintenance:
    def test_initial_refresh_matches_rebuild(self, tiny_region, placement, index):
        assert_equivalent(index, tiny_region, placement)

    def test_claim_updates_free_capacity_without_refresh(
        self, tiny_region, placement, index, catalog
    ):
        index.refresh()
        before = {s.host_id: s.free_vcpus for s in index.states()}
        requested = catalog.get("g_c8_m32").requested()
        placement.claim("vm-x", "dc1-gp-00", requested)
        after = {s.host_id: s.free_vcpus for s in index.states()}
        assert after["dc1-gp-00"] == before["dc1-gp-00"] - requested.vcpus

    def test_direct_node_failure_is_caught_by_refresh(
        self, tiny_region, placement, index
    ):
        index.refresh()
        bb = next(b for b in tiny_region.iter_building_blocks() if b.bb_id == "dc2-gp-00")
        for node in bb.iter_nodes():
            node.failed = True  # direct write, not via any manager
        index.refresh()
        state = next(s for s in index.states() if s.host_id == "dc2-gp-00")
        assert not state.enabled
        for node in bb.iter_nodes():
            node.failed = False
        assert_equivalent(index, tiny_region, placement)

    def test_node_vm_bookkeeping_is_caught_by_refresh(
        self, tiny_region, placement, index, catalog
    ):
        index.refresh()
        bb = next(iter(tiny_region.iter_building_blocks()))
        node = next(bb.iter_nodes())
        node.add_vm(VM(vm_id="vm-t", flavor=catalog.get("g_c2_m8"), tenant="t9"))
        index.refresh()
        state = next(s for s in index.states() if s.host_id == bb.bb_id)
        assert state.num_instances == 1
        assert "t9" in state.tenants

    def test_metadata_survives_rebuild(self, tiny_region, placement, index):
        index.refresh()
        state = index.states()[0]
        state.metadata["churn_class"] = "short"
        index.invalidate(state.host_id)
        index.refresh()
        rebuilt = next(s for s in index.states() if s.host_id == state.host_id)
        assert rebuilt.metadata["churn_class"] == "short"

    def test_remove_provider_discards_state(self, tiny_region, placement, index):
        index.refresh()
        placement.remove_provider("dc1-hana-01")
        assert all(s.host_id != "dc1-hana-01" for s in index.states())
        assert all("dc1-hana-01" not in bbs for bbs in index.buckets().values())

    def test_discarded_block_is_unwatched(self, tiny_region, placement, index, catalog):
        index.refresh()
        bb = next(
            b for b in tiny_region.iter_building_blocks() if b.bb_id == "dc1-hana-01"
        )
        placement.remove_provider(bb.bb_id)
        node = next(bb.iter_nodes())
        # Later node mutations neither raise nor resurrect the block.
        node.add_vm(VM(vm_id="vm-late", flavor=catalog.get("g_c2_m8"), tenant="t1"))
        node.failed = True
        node.remove_vm("vm-late")
        bb.add_node(make_node("late-node"))
        index.refresh()
        assert all(s.host_id != bb.bb_id for s in index.states())
        assert all(bb.bb_id not in bbs for bbs in index.buckets().values())
        assert index not in bb._watchers

    def test_deep_copy_of_watched_block_drops_watchers(
        self, tiny_region, placement, index, catalog
    ):
        # DRS recommendations work on a deep copy: mutating it must not
        # reach (or drag along a copy of) the live index.
        index.refresh()
        bb = next(iter(tiny_region.iter_building_blocks()))
        snapshot = copy.deepcopy(bb)
        assert snapshot._watchers == [] and bb._watchers == [index]
        node = next(snapshot.iter_nodes())
        assert node._owner is snapshot
        node.add_vm(VM(vm_id="vm-copy", flavor=catalog.get("g_c2_m8"), tenant="tc"))
        node.failed = True
        assert_equivalent(index, tiny_region, placement)

    def test_two_regions_never_see_each_other(self, catalog):
        regions, placements, indexes = [], [], []
        for _ in range(2):
            region = build_region(build_tiny_region_spec())
            placement = PlacementService()
            for bb in region.iter_building_blocks():
                placement.register_building_block(bb)
            index = HostStateIndex(region, placement)
            index.refresh()
            regions.append(region)
            placements.append(placement)
            indexes.append(index)
        before = [
            [(s.num_instances, s.tenants, s.enabled) for s in idx.states()]
            for idx in indexes
        ]
        # Mutate only the first region, through every notifying path.
        bb = next(regions[0].iter_building_blocks())
        node = next(bb.iter_nodes())
        node.add_vm(VM(vm_id="vm-a", flavor=catalog.get("g_c2_m8"), tenant="ta"))
        for member in bb.iter_nodes():
            member.maintenance = True
        bb.add_node(make_node("joiner"))
        indexes[1].refresh()
        assert [
            (s.num_instances, s.tenants, s.enabled) for s in indexes[1].states()
        ] == before[1]
        assert_equivalent(indexes[0], regions[0], placements[0])
        assert_equivalent(indexes[1], regions[1], placements[1])
        for idx in indexes:
            idx.close()

    def test_close_detaches_listener(self, tiny_region, placement, catalog):
        index = HostStateIndex(tiny_region, placement)
        index.refresh()
        before = {s.host_id: s.free_vcpus for s in index.states()}
        index.close()
        placement.claim("vm-y", "dc1-gp-00", catalog.get("g_c8_m32").requested())
        after = {s.host_id: s.free_vcpus for s in index.states()}
        assert after == before  # inert: no listener updates


# -- property test --------------------------------------------------------------

_FLAVORS = ("g_c1_m1", "g_c4_m16", "g_c16_m64", "g_c64_m256")

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "claim",
                "release",
                "move",
                "rollback",
                "fail",
                "recover",
                "node_vm",
                "node_rm",
                "node_mv",
                "quarantine",
                "readmit",
                "maintain",
                "unmaintain",
                "add_node",
            ]
        ),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
# A node-level swap that keeps a block's VM count but changes its tenants:
# the block must still be rebuilt, or it keeps serving the old tenant set.
@example(ops=[("node_vm", 0, 0), ("node_rm", 0, 0), ("node_vm", 0, 1)])
def test_property_index_equivalent_after_random_ops(ops):
    """Randomised interleavings never desynchronise the index."""

    region = build_region(build_tiny_region_spec())
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    index = HostStateIndex(region, placement)
    catalog = default_catalog()
    bbs = list(region.iter_building_blocks())
    nodes = [n for bb in bbs for n in bb.iter_nodes()]
    claimed: list[str] = []
    node_vms: list[tuple[str, object]] = []

    for i, (op, a, b) in enumerate(ops):
        if op == "claim":
            vm_id = f"vm{i}"
            flavor = catalog.get(_FLAVORS[a % len(_FLAVORS)])
            try:
                placement.claim(vm_id, bbs[b % len(bbs)].bb_id, flavor.requested())
                claimed.append(vm_id)
            except AllocationError:
                pass
        elif op == "release" and claimed:
            try:
                placement.release(claimed.pop(a % len(claimed)))
            except AllocationError:
                pass
        elif op == "move" and claimed:
            try:
                placement.move(claimed[a % len(claimed)], bbs[b % len(bbs)].bb_id)
            except AllocationError:
                pass
        elif op == "rollback" and claimed:
            # A migration that aborts mid-precopy: move out, then move back.
            vm_id = claimed[a % len(claimed)]
            source = placement.allocation_for(vm_id).provider_id
            try:
                placement.move(vm_id, bbs[b % len(bbs)].bb_id)
                placement.move(vm_id, source)
            except AllocationError:
                pass
        elif op == "fail":
            nodes[a % len(nodes)].failed = True
        elif op == "recover":
            nodes[a % len(nodes)].failed = False
        elif op == "quarantine":
            nodes[a % len(nodes)].quarantined = True
        elif op == "readmit":
            nodes[a % len(nodes)].quarantined = False
        elif op == "maintain":
            nodes[a % len(nodes)].maintenance = True
        elif op == "unmaintain":
            nodes[a % len(nodes)].maintenance = False
        elif op == "add_node":
            # A member joins a block (possibly one whose other nodes are
            # all down, re-enabling it); later ops may land VMs on it.
            node = make_node(f"added-{i}")
            node.failed = a % 3 == 0
            bbs[b % len(bbs)].add_node(node)
            nodes.append(node)
        elif op == "node_vm":
            # Node-level bookkeeping outside placement, across several
            # tenants so per-node tenant upkeep is exercised (simulations
            # only ever use the "default" tenant).
            node = nodes[a % len(nodes)]
            vm_id = f"nvm{i}"
            node.add_vm(
                VM(
                    vm_id=vm_id,
                    flavor=catalog.get(_FLAVORS[b % len(_FLAVORS)]),
                    tenant=f"t{b % 5}",
                )
            )
            node_vms.append((vm_id, node))
        elif op == "node_rm" and node_vms:
            # Removing a tenant's last VM on a node must drop the tenant.
            vm_id, node = node_vms.pop(a % len(node_vms))
            node.remove_vm(vm_id)
        elif op == "node_mv" and node_vms:
            # A DRS-style move: the VM and its tenant change node, and
            # possibly building block.
            k = a % len(node_vms)
            vm_id, node = node_vms[k]
            target = nodes[b % len(nodes)]
            if target is not node:
                target.add_vm(node.remove_vm(vm_id))
                node_vms[k] = (vm_id, target)
        if i % 7 == 0:
            index.refresh()  # interleaved queries must not mask later drift

    assert_equivalent(index, region, placement)
    # Quarantine is a node-level fence outside placement's view: after any
    # interleaving, a building block whose nodes are all failed/quarantined/
    # draining must never surface as an enabled candidate.
    index.refresh()
    enabled_ids = {s.host_id for s in index.candidates(0) if s.enabled}
    for bb in bbs:
        if not any(n.healthy for n in bb.nodes.values()):
            assert bb.bb_id not in enabled_ids
        else:
            assert bb.bb_id in enabled_ids
    index.close()
