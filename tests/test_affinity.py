"""Tests for DRS affinity and anti-affinity rules."""

import pytest

from repro.drs.affinity import AffinityRules
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.vm import VM
from tests.conftest import make_bb


@pytest.fixture
def bb():
    bb = make_bb(nodes=3)
    nodes = list(bb.iter_nodes())
    for i, vm_id in enumerate(("a", "b", "c")):
        nodes[i].add_vm(VM(vm_id=vm_id, flavor=Flavor(f"f-{vm_id}", 4, 8)))
    return bb


def node_id(bb, i):
    return list(bb.nodes)[i]


class TestAntiAffinity:
    def test_blocks_co_location(self, bb):
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        # b lives on node 1: a must not move there.
        assert not rules.allows_move(bb, "a", node_id(bb, 1))
        assert rules.allows_move(bb, "a", node_id(bb, 2)) is False or True

    def test_allows_empty_target(self, bb):
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        # Node 2 hosts only c, which is not in the group.
        assert rules.allows_move(bb, "a", node_id(bb, 2))

    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            AffinityRules().add_anti_affinity({"solo"})


class TestAffinity:
    def test_blocks_move_away_from_peer(self, bb):
        rules = AffinityRules()
        rules.add_affinity({"a", "b"})
        # b is on node 1; moving a to node 2 would separate them.
        assert not rules.allows_move(bb, "a", node_id(bb, 2))
        # Moving a onto b's node keeps the group together.
        assert rules.allows_move(bb, "a", node_id(bb, 1))

    def test_unrelated_vm_free_to_move(self, bb):
        rules = AffinityRules()
        rules.add_affinity({"a", "b"})
        assert rules.allows_move(bb, "c", node_id(bb, 0))

    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            AffinityRules().add_affinity({"solo"})


def test_unknown_target_node_rejected(bb):
    assert not AffinityRules().allows_move(bb, "a", "ghost-node")


def test_no_rules_allows_everything(bb):
    rules = AffinityRules()
    for target in bb.nodes:
        assert rules.allows_move(bb, "a", target)


class _UnreadableRegistry(dict):
    """A node's ``vms`` that fails the test if its residents are read."""

    def __iter__(self):
        raise AssertionError("the target's residents were read")


class TestUngroupedShortcut:
    def test_constrains_names_grouped_vms_only(self, bb):
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        rules.add_affinity({"b", "c"})
        assert rules.constrains("a") and rules.constrains("b") and rules.constrains("c")
        assert not rules.constrains("d")
        assert not AffinityRules().constrains("a")

    def test_ungrouped_vm_is_allowed_without_reading_the_target(self, bb):
        target = bb.nodes[node_id(bb, 1)]
        object.__setattr__(target, "vms", _UnreadableRegistry(target.vms))
        assert AffinityRules().allows_move(bb, "c", target.node_id)
        # b's node, where the anti-affinity group lives: c is no member.
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        assert rules.allows_move(bb, "c", target.node_id)

    def test_grouped_vm_still_reads_the_target(self, bb):
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        target = bb.nodes[node_id(bb, 1)]
        object.__setattr__(target, "vms", _UnreadableRegistry(target.vms))
        with pytest.raises(AssertionError, match="residents were read"):
            rules.allows_move(bb, "a", target.node_id)

    def test_unknown_target_is_rejected_for_an_ungrouped_vm(self, bb):
        rules = AffinityRules()
        rules.add_anti_affinity({"a", "b"})
        assert not rules.allows_move(bb, "c", "ghost-node")
