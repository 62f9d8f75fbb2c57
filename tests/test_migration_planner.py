"""Tests for the cost-aware migration planner."""

import pytest

from repro.infrastructure.flavors import Flavor
from repro.infrastructure.vm import VM
from repro.migration.planner import MigrationPlanner
from repro.migration.precopy import PrecopyModel
from tests.conftest import make_bb


def _loaded_nodes(vm_specs):
    """Two-node BB with VMs stacked on node 0 per (vm_id, vcpus, ram)."""
    bb = make_bb(nodes=2)
    node0 = list(bb.iter_nodes())[0]
    for vm_id, vcpus, ram in vm_specs:
        node0.add_vm(VM(vm_id=vm_id, flavor=Flavor(f"f-{vm_id}", vcpus, ram)))
    return list(bb.iter_nodes())


def test_plans_moves_toward_balance():
    nodes = _loaded_nodes([(f"v{i}", 16, 32) for i in range(4)])
    planner = MigrationPlanner()
    plan = planner.plan_for_nodes(nodes)
    assert len(plan) >= 1
    for move in plan.moves:
        assert move.source_node == nodes[0].node_id
        assert move.target_node == nodes[1].node_id
        assert move.improvement > 0


def test_balanced_cluster_plans_nothing():
    bb = make_bb(nodes=2)
    for i, node in enumerate(bb.iter_nodes()):
        node.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", 8, 16)))
    planner = MigrationPlanner()
    plan = planner.plan_for_nodes(list(bb.iter_nodes()))
    assert len(plan) == 0


def test_heavy_vms_excluded_by_downtime_budget():
    """§3.2: memory-hot VMs stay put even when they would balance best."""
    nodes = _loaded_nodes([("hot", 32, 512), ("cool", 32, 8)])

    def load_view(vm):
        # The hot VM rewrites memory aggressively.
        return float(vm.flavor.vcpus), (0.95 if vm.vm_id == "hot" else 0.2)

    planner = MigrationPlanner(
        precopy=PrecopyModel(bandwidth_mbps=2_000),
        downtime_budget_s=0.05,
    )
    plan = planner.plan_for_nodes(nodes, load_view=load_view)
    assert all(m.vm_id != "hot" for m in plan.moves)


def test_each_vm_moved_at_most_once():
    nodes = _loaded_nodes([(f"v{i}", 8, 16) for i in range(8)])
    planner = MigrationPlanner(max_moves=20)
    plan = planner.plan_for_nodes(nodes)
    moved = [m.vm_id for m in plan.moves]
    assert len(moved) == len(set(moved))


def test_plan_aggregates():
    nodes = _loaded_nodes([(f"v{i}", 16, 64) for i in range(4)])
    plan = MigrationPlanner().plan_for_nodes(nodes)
    assert plan.total_transfer_mb > 0
    assert plan.total_downtime_s >= 0


def test_cross_bb_planning(tiny_region):
    """§7: rebalancing across BBs of one DC."""
    bb = tiny_region.find_building_block("dc1-gp-00")
    node = list(bb.iter_nodes())[0]
    for i in range(6):
        node.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", 16, 32)))
    plan = MigrationPlanner().plan_cross_bb(tiny_region, datacenter="dc1")
    assert len(plan) >= 1
    # Moves stay within dc1's general-purpose nodes.
    for move in plan.moves:
        assert move.target_node.startswith("dc1-gp")


def test_cross_bb_skips_hana(tiny_region):
    hana = tiny_region.find_building_block("dc1-hana-00")
    node = list(hana.iter_nodes())[0]
    for i in range(4):
        node.add_vm(VM(vm_id=f"h{i}", flavor=Flavor(f"hf{i}", 32, 512, family="hana")))
    plan = MigrationPlanner().plan_cross_bb(tiny_region, datacenter="dc1")
    assert all(not m.vm_id.startswith("h") for m in plan.moves)


def test_cross_bb_single_node_dc_empty_plan(tiny_region):
    plan = MigrationPlanner().plan_cross_bb(tiny_region, datacenter="ghost")
    assert len(plan) == 0
