"""Tests for the continuous rebalancing driver."""

import pytest

from repro.infrastructure.flavors import Flavor
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM
from repro.migration.planner import MigrationPlanner
from repro.drs import RebalanceDriver
from repro.scheduler.placement import MEMORY_MB, VCPU, PlacementService
from tests.conftest import build_tiny_region_spec


def _imbalanced_region():
    """All load stacked on one node of one BB; placement kept in sync."""
    region = build_region(build_tiny_region_spec())
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    bb = region.find_building_block("dc1-gp-00")
    node = list(bb.iter_nodes())[0]
    for i in range(10):
        vm = VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=16, ram_gib=32))
        node.add_vm(vm)
        placement.claim(vm.vm_id, bb.bb_id, vm.requested())
    return region, placement


def test_pass_reduces_dc_imbalance():
    region, placement = _imbalanced_region()
    driver = RebalanceDriver(region, placement)
    report = driver.run_pass("dc1")
    assert report.imbalance_after < report.imbalance_before
    assert report.intra_bb_migrations + report.cross_bb_migrations > 0


def test_placement_stays_consistent_across_cross_bb_moves():
    region, placement = _imbalanced_region()
    driver = RebalanceDriver(region, placement)
    driver.run_until_stable("dc1")
    for bb in region.iter_building_blocks():
        provider = placement.provider(bb.bb_id)
        resident = bb.vms()
        assert provider.used[VCPU] == pytest.approx(
            sum(vm.flavor.vcpus for vm in resident)
        )
        assert provider.used[MEMORY_MB] == pytest.approx(
            sum(vm.flavor.ram_mb for vm in resident)
        )


def test_run_until_stable_converges():
    region, placement = _imbalanced_region()
    driver = RebalanceDriver(region, placement)
    report = driver.run_until_stable("dc1", max_passes=6)
    assert report.passes <= 6
    assert report.imbalance_after <= report.imbalance_before
    # Further passes would not help: the DC is near balanced.
    assert driver.dc_imbalance("dc1") < 0.25


def test_history_records_moves():
    region, placement = _imbalanced_region()
    driver = RebalanceDriver(region, placement)
    report = driver.run_pass("dc1")
    assert len(report.history) == (
        report.intra_bb_migrations + report.cross_bb_migrations
    )
    for line in report.history:
        assert "->" in line


def test_balanced_dc_is_noop():
    region = build_region(build_tiny_region_spec())
    driver = RebalanceDriver(region)
    report = driver.run_pass("dc1")
    assert report.intra_bb_migrations == 0
    assert report.cross_bb_migrations == 0
    assert report.imbalance_before == 0.0


def test_unknown_dc_is_noop():
    region = build_region(build_tiny_region_spec())
    driver = RebalanceDriver(region)
    report = driver.run_pass("nowhere")
    assert report.improvement == 0.0


def test_works_without_placement_service():
    region = build_region(build_tiny_region_spec())
    bb = region.find_building_block("dc1-gp-00")
    node = list(bb.iter_nodes())[0]
    for i in range(8):
        node.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=16, ram_gib=32)))
    driver = RebalanceDriver(region, placement=None)
    report = driver.run_pass("dc1")
    assert report.imbalance_after < report.imbalance_before


UNHEALTHY_NODE = "dc1-gp-00-node-003"


@pytest.mark.parametrize("flag", ["failed", "maintenance", "quarantined"])
def test_cross_bb_plan_never_targets_an_unhealthy_node(flag):
    """Like DRS: a failed node's zero load is no imbalance, and only
    healthy nodes take moves."""
    region, _ = _imbalanced_region()
    setattr(region.find_node(UNHEALTHY_NODE), flag, True)
    plan = MigrationPlanner().plan_cross_bb(region, "dc1")
    assert len(plan) > 0
    assert all(move.target_node != UNHEALTHY_NODE for move in plan.moves)


def test_cross_bb_plan_leaves_a_failed_nodes_vms_to_evacuation():
    region, _ = _imbalanced_region()
    region.find_node("dc1-gp-00-node-000").failed = True  # holds all load
    assert len(MigrationPlanner().plan_cross_bb(region, "dc1")) == 0


def test_pass_with_failed_node_skips_no_planned_move():
    region, placement = _imbalanced_region()
    region.find_node(UNHEALTHY_NODE).failed = True
    report = RebalanceDriver(region, placement).run_pass("dc1")
    assert report.skipped_moves == 0
    assert report.imbalance_after < report.imbalance_before
