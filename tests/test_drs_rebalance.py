"""Regression tests for the rebalancing driver's bookkeeping."""

from repro.drs import RebalanceDriver
from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.faults import MigrationFaultModel
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM
from tests.conftest import build_tiny_region_spec, make_node
from tests.test_rebalancer import _imbalanced_region


def test_run_until_stable_totals_aborted_moves():
    region, placement = _imbalanced_region()
    fault_model = MigrationFaultModel(abort_fraction=0.5, seed=3)
    before = fault_model.aborted
    driver = RebalanceDriver(region, placement, fault_model=fault_model)
    report = driver.run_until_stable("dc1", max_passes=4)
    assert fault_model.aborted > before
    assert report.aborted_moves == fault_model.aborted - before


def test_node_added_after_construction_is_rebalanced():
    """The driver reads each node's building block when it moves a VM, so
    a node that joins after construction is an ordinary source."""
    region = build_region(build_tiny_region_spec())
    driver = RebalanceDriver(region, drs=DrsBalancer(DrsConfig(max_moves_per_run=0)))
    late = make_node("late-node", vcpus=64)
    region.find_building_block("dc1-gp-00").add_node(late)
    for i in range(8):
        late.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=16, ram_gib=32)))

    report = driver.run_pass("dc1")

    assert report.intra_bb_migrations == 0
    assert report.cross_bb_migrations > 0
    assert late.vm_count < 8
    assert report.imbalance_after < report.imbalance_before
