"""The balancing objective has one definition, shared by every caller."""

from pathlib import Path

from repro.drs import RebalanceDriver
from repro.drs.balancer import DrsBalancer
from repro.drs.imbalance import imbalance, left_sum, load_fractions
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM
from repro.migration.planner import MigrationPlanner
from tests.conftest import build_tiny_region_spec, make_bb, make_node

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_std_of_fractions_is_written_once():
    """No balancing code computes a std outside ``drs/imbalance.py``."""
    offenders = [
        str(path.relative_to(SRC))
        for package in ("drs", "migration")
        for path in sorted((SRC / package).rglob("*.py"))
        if path != SRC / "drs" / "imbalance.py" and "np.std(" in path.read_text()
    ]
    assert offenders == []


def test_rebalancer_package_is_folded_into_drs():
    assert not (SRC / "rebalancer").exists()


def _half_loaded_bb_with_zero_core_node():
    """Two 64-core nodes at 0.5 load each, plus one zero-core node."""
    bb = make_bb(nodes=2, vcpus=64)
    for i, node in enumerate(bb.iter_nodes()):
        node.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=32, ram_gib=8)))
    bb.add_node(make_node("bb0-empty", vcpus=0))
    return bb


def test_zero_core_node_is_not_an_imbalance():
    bb = _half_loaded_bb_with_zero_core_node()
    assert DrsBalancer().imbalance(bb) == 0.0
    assert DrsBalancer().run(bb) == []
    assert len(MigrationPlanner().plan_for_nodes(list(bb.iter_nodes()))) == 0


def test_every_caller_uses_the_same_node_set():
    """DRS, the planner and the DC-wide measure drop the same nodes."""
    region = build_region(build_tiny_region_spec())
    bb = region.find_building_block("dc1-gp-00")
    nodes = list(bb.iter_nodes())
    for i in range(6):
        nodes[0].add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=8, ram_gib=8)))
    nodes[1].failed = True
    bb.add_node(make_node("dc1-gp-00-empty", vcpus=0))

    fractions = load_fractions(bb.iter_nodes(), lambda vm: float(vm.flavor.vcpus))
    assert set(fractions) == {n.node_id for n in nodes if not n.failed}
    assert DrsBalancer().node_load_fractions(bb) == fractions
    # dc1's only general-purpose BB is dc1-gp-00.
    expected = imbalance(list(fractions.values()))
    assert RebalanceDriver(region).dc_imbalance("dc1") == expected
    assert DrsBalancer().imbalance(bb) == expected
    plan = MigrationPlanner().plan_for_nodes(list(bb.iter_nodes()))
    assert {m.target_node for m in plan.moves} <= set(fractions)



def test_left_sum_folds_left_on_every_python():
    # Python 3.12's compensated ``sum`` gives 1.0000000000000002e16 here.
    assert left_sum([1e16, 1.0, 1.0]) == 1e16
    assert left_sum([1.0, 1e16, -1e16]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert left_sum([]) == 0.0


def test_load_fractions_fold_each_node_left():
    node = make_node("n0", vcpus=2)
    loads = {"v0": 1e16, "v1": 1.0, "v2": 1.0}
    for vm_id in loads:
        node.add_vm(VM(vm_id=vm_id, flavor=Flavor(vm_id, vcpus=1, ram_gib=1)))
    fractions = load_fractions([node], lambda vm: loads[vm.vm_id])
    assert fractions == {"n0": 5e15}
