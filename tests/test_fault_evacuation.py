"""Evacuation, recovery, and graceful degradation under injected faults."""

import pytest

from repro.drs.balancer import DrsBalancer
from repro.faults import FaultConfig, MigrationFaultModel
from repro.faults.scenario import ScenarioConfig, run_fault_scenario
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import (
    BuildingBlockSpec,
    DatacenterSpec,
    TopologySpec,
    build_region,
)
from repro.infrastructure.vm import VM, VMState
from repro.rebalancer.driver import RebalanceDriver
from repro.scheduler.placement import VCPU, PlacementService
from repro.simulation.runner import RegionSimulation, SimulationConfig
from tests.conftest import make_bb

CATALOG = default_catalog()


def _spec(bbs: int = 2, nodes: int = 2) -> TopologySpec:
    return TopologySpec(
        region_id="r",
        datacenters=(
            DatacenterSpec(
                dc_id="dc1",
                az_id="az1",
                building_blocks=tuple(
                    BuildingBlockSpec(bb_id=f"bb{i}", node_count=nodes)
                    for i in range(bbs)
                ),
            ),
        ),
    )


def _sim(bbs: int = 2, nodes: int = 2, **fault_kwargs) -> RegionSimulation:
    faults = FaultConfig(
        seed=11,
        evac_backoff_base_s=10.0,
        evac_batch_spacing_s=30.0,
        **fault_kwargs,
    )
    return RegionSimulation(
        _spec(bbs, nodes),
        SimulationConfig(
            duration_days=1.0,
            arrival_rate_per_hour=0.0,
            initial_vms=0,
            seed=5,
            faults=faults,
        ),
    )


def _active_vm(vm_id: str, flavor_name: str) -> VM:
    vm = VM(vm_id=vm_id, flavor=CATALOG.get(flavor_name))
    vm.transition(VMState.BUILDING)
    vm.transition(VMState.ACTIVE)
    return vm


def _place(sim: RegionSimulation, vm_id: str, flavor_name: str, node_id: str) -> VM:
    """Place a VM the way _handle_create would: claim + node + registry."""
    node = sim._node_index[node_id]
    vm = _active_vm(vm_id, flavor_name)
    sim.placement.claim(vm_id, node.building_block, vm.flavor.requested())
    node.add_vm(vm)
    sim.vms[vm_id] = vm
    return vm


class TestEvacuation:
    def test_host_failure_evacuates_all_vms(self):
        sim = _sim()
        for i in range(3):
            _place(sim, f"vm{i}", "g_c8_m32", "bb0-node-000")
        failed = sim._node_index["bb0-node-000"]

        sim.evacuation.on_host_fail(sim.engine, failed)
        assert failed.failed and not failed.healthy
        assert not failed.vms
        sim.engine.run_until(3600.0)

        report = sim.fault_report
        assert report.host_failures == 1
        assert report.evacuations_requested == 3
        assert report.evacuations_succeeded == 3
        assert report.dead_letters == []
        assert len(report.evacuation_latencies_s) == 3
        for vm in sim.vms.values():
            assert vm.state is VMState.ACTIVE
            assert vm.node_id is not None and vm.node_id != "bb0-node-000"
            allocation = sim.placement.allocation_for(vm.vm_id)
            node = sim._node_index[vm.node_id]
            assert allocation.provider_id == node.building_block

    def test_evacuation_batches_are_spaced_in_time(self):
        """With a batch cap of 2, 5 VMs start across three spaced batches."""
        sim = _sim(max_concurrent_evacuations=2)
        for i in range(5):
            _place(sim, f"vm{i}", "g_c2_m8", "bb0-node-000")
        sim.evacuation.on_host_fail(sim.engine, sim._node_index["bb0-node-000"])
        sim.engine.run_until(3600.0)
        report = sim.fault_report
        assert report.evacuations_succeeded == 5
        # Batch spacing is 30 s: latencies land at 0, 30, and 60 seconds.
        assert sorted(set(report.evacuation_latencies_s)) == [0.0, 30.0, 60.0]

    def test_host_recovery_restores_health(self):
        sim = _sim()
        node = sim._node_index["bb0-node-000"]
        sim.evacuation.on_host_fail(sim.engine, node)
        assert not node.healthy
        sim.evacuation.on_host_recover(sim.engine, node)
        assert node.healthy
        assert sim.fault_report.host_recoveries == 1

    def test_capacity_exhaustion_dead_letters_vms(self):
        """One BB, sibling node full: every evacuation must dead-letter."""
        sim = _sim(bbs=1, nodes=2, evac_max_retries=2)
        # Fill both nodes' memory exactly (8 x 256 GiB = 2 TiB per node).
        for n, node_id in enumerate(("bb0-node-000", "bb0-node-001")):
            for i in range(8):
                vm = _place(sim, f"vm{n}-{i}", "g_c32_m256", node_id)
                sim.demands[vm.vm_id] = sim.demand_model.demand_for(vm.flavor)
        # One scrape compiles every VM's demand evaluator.
        sim._handle_scrape(sim.engine, None)
        assert set(sim._compiled) == set(sim.demands)
        sim.evacuation.on_host_fail(sim.engine, sim._node_index["bb0-node-000"])
        sim.engine.run_until(5000.0)

        report = sim.fault_report
        assert report.evacuations_requested == 8
        assert report.evacuations_succeeded == 0
        assert len(report.dead_letters) == 8
        for letter in report.dead_letters:
            assert letter.failed_host == "bb0-node-000"
            assert letter.attempts == 2
            assert letter.dead_lettered_at > letter.failed_at
        for vm_id in report.dead_lettered_vms:
            vm = sim.vms[vm_id]
            assert vm.state is VMState.ERROR
            assert sim.placement.allocation_for(vm_id) is None
            # Nothing of a dead-lettered VM's demand outlives it.
            assert vm_id not in sim.demands
            assert vm_id not in sim._compiled
        # The surviving node's VMs were never disturbed.
        assert len(sim._node_index["bb0-node-001"].vms) == 8

    def test_retry_is_moot_for_deleted_vm(self):
        sim = _sim()
        vm = _place(sim, "vm0", "g_c8_m32", "bb0-node-000")
        sim.evacuation.on_host_fail(sim.engine, sim._node_index["bb0-node-000"])
        vm.transition(VMState.DELETED)
        sim.engine.run_until(3600.0)
        report = sim.fault_report
        assert report.evacuations_succeeded == 0
        assert report.dead_letters == []


class TestDrsDegradation:
    def _loaded_bb(self):
        bb = make_bb("bb0", nodes=3)
        for i in range(6):
            bb.nodes["bb0-n0"].add_vm(_active_vm(f"vm{i}", "g_c8_m32"))
        return bb

    def test_balances_without_faults(self):
        bb = self._loaded_bb()
        migrations = DrsBalancer().run(bb)
        assert migrations
        assert all(m.source_node != m.target_node for m in migrations)

    def test_abort_keeps_vm_on_source(self):
        bb = self._loaded_bb()
        model = MigrationFaultModel(abort_fraction=1.0, seed=1)
        migrations = DrsBalancer().run(bb, fault_model=model)
        assert migrations == []
        assert model.attempted >= 1
        assert model.aborted == model.attempted
        assert len(bb.nodes["bb0-n0"].vms) == 6  # nobody actually moved

    def test_never_targets_unhealthy_node(self):
        bb = self._loaded_bb()
        bb.nodes["bb0-n1"].failed = True
        migrations = DrsBalancer().run(bb)
        assert migrations
        assert all(m.target_node != "bb0-n1" for m in migrations)
        assert not bb.nodes["bb0-n1"].vms

    def test_load_fractions_skip_failed_nodes(self):
        bb = self._loaded_bb()
        bb.nodes["bb0-n2"].failed = True
        fractions = DrsBalancer().node_load_fractions(bb)
        assert "bb0-n2" not in fractions
        assert set(fractions) == {"bb0-n0", "bb0-n1"}


class TestRebalanceDriverDegradation:
    def _region_with_vm(self):
        region = build_region(_spec(bbs=2, nodes=1))
        placement = PlacementService()
        for bb in region.iter_building_blocks():
            placement.register_building_block(bb)
        vm = _active_vm("vm0", "g_c8_m32")
        placement.claim("vm0", "bb0", vm.flavor.requested())
        region.find_node("bb0-node-000").add_vm(vm)
        return region, placement, vm

    def test_abort_rolls_back_cross_bb_claim(self):
        region, placement, vm = self._region_with_vm()
        driver = RebalanceDriver(
            region, placement, fault_model=MigrationFaultModel(1.0, seed=2)
        )
        moved = driver._apply_move("vm0", "bb0-node-000", "bb1-node-000")
        assert not moved
        assert vm.node_id == "bb0-node-000"
        assert placement.allocation_for("vm0").provider_id == "bb0"
        assert placement.provider("bb1").used[VCPU] == 0.0

    def test_move_without_fault_rehomes_claim(self):
        region, placement, vm = self._region_with_vm()
        driver = RebalanceDriver(region, placement)
        assert driver._apply_move("vm0", "bb0-node-000", "bb1-node-000")
        assert vm.node_id == "bb1-node-000"
        assert placement.allocation_for("vm0").provider_id == "bb1"

    def test_refuses_unhealthy_target(self):
        region, placement, vm = self._region_with_vm()
        region.find_node("bb1-node-000").failed = True
        model = MigrationFaultModel(abort_fraction=0.0, seed=3)
        driver = RebalanceDriver(region, placement, fault_model=model)
        assert not driver._apply_move("vm0", "bb0-node-000", "bb1-node-000")
        assert vm.node_id == "bb0-node-000"
        assert model.attempted == 0  # rejected before precopy even starts

    def test_dc_imbalance_ignores_failed_nodes(self):
        region, placement, vm = self._region_with_vm()
        driver = RebalanceDriver(region, placement)
        with_failed = driver.dc_imbalance("dc1")
        region.find_node("bb1-node-000").failed = True
        # Only one healthy node remains: no imbalance signal at all.
        assert driver.dc_imbalance("dc1") == 0.0
        assert with_failed >= 0.0

    def test_recovery_move_cap_validated(self):
        region = build_region(_spec())
        with pytest.raises(ValueError):
            RebalanceDriver(region, recovery_move_cap=-1)


class TestScenarioInvariants:
    def test_placement_stays_consistent_under_chaos(self):
        config = ScenarioConfig(
            building_blocks=2,
            nodes_per_bb=3,
            duration_days=0.5,
            seed=9,
            arrival_rate_per_hour=8.0,
            initial_vms=60,
            faults=FaultConfig(
                seed=9,
                host_failure_rate_per_day=10.0,
                migration_abort_fraction=0.2,
                scrape_gap_probability=0.05,
                stale_node_probability=0.05,
            ),
        )
        result = run_fault_scenario(config)
        report = result.fault_report
        assert report.host_failures > 0
        assert report.host_failures == len(report.failed_hosts)
        assert report.host_recoveries <= report.host_failures
        # Every VM is either placed consistently or explicitly accounted for.
        for vm in result.vms.values():
            allocation = result.placement.allocation_for(vm.vm_id)
            if vm.alive:
                node = result.region.find_node(vm.node_id)
                assert allocation is not None
                assert allocation.provider_id == node.building_block
            else:
                # ERROR (dead-lettered or retry pending at sim end) and
                # DELETED VMs hold no allocation.
                assert allocation is None
        assert (
            report.evacuations_succeeded + len(report.dead_letters)
            <= report.evacuations_requested
        )
