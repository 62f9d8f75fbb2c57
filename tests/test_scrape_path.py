"""Byte-identity of the columnar scrape against the per-sample reference.

The simulator's scrape (series handles + the batch demand table, zero
Sample objects) must be observationally indistinguishable from the per-sample
reference in :mod:`repro.verify.reference`: same placements, same
counters, same telemetry bytes.  `repro verify --check scrape_path` holds
this on the canned scenarios; these tests hold the building blocks
(SeriesHandle, content_fingerprint, emit_nodes/emit_region vs
scrape_node/scrape_region), an end-to-end faulted run small enough for
the unit suite, and the reference's independence from the fast path.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.drs.balancer import migrate
from repro.faults.config import FaultConfig
from repro.faults.scenario import ScenarioConfig, run_fault_scenario
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.topology import BuildingBlockSpec, DatacenterSpec, TopologySpec
from repro.infrastructure.vm import VM, VMState
from repro.simulation import runner
from repro.telemetry.exporters import NodeUsage, NovaExporter, VropsExporter
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import STALE
from repro.verify.reference import ReferenceSimulation, run_reference_scenario
from repro.verify.runner import VerifyConfig, run_verify
from repro.verify.scenarios import SCENARIOS
from repro.workloads import waveform
from tests.conftest import build_tiny_region_spec, make_node


@pytest.fixture
def usage() -> NodeUsage:
    return NodeUsage(
        cpu_used_fraction=0.5,
        memory_used_fraction=0.25,
        network_tx_kbps=1000.0,
        network_rx_kbps=800.0,
        disk_used_gb=100.0,
        cpu_ready_ms=30_000.0,
        cpu_contention_fraction=0.1,
    )


class TestSeriesHandle:
    def test_append_visible_through_query(self):
        store = MetricStore()
        handle = store.series_handle("m", {"host": "n1"})
        handle.append(0.0, 1.0)
        handle.append(60.0, 2.0)
        series = store.query("m", {"host": "n1"})
        assert list(series.timestamps) == [0.0, 60.0]
        assert list(series.values) == [1.0, 2.0]

    def test_handle_and_ingest_share_one_series(self):
        from repro.telemetry.exporters import Sample

        store = MetricStore()
        handle = store.series_handle("m", {"host": "n1"})
        handle.append(0.0, 1.0)
        store.ingest([Sample("m", {"host": "n1"}, 60.0, 2.0)])
        assert store.sample_count() == 2
        assert list(store.query("m", {"host": "n1"}).values) == [1.0, 2.0]

    def test_fingerprint_tracks_content_not_construction(self):
        def build(via_handle: bool) -> str:
            store = MetricStore()
            if via_handle:
                h = store.series_handle("m", {"a": "1"})
                for i in range(5):
                    h.append(float(i), float(i) * 2.0)
            else:
                from repro.telemetry.exporters import Sample

                store.ingest(
                    [
                        Sample("m", {"a": "1"}, float(i), float(i) * 2.0)
                        for i in range(5)
                    ]
                )
            return store.content_fingerprint()

        assert build(True) == build(False)

    def test_fingerprint_differs_on_any_value_change(self):
        stores = []
        for value in (1.0, 1.0 + 2**-40):
            store = MetricStore()
            store.series_handle("m", {}).append(0.0, value)
            stores.append(store.content_fingerprint())
        assert stores[0] != stores[1]


class TestEmitParity:
    def test_emit_node_matches_scrape_node_ingest(self, usage):
        node = make_node("n1")
        node.building_block = "bb1"
        node.datacenter = "dc1"
        node.az = "az1"

        legacy = MetricStore()
        legacy.ingest(VropsExporter().scrape_node(node, usage, 60.0))

        columnar = MetricStore()
        emitted = VropsExporter().emit_node(columnar, node, usage, 60.0)

        assert emitted == legacy.sample_count() == 7
        assert columnar.content_fingerprint() == legacy.content_fingerprint()

    def test_emit_nodes_matches_scrape_node_ingest_tick_by_tick(self, usage):
        """Whole ticks over a changing node set, stale rows included: the
        same series, in the same creation order, with the same bits."""
        nodes = [make_node(f"n{i}") for i in range(3)]
        stale = NodeUsage(*[STALE] * 7)
        ticks = [
            [(nodes[0], usage), (nodes[2], stale)],
            [(nodes[0], usage), (nodes[1], usage), (nodes[2], usage)],
            [(nodes[1], stale), (nodes[2], usage)],
        ]
        fields = [f.name for f in dataclasses.fields(NodeUsage)]
        legacy, columnar = MetricStore(), MetricStore()
        exporter = VropsExporter()
        for t, tick in enumerate(ticks):
            for node, u in tick:
                legacy.ingest(VropsExporter().scrape_node(node, u, 60.0 * t))
            rows = np.array([[getattr(u, f) for f in fields] for _, u in tick])
            emitted = exporter.emit_nodes(columnar, [n for n, _ in tick], rows, 60.0 * t)
            assert emitted == 7 * len(tick)
        assert columnar.content_fingerprint() == legacy.content_fingerprint()

    def test_emit_region_matches_scrape_region_ingest(self, tiny_region):
        bb = tiny_region.find_building_block("dc1-gp-00")
        node = next(bb.iter_nodes())
        node.add_vm(VM(vm_id="v1", flavor=Flavor("f", vcpus=8, ram_gib=32)))

        legacy = MetricStore()
        legacy.ingest(NovaExporter().scrape_region(tiny_region, 0.0))

        columnar = MetricStore()
        emitted = NovaExporter().emit_region(columnar, tiny_region, 0.0)

        assert emitted == legacy.sample_count()
        assert columnar.content_fingerprint() == legacy.content_fingerprint()

    def test_emit_region_tracks_allocation_changes(self, tiny_region):
        bb = tiny_region.find_building_block("dc1-gp-00")
        node = next(bb.iter_nodes())
        store = MetricStore()
        exporter = NovaExporter()
        exporter.emit_region(store, tiny_region, 0.0)
        node.add_vm(VM(vm_id="v1", flavor=Flavor("f", vcpus=8, ram_gib=32)))
        exporter.emit_region(store, tiny_region, 60.0)

        used = store.query(
            "openstack_compute_nodes_vcpus_used_gauge",
            {
                "compute_host": "dc1-gp-00",
                "datacenter": "dc1",
                "availability_zone": "az1",
            },
        )
        assert list(used.values) == [0.0, 8.0]
        total = store.query(
            "openstack_compute_instances_total", {"region": "test-region"}
        )
        assert list(total.values) == [0.0, 1.0]


class TestEndToEndScrapePath:
    CONFIG = ScenarioConfig(
        building_blocks=2,
        nodes_per_bb=3,
        duration_days=0.25,
        initial_vms=24,
        arrival_rate_per_hour=8.0,
        scrape_interval_s=900.0,
        faults=FaultConfig(
            seed=11,
            host_failure_rate_per_day=12.0,
            repair_time_mean_s=1800.0,
            migration_abort_fraction=0.2,
            scrape_gap_probability=0.05,
            stale_node_probability=0.05,
        ),
    )

    def test_columnar_byte_identical_to_legacy_under_faults(self):
        fast = run_fault_scenario(self.CONFIG)
        slow = run_reference_scenario(self.CONFIG)
        assert {v: vm.node_id for v, vm in fast.vms.items()} == {
            v: vm.node_id for v, vm in slow.vms.items()
        }
        assert (fast.created, fast.deleted, fast.rejected, fast.resized) == (
            slow.created,
            slow.deleted,
            slow.rejected,
            slow.resized,
        )
        assert fast.drs_migrations == slow.drs_migrations
        assert fast.events_processed == slow.events_processed
        assert dict(fast.scheduler_stats) == dict(slow.scheduler_stats)
        assert fast.store.sample_count() == slow.store.sample_count()
        assert (
            fast.store.content_fingerprint() == slow.store.content_fingerprint()
        )
        assert fast.fault_report.to_json() == slow.fault_report.to_json()


def _cpu_ulp_high(evaluate_one):
    """The table's opaque read with its CPU one ulp above the true value."""

    def perturbed(demand, t):
        cpu, *rest = evaluate_one(demand, t)
        return [math.nextafter(cpu, math.inf), *rest]

    return perturbed


def _batch_cpu_ulp_high(evaluate):
    """``DemandTable.evaluate`` with every row-backed VM's CPU one ulp high.

    Opaque VMs (no row, or a row on another generator) keep their own
    ``evaluate``'s value, so only the array path is perturbed.
    """

    def perturbed(table, slots, now):
        out = evaluate(table, slots, now)
        vm_of = {slot: vm_id for vm_id, slot in table.slots.items()}
        for i, slot in enumerate(slots):
            if waveform._demand_row(table.get(vm_of[slot]), table.rng) is not None:
                out[0, i] = math.nextafter(out[0, i], math.inf)
        return out

    return perturbed


def _reversed_source_scans(many):
    """``DrsLoad.many`` reading every source scan (a batch of one node's
    VMs) back to front: each VM still gets its own read, but the shared
    generator's draws land on other VMs."""

    def reading(self, vms):
        if len({vm.node_id for vm in vms}) == 1:
            return many(self, vms[::-1])[::-1]
        return many(self, vms)

    return reading


class TestReferenceIndependence:
    """The verify reference must not share the path it checks.

    A reference that quietly called the batch table (its rows or its
    opaque reads) or the series-handle emit would agree with any bug in them;
    perturbing the simulator's fast path must therefore make the
    ``scrape_path`` check fail with a diff.
    """

    @staticmethod
    def _scrape_path_outcome():
        report = run_verify(VerifyConfig(scenario="tiny", checks=("scrape_path",)))
        (outcome,) = report.outcomes
        return outcome

    def test_cpu_one_ulp_off_is_caught(self, monkeypatch):
        # No VM gets a row, so every read is the batch's in-place opaque
        # read, moved one ulp.
        monkeypatch.setattr(waveform, "_demand_row", lambda demand, rng: None)
        monkeypatch.setattr(waveform, "_evaluate_one", _cpu_ulp_high(waveform._evaluate_one))
        outcome = self._scrape_path_outcome()
        assert not outcome.ok
        assert "store_fingerprint" in outcome.diff

    def test_batch_cpu_one_ulp_off_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            waveform.DemandTable,
            "evaluate",
            _batch_cpu_ulp_high(waveform.DemandTable.evaluate),
        )
        outcome = self._scrape_path_outcome()
        assert not outcome.ok
        assert "store_fingerprint" in outcome.diff

    def test_drs_source_scan_read_out_of_order_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            runner.DrsLoad, "many", _reversed_source_scans(runner.DrsLoad.many)
        )
        outcome = self._scrape_path_outcome()
        assert not outcome.ok
        assert '"placements"' in outcome.diff or "store_fingerprint" in outcome.diff

    def test_one_dropped_node_emit_is_caught(self, monkeypatch):
        emit_nodes = VropsExporter.emit_nodes
        stores = []

        def lossy(self, store, nodes, usage, timestamp):
            if not any(s is store for s in stores):
                stores.append(store)
                # The first node scrape of each run never lands.
                nodes, usage = nodes[1:], usage[1:]
            return emit_nodes(self, store, nodes, usage, timestamp)

        monkeypatch.setattr(VropsExporter, "emit_nodes", lossy)
        outcome = self._scrape_path_outcome()
        assert not outcome.ok
        assert '"samples"' in outcome.diff


class TestScrapePathSizing:
    """Each verify scenario runs its own ``scrape_path`` shape."""

    def test_scenarios_run_distinct_configs(self):
        configs = [s.scrape_path_scenario(7) for s in SCENARIOS.values()]
        for i, a in enumerate(configs):
            for b in configs[i + 1 :]:
                assert a != b

    def test_dense_packs_the_most_vms_per_node(self):
        def per_node(config):
            nodes = config.building_blocks * config.nodes_per_bb
            return config.initial_vms / nodes, config.arrival_rate_per_hour / nodes

        dense = per_node(SCENARIOS["dense"].scrape_path_scenario(7))
        for name, scenario in SCENARIOS.items():
            if name != "dense":
                other = per_node(scenario.scrape_path_scenario(7))
                assert dense[0] > other[0] and dense[1] > other[1], name

    def test_faults_and_duration_follow_the_fault_scenario(self):
        for scenario in SCENARIOS.values():
            config = scenario.scrape_path_scenario(8)
            assert config.duration_days == 2.0
            assert config.faults == scenario.fault_scenario(8).faults

    def test_dense_drs_reads_batches_of_more_than_30_vms(self, monkeypatch):
        sizes = []
        many = runner.DrsLoad.many

        def recording(self, vms):
            sizes.append(len(vms))
            return many(self, vms)

        monkeypatch.setattr(runner.DrsLoad, "many", recording)
        run_fault_scenario(SCENARIOS["dense"].scrape_path_scenario(7))
        assert max(sizes) > 30


# -- per-node slot lists --------------------------------------------------------


def _pair(config, spec=None):
    """The simulator and the per-sample reference on one (topology, config)."""
    spec = spec if spec is not None else build_tiny_region_spec()
    return runner.RegionSimulation(spec, config), ReferenceSimulation(spec, config)


def _outcome(sim):
    return (
        sim.store.content_fingerprint(),
        sorted((vm_id, vm.node_id, vm.state.value) for vm_id, vm in sim.vms.items()),
    )


def _idle_config(**overrides):
    """No arrivals and no initial VMs: each test places its own."""
    values = dict(duration_days=1.0, arrival_rate_per_hour=0.0, initial_vms=0, seed=5)
    values.update(overrides)
    return runner.SimulationConfig(**values)


def _place_with_demand(sim, vm_id, flavor_name, node_id):
    """Place a VM the way ``_handle_create`` does, demand included."""
    node = sim._node_index[node_id]
    vm = VM(vm_id=vm_id, flavor=sim.catalog.get(flavor_name))
    vm.transition(VMState.BUILDING)
    vm.transition(VMState.ACTIVE)
    sim.placement.claim(vm_id, node.building_block, vm.flavor.requested())
    node.add_vm(vm)
    sim.vms[vm_id] = vm
    sim.demands[vm_id] = sim.demand_model.demand_for(vm.flavor)
    return vm


def _scrape_at(sim, t):
    sim.engine.now = t
    sim._handle_scrape(sim.engine, None)


class TestSlotLists:
    """Each node's table slots are reused while its resident set and its
    residents' demands are unchanged, and rebuilt after any change; every
    case is held byte for byte to the per-sample reference."""

    A, B = "dc1-gp-00-node-000", "dc1-gp-00-node-001"

    def _two_nodes(self, sim):
        for i in range(3):
            _place_with_demand(sim, f"a{i}", "g_c4_m16", self.A)
            _place_with_demand(sim, f"b{i}", "g_c8_m32", self.B)

    def _check(self, script, config=None):
        outcomes = []
        for sim in _pair(config or _idle_config()):
            script(sim)
            outcomes.append(_outcome(sim))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_every_registry_write_calls_the_hook(self):
        seen = []
        registry = runner.DemandRegistry(seen.append)
        registry["a"] = 1
        registry.update({"b": 2}, c=3)
        registry.setdefault("d", 4)
        registry.setdefault("a", 9)  # present: no write
        registry |= {"e": 5}
        registry.pop("a")
        registry.pop("missing", None)
        del registry["b"]
        registry.popitem()
        registry.clear()
        assert seen == ["a", "b", "c", "d", "e", "a", "b", "c", "d", "e"]
        assert registry == {}

    def test_resizes_maintenance_and_drs_match_the_reference(self):
        config = runner.SimulationConfig(
            duration_days=1.0,
            scrape_interval_s=900.0,
            drs_interval_s=1800.0,
            arrival_rate_per_hour=20.0,
            resize_rate_per_hour=6.0,
            maintenance_rate_per_day=8.0,
            maintenance_duration_s=3 * 3600.0,
            initial_vms=60,
            seed=9,
        )
        fast, slow = (sim.run() for sim in _pair(config))
        assert fast.resized > 0 and fast.maintenance_windows > 0
        assert fast.drs_migrations > 0
        assert {v: vm.node_id for v, vm in fast.vms.items()} == {
            v: vm.node_id for v, vm in slow.vms.items()
        }
        assert (fast.resized, fast.resize_failed, fast.drs_migrations) == (
            slow.resized,
            slow.resize_failed,
            slow.drs_migrations,
        )
        assert fast.store.content_fingerprint() == slow.store.content_fingerprint()

    def test_replaced_demand_is_read_at_the_next_tick(self):
        def script(sim):
            self._two_nodes(sim)
            _scrape_at(sim, 0.0)
            sim.demands["a1"] = sim.demand_model.demand_for(sim.vms["a1"].flavor)
            if type(sim) is runner.RegionSimulation:
                assert "a1" not in sim._demand_table  # put again lazily
            _scrape_at(sim, 900.0)
            if type(sim) is runner.RegionSimulation:
                assert sim._demand_table.get("a1") is sim.demands["a1"]

        self._check(script)

    def test_migration_rebuilds_both_nodes(self):
        def script(sim):
            self._two_nodes(sim)
            _scrape_at(sim, 0.0)
            migrate("a0", sim._node_index[self.A], sim._node_index[self.B])
            _scrape_at(sim, 900.0)

        self._check(script)

    def test_remove_then_add_keeping_the_vm_count(self):
        def script(sim):
            self._two_nodes(sim)
            _scrape_at(sim, 0.0)
            a, b = sim._node_index[self.A], sim._node_index[self.B]
            # Swap a0 and b2: both nodes keep three VMs, in a new order.
            b.add_vm(a.remove_vm("a0"))
            a.add_vm(b.remove_vm("b2"))
            _scrape_at(sim, 900.0)

        self._check(script)

    def test_dead_lettered_vm_slot_is_reused(self):
        faults = FaultConfig(
            seed=11, evac_backoff_base_s=10.0, evac_batch_spacing_s=30.0, evac_max_retries=2
        )
        spec = TopologySpec(
            region_id="r",
            datacenters=(
                DatacenterSpec(
                    dc_id="dc1",
                    az_id="az1",
                    building_blocks=(BuildingBlockSpec(bb_id="bb0", node_count=2),),
                ),
            ),
        )
        config = _idle_config(faults=faults)
        outcomes = []
        for sim in _pair(config, spec):
            # Both nodes full: every evacuation from node 0 dead-letters.
            for n, node_id in enumerate(("bb0-node-000", "bb0-node-001")):
                for i in range(8):
                    _place_with_demand(sim, f"vm{n}-{i}", "g_c32_m256", node_id)
            _scrape_at(sim, 0.0)
            freed = dict(sim._demand_table.slots) if type(sim) is runner.RegionSimulation else {}
            sim.evacuation.on_host_fail(sim.engine, sim._node_index["bb0-node-000"])
            sim.engine.run_until(5000.0)
            dead = sim.fault_report.dead_lettered_vms
            assert len(dead) == 8
            _place_with_demand(sim, "late", "g_c2_m8", "bb0-node-001")
            _scrape_at(sim, 5000.0)
            if freed:
                assert sim._demand_table.slots["late"] in {freed[vm_id] for vm_id in dead}
            outcomes.append(_outcome(sim))
        assert outcomes[0] == outcomes[1]
