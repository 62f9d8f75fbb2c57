"""Per-sample reference simulation for the ``scrape_path`` check.

:class:`ReferenceSimulation` is a :class:`~repro.simulation.runner.
RegionSimulation` whose scrape and DRS handlers take the slow, obviously
correct route: every VM's demand comes from ``VMDemand.evaluate`` on a
one-element timestamp array, every sample is a
:class:`~repro.telemetry.store.Sample` from ``scrape_node`` /
``scrape_region``, and the whole tick goes through ``store.ingest``.  It
shares nothing with the simulator's batch demand table or series handles,
so a run of each on the same (topology, config) must agree byte for byte:
the table's one evaluator replays ``evaluate``'s float operations and its
RNG consumption exactly on a one-element grid, with ``VMDemand.evaluate``
itself as its only fallback, and the series handles are resolved in the
order the per-sample ingest first touches each series.

The reference lives here, not behind a runtime switch in the simulator,
because it exists only to be compared against.
"""

from __future__ import annotations

import numpy as np

from repro.faults.scenario import ScenarioConfig, scenario_sim_config, scenario_topology
from repro.infrastructure.vm import VM
from repro.simulation.engine import SimulationEngine
from repro.simulation.hostsched import HostCpuModel
from repro.simulation.runner import (
    HOST_CPU_EFFICIENCY,
    RegionSimulation,
    SimulationResult,
)
from repro.telemetry.exporters import NodeUsage
from repro.telemetry.timeseries import STALE


class ReferenceSimulation(RegionSimulation):
    """The simulator with per-sample scrapes and a numpy DRS load."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One scalar CPU model per node: the simulator resolves the whole
        # node vector in one array call instead.
        self._cpu_models = {
            n.node_id: HostCpuModel(n.physical.vcpus, efficiency=HOST_CPU_EFFICIENCY)
            for n in self.region.iter_nodes()
        }
        self._stale_usage = NodeUsage(
            cpu_used_fraction=STALE,
            memory_used_fraction=STALE,
            network_tx_kbps=STALE,
            network_rx_kbps=STALE,
            disk_used_gb=STALE,
            cpu_ready_ms=STALE,
            cpu_contention_fraction=STALE,
        )

    def _handle_scrape(self, engine: SimulationEngine, event) -> None:
        if self.telemetry_faults is not None and self.telemetry_faults.scrape_missed():
            return  # whole cycle lost: an honest hole in every series
        now = np.asarray([engine.now])
        samples = []
        for node in self._node_index.values():
            if node.failed:
                continue  # dead host, dead exporter: no samples at all
            if self.partition is not None and self.partition.is_blackholed(
                node.node_id
            ):
                continue  # exporter unreachable: the domain's series freeze
            if self.telemetry_faults is not None and self.telemetry_faults.node_is_stale(
                node.node_id
            ):
                # The exporter answered but its data is stale: keep the
                # scrape timestamps, mark every value unknown.
                samples.extend(
                    self.vrops.scrape_node(node, self._stale_usage, engine.now)
                )
                continue
            cpu_demand = 0.0
            mem_mb = 0.0
            tx = rx = 0.0
            disk = 0.0
            for vm in node.vms.values():
                demand = self.demands.get(vm.vm_id)
                if demand is None:
                    continue
                snap = demand.evaluate(now)
                cpu_demand += float(snap.cpu_cores[0])
                mem_mb += float(snap.memory_mb[0])
                tx += float(snap.network_tx_kbps[0])
                rx += float(snap.network_rx_kbps[0])
                disk += float(snap.disk_gb[0])
            usage_window = self._cpu_models[node.node_id].resolve_window(
                cpu_demand, self.config.scrape_interval_s
            )
            usage = NodeUsage(
                cpu_used_fraction=min(1.0, usage_window.cpu_used_fraction + 0.02),
                memory_used_fraction=min(
                    1.0, mem_mb / node.physical.memory_mb + 0.04
                ),
                network_tx_kbps=tx,
                network_rx_kbps=rx,
                disk_used_gb=min(disk, node.physical.disk_gb),
                cpu_ready_ms=usage_window.cpu_ready_ms,
                cpu_contention_fraction=usage_window.cpu_contention_fraction,
            )
            samples.extend(self.vrops.scrape_node(node, usage, engine.now))
        samples.extend(self.nova_exporter.scrape_region(self.region, engine.now))
        self.store.ingest(samples)

    def _handle_drs(self, engine: SimulationEngine, event) -> None:
        now = np.asarray([engine.now])

        def load_fn(vm: VM) -> float:
            demand = self.demands.get(vm.vm_id)
            if demand is None:
                return float(vm.flavor.vcpus)
            return float(demand.evaluate(now).cpu_cores[0])

        for bb in self._bb_index.values():
            if bb.policy == "pack":
                continue  # DRS load-balancing is for spread BBs.
            migrations = self.drs.run(bb, load_fn=load_fn, fault_model=self.migration_faults)
            self.drs_migrations += len(migrations)


def run_reference_scenario(config: ScenarioConfig) -> SimulationResult:
    """:func:`~repro.faults.scenario.run_fault_scenario` on the reference."""
    sim = ReferenceSimulation(scenario_topology(config), scenario_sim_config(config))
    return sim.run()
