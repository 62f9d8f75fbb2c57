"""Canned end-to-end fault scenario: one small region under injected chaos.

Shared by the ``repro faults`` CLI subcommand, ``examples/
fault_scenarios.py``, and the determinism smoke tests.  Kept out of
``repro.faults.__init__`` because it imports the simulation runner (which
itself imports the fault models).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.config import FaultConfig
from repro.infrastructure.topology import TopologySpec, lab_region_spec
from repro.simulation.runner import (
    RegionSimulation,
    SimulationConfig,
    SimulationResult,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape and workload of the fault scenario."""

    building_blocks: int = 3
    nodes_per_bb: int = 4
    duration_days: float = 1.0
    seed: int = 7
    arrival_rate_per_hour: float = 12.0
    initial_vms: int = 120
    scrape_interval_s: float = 900.0
    drs_interval_s: float = 3600.0
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.building_blocks < 1 or self.nodes_per_bb < 1:
            raise ValueError("need at least one building block and node")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")


def scenario_topology(config: ScenarioConfig) -> TopologySpec:
    """A one-DC region of uniform general-purpose building blocks."""
    return lab_region_spec(config.building_blocks, config.nodes_per_bb)


def scenario_sim_config(config: ScenarioConfig) -> SimulationConfig:
    """The simulation parameters of the scenario."""
    return SimulationConfig(
        duration_days=config.duration_days,
        scrape_interval_s=config.scrape_interval_s,
        drs_interval_s=config.drs_interval_s,
        arrival_rate_per_hour=config.arrival_rate_per_hour,
        initial_vms=config.initial_vms,
        seed=config.seed,
        faults=config.faults,
    )


def run_fault_scenario(config: ScenarioConfig | None = None) -> SimulationResult:
    """Run the scenario once; the result carries the FaultReport."""
    config = config or ScenarioConfig()
    sim = RegionSimulation(scenario_topology(config), scenario_sim_config(config))
    return sim.run()


def default_chaos(seed: int = 23) -> FaultConfig:
    """A lively but survivable default fault mix for demos and smoke tests."""
    return FaultConfig(
        seed=seed,
        host_failure_rate_per_day=3.0,
        repair_time_mean_s=4 * 3600.0,
        migration_abort_fraction=0.2,
        scrape_gap_probability=0.03,
        stale_node_probability=0.02,
    )
