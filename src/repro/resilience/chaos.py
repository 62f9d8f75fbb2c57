"""The chaos scenario: correlated failures against a defended control plane.

A two-AZ region runs the full resilience stack (health/quarantine,
admission control, reconciler, invariant checker) while the fault layer
throws everything at it at once: independent host failures, a flapping
host, AZ- and BB-scoped outages, and exporter↔store scrape partitions.
Two AZs are the minimum honest topology — an AZ outage must hurt without
being able to kill the whole region.

The acceptance bar (mirrored by the ``chaos-smoke`` CI job) is that a
seeded run completes with **zero invariant violations** and a
byte-identical :class:`~repro.resilience.report.ResilienceReport` across
repeats.  Kept out of ``repro.resilience.__init__`` because it imports
the simulation runner (which imports the resilience services).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.faults.config import FaultConfig
from repro.infrastructure.topology import TopologySpec, chaos_region_spec
from repro.reporting import ReportBase
from repro.resilience.config import ResilienceConfig
from repro.simulation.runner import (
    RegionSimulation,
    SimulationConfig,
    SimulationResult,
)


def default_chaos_faults(seed: int = 24) -> FaultConfig:
    """The full correlated-fault mix: hosts, a flapper, domains, partitions."""
    return FaultConfig(
        seed=seed,
        host_failure_rate_per_day=2.0,
        repair_time_mean_s=3 * 3600.0,
        migration_abort_fraction=0.15,
        scrape_gap_probability=0.02,
        stale_node_probability=0.02,
        az_outage_rate_per_day=1.5,
        bb_outage_rate_per_day=1.0,
        domain_outage_duration_mean_s=1800.0,
        partition_rate_per_day=1.5,
        partition_duration_mean_s=1800.0,
        partition_scope="bb",
        flapping_hosts=1,
        flapping_period_s=1800.0,
        flapping_cycles=5,
    )


def default_chaos_resilience(seed: int = 101) -> ResilienceConfig:
    """Resilience knobs matched to the chaos mix (admission enabled)."""
    return ResilienceConfig(
        seed=seed,
        heartbeat_interval_s=300.0,
        flap_window_s=2 * 3600.0,
        flap_threshold=4,
        quarantine_base_s=2 * 3600.0,
        admission_rate_per_s=0.05,
        admission_burst=10,
        request_deadline_s=2 * 3600.0,
        reconcile_interval_s=3600.0,
        invariant_interval_s=1800.0,
        fail_fast=True,
    )


@dataclass(frozen=True)
class ChaosConfig:
    """Shape, workload, and fault/resilience mix of the chaos scenario."""

    building_blocks_per_az: int = 2
    nodes_per_bb: int = 4
    duration_days: float = 1.0
    seed: int = 7
    arrival_rate_per_hour: float = 12.0
    initial_vms: int = 80
    scrape_interval_s: float = 900.0
    drs_interval_s: float = 3600.0
    faults: FaultConfig = field(default_factory=default_chaos_faults)
    resilience: ResilienceConfig = field(default_factory=default_chaos_resilience)

    def __post_init__(self) -> None:
        if self.building_blocks_per_az < 1 or self.nodes_per_bb < 1:
            raise ValueError("need at least one building block and node per AZ")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")


def chaos_topology(config: ChaosConfig) -> TopologySpec:
    """Two AZs of uniform general-purpose building blocks."""
    return chaos_region_spec(config.building_blocks_per_az, config.nodes_per_bb)


def run_chaos_scenario(
    config: ChaosConfig | None = None, journal=None
) -> SimulationResult:
    """Run the chaos scenario once; the result carries both reports.

    ``journal`` (a callable taking one JSON-able dict) receives every
    control-plane audit record — sim-clock advances, placement claims
    and releases, quarantine transitions, admission decisions — in
    event order; ``repro chaos --journal`` plugs a write-ahead
    :class:`~repro.recovery.journal.JournalWriter` in here.
    """
    config = config or ChaosConfig()
    sim = RegionSimulation(
        chaos_topology(config),
        SimulationConfig(
            duration_days=config.duration_days,
            scrape_interval_s=config.scrape_interval_s,
            drs_interval_s=config.drs_interval_s,
            arrival_rate_per_hour=config.arrival_rate_per_hour,
            initial_vms=config.initial_vms,
            seed=config.seed,
            faults=config.faults,
            resilience=config.resilience,
        ),
        journal=journal,
    )
    return sim.run()


def chaos_summary(result: SimulationResult) -> dict:
    """Deterministic JSON-ready digest of one chaos run (hashed by CI)."""
    stats = result.scheduler_stats
    return {
        "fault_report": result.fault_report.to_dict(),
        "resilience_report": result.resilience_report.to_dict(),
        "scheduler_stats": {k: stats[k] for k in sorted(stats)},
        "created": result.created,
        "deleted": result.deleted,
        "rejected": result.rejected,
    }


@dataclass
class ChaosSummary(ReportBase):
    """The chaos digest as a first-class :mod:`repro.reporting` report.

    Wraps one finished run so the chaos CLI's ``--out`` path flows
    through the same byte-stable writer as every other artifact.
    """

    result: SimulationResult

    def to_dict(self) -> dict:
        return chaos_summary(self.result)

    def render(self) -> str:
        return (
            self.result.resilience_report.render()
            + "\n"
            + self.result.fault_report.render()
        )


def chaos_summary_json(result: SimulationResult, indent: int | None = 2) -> str:
    """Byte-stable rendering of :func:`chaos_summary`."""
    return json.dumps(chaos_summary(result), indent=indent, sort_keys=True)
