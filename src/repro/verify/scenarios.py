"""Named scenarios for the differential verification harness.

A :class:`VerifyScenario` fixes everything a verification check needs to
be reproducible: the region topology, the seeded placement workload the
oracle replays, and the fault / chaos scenario shapes whose reports the
determinism checks hash.  The registry gives the ``repro verify`` CLI a
small matrix — ``tiny`` is the CI smoke size, ``default`` the local
deep check, ``dense`` drives the saturation / NoValidHost paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults.config import FaultConfig
from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.topology import (
    BuildingBlockSpec,
    DatacenterSpec,
    TopologySpec,
    paper_region_spec,
)


@dataclass(frozen=True)
class VerifyScenario:
    """One named, fully seeded verification workload."""

    name: str
    description: str
    #: Placement workload replayed by the differential oracle.
    requests: int = 80
    #: One VM deletion is interleaved after every ``delete_every`` creates
    #: (exercises release paths and incremental index updates).
    delete_every: int = 5
    #: Paper-shaped region scale; None selects the hand-built mixed
    #: topology below instead.
    region_scale: float | None = None
    #: Hand-built topology knobs (used when ``region_scale`` is None).
    general_bbs: int = 3
    hana_bbs: int = 1
    nodes_per_bb: int = 4
    #: Duration of the fault / chaos determinism runs.
    fault_days: float = 0.2
    chaos_days: float = 0.2
    #: Whether the (more expensive) chaos determinism check runs at all.
    include_chaos: bool = True
    #: Shape of the two-day ``scrape_path`` run (its faults are the fault
    #: scenario's): building blocks, nodes per block, VMs placed before
    #: the run, and arrivals per hour.
    scrape_bbs: int = 2
    scrape_nodes_per_bb: int = 3
    scrape_initial_vms: int = 40
    scrape_arrival_rate_per_hour: float = 8.0

    def topology(self) -> TopologySpec:
        """The region spec every check of this scenario starts from."""
        if self.region_scale is not None:
            return paper_region_spec(
                scale=self.region_scale, region_id=f"verify-{self.name}"
            )
        return _mixed_topology(self.name, self.general_bbs, self.hana_bbs,
                               self.nodes_per_bb)

    def grown_topology(self) -> TopologySpec:
        """The same region with one extra node in every building block.

        Input of the capacity-growth metamorphic check: strictly more
        room everywhere, identical shape otherwise.
        """
        return _map_building_blocks(
            self.topology(), lambda bb: replace(bb, node_count=bb.node_count + 1)
        )

    def permuted_topology(self) -> TopologySpec:
        """The same region with building-block and DC order reversed.

        Input of the host-order permutation check: registration order is
        the only difference, so placements must not move.
        """
        spec = self.topology()
        return TopologySpec(
            region_id=spec.region_id,
            datacenters=tuple(
                DatacenterSpec(
                    dc_id=dc.dc_id,
                    az_id=dc.az_id,
                    building_blocks=tuple(reversed(dc.building_blocks)),
                )
                for dc in reversed(spec.datacenters)
            ),
        )

    def fault_scenario(self, seed: int):
        """The seeded fault scenario hashed by the determinism check."""
        from repro.faults.scenario import ScenarioConfig

        return ScenarioConfig(
            building_blocks=2,
            nodes_per_bb=3,
            duration_days=self.fault_days,
            seed=seed,
            arrival_rate_per_hour=8.0,
            initial_vms=40,
            scrape_interval_s=1800.0,
            faults=FaultConfig(
                seed=seed,
                host_failure_rate_per_day=18.0,
                repair_time_mean_s=2 * 3600.0,
                migration_abort_fraction=0.25,
                scrape_gap_probability=0.05,
                stale_node_probability=0.04,
                evac_backoff_base_s=15.0,
            ),
        )

    def scrape_path_scenario(self, seed: int):
        """The fault scenario stretched to two days, so fault windows, DRS
        passes and stale scrapes all occur, at this scenario's
        ``scrape_*`` shape: the run the ``scrape_path`` check replays."""
        return replace(
            self.fault_scenario(seed),
            duration_days=2.0,
            building_blocks=self.scrape_bbs,
            nodes_per_bb=self.scrape_nodes_per_bb,
            initial_vms=self.scrape_initial_vms,
            arrival_rate_per_hour=self.scrape_arrival_rate_per_hour,
        )

    def chaos_scenario(self, seed: int):
        """The seeded chaos scenario hashed by the determinism check."""
        from repro.resilience.chaos import (
            ChaosConfig,
            default_chaos_faults,
            default_chaos_resilience,
        )

        return ChaosConfig(
            duration_days=self.chaos_days,
            seed=seed,
            initial_vms=40,
            faults=default_chaos_faults(seed + 17),
            resilience=default_chaos_resilience(),
        )


def _mixed_topology(
    name: str, general_bbs: int, hana_bbs: int, nodes_per_bb: int
) -> TopologySpec:
    """Two DCs mixing general-purpose (spread) and HANA (pack) blocks.

    Heterogeneous on purpose: aggregate classes, overcommit ratios, and
    policies all differ, so every default filter and both weigher
    policies participate in the differential replay.
    """
    general = tuple(
        BuildingBlockSpec(
            bb_id=f"vf-gp-{i:02d}",
            node_count=nodes_per_bb,
            node_capacity=Capacity(
                vcpus=64, memory_mb=512 * 1024, disk_gb=4096, network_gbps=200
            ),
        )
        for i in range(general_bbs)
    )
    hana = tuple(
        BuildingBlockSpec(
            bb_id=f"vf-hana-{i:02d}",
            node_count=nodes_per_bb,
            node_capacity=Capacity(
                vcpus=224, memory_mb=12288 * 1024, disk_gb=32768,
                network_gbps=200,
            ),
            overcommit=OvercommitPolicy(cpu_ratio=2.0),
            aggregate_class="hana",
            policy="pack",
        )
        for i in range(hana_bbs)
    )
    blocks = general + hana
    half = max(1, len(blocks) // 2)
    return TopologySpec(
        region_id=f"verify-{name}",
        datacenters=(
            DatacenterSpec(dc_id="dc1", az_id="az1", building_blocks=blocks[:half]),
            DatacenterSpec(dc_id="dc2", az_id="az2", building_blocks=blocks[half:]),
        ),
    )


def _map_building_blocks(spec: TopologySpec, fn) -> TopologySpec:
    return TopologySpec(
        region_id=spec.region_id,
        datacenters=tuple(
            DatacenterSpec(
                dc_id=dc.dc_id,
                az_id=dc.az_id,
                building_blocks=tuple(fn(bb) for bb in dc.building_blocks),
            )
            for dc in spec.datacenters
        ),
    )


SCENARIOS: dict[str, VerifyScenario] = {
    scenario.name: scenario
    for scenario in (
        VerifyScenario(
            name="tiny",
            description="CI smoke size: 4 mixed BBs, 60 requests",
            requests=60,
            delete_every=4,
            general_bbs=3,
            hana_bbs=1,
            nodes_per_bb=3,
            fault_days=0.15,
            chaos_days=0.15,
        ),
        VerifyScenario(
            name="default",
            description="paper-shaped region at scale 0.02, 150 requests",
            requests=150,
            delete_every=5,
            region_scale=0.02,
            fault_days=0.25,
            chaos_days=0.25,
            scrape_bbs=4,
            scrape_nodes_per_bb=4,
            scrape_initial_vms=120,
            scrape_arrival_rate_per_hour=12.0,
        ),
        VerifyScenario(
            name="dense",
            description="small region saturated until NoValidHost fires",
            requests=400,
            delete_every=9,
            general_bbs=2,
            hana_bbs=1,
            nodes_per_bb=2,
            fault_days=0.2,
            include_chaos=False,
            scrape_bbs=2,
            scrape_nodes_per_bb=2,
            scrape_initial_vms=100,
            scrape_arrival_rate_per_hour=16.0,
        ),
    )
}


def get_scenario(name: str) -> VerifyScenario:
    """Look up a scenario by name; raises ``KeyError`` with the catalogue."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
