"""Topology construction: build regions from declarative specs.

Includes the paper's Appendix D (Table 5) per-datacenter deployment numbers
so benchmarks can rebuild the global footprint, and a parameterisable
regional spec matching the studied region (~1,800 hypervisors, ~48,000 VMs,
BBs of 2–128 nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.infrastructure.capacity import (
    Capacity,
    GENERAL_OVERCOMMIT,
    HANA_OVERCOMMIT,
    OvercommitPolicy,
)
from repro.infrastructure.hierarchy import (
    AvailabilityZone,
    BuildingBlock,
    ComputeNode,
    DataCenter,
    Region,
)

#: Default node hardware: dual-socket 64-core servers with 2 TiB RAM and a
#: 200 Gbps NIC (§5.3 states each node supports 200 Gbps).
DEFAULT_NODE = Capacity(vcpus=128, memory_mb=2048 * 1024, disk_gb=16384, network_gbps=200)

#: Beefier nodes for HANA building blocks (≥3 TB flavors need headroom).
HANA_NODE = Capacity(vcpus=224, memory_mb=12288 * 1024, disk_gb=32768, network_gbps=200)


@dataclass(frozen=True)
class BuildingBlockSpec:
    """Declarative spec for one building block."""

    bb_id: str
    node_count: int
    node_capacity: Capacity = DEFAULT_NODE
    overcommit: OvercommitPolicy = GENERAL_OVERCOMMIT
    aggregate_class: str = ""
    policy: str = "spread"

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("building blocks need at least one node")


@dataclass(frozen=True)
class DatacenterSpec:
    """Declarative spec for one data center."""

    dc_id: str
    az_id: str
    building_blocks: tuple[BuildingBlockSpec, ...] = ()


@dataclass(frozen=True)
class TopologySpec:
    """Declarative spec for a whole region."""

    region_id: str
    datacenters: tuple[DatacenterSpec, ...] = ()


def build_region(spec: TopologySpec) -> Region:
    """Materialise a :class:`Region` from a :class:`TopologySpec`."""
    region = Region(region_id=spec.region_id)
    for dc_spec in spec.datacenters:
        az = region.azs.get(dc_spec.az_id)
        if az is None:
            az = AvailabilityZone(az_id=dc_spec.az_id)
            region.add_az(az)
        dc = DataCenter(dc_id=dc_spec.dc_id)
        for bb_spec in dc_spec.building_blocks:
            bb = BuildingBlock(
                bb_id=bb_spec.bb_id,
                overcommit=bb_spec.overcommit,
                aggregate_class=bb_spec.aggregate_class,
                policy=bb_spec.policy,
            )
            for i in range(bb_spec.node_count):
                node = ComputeNode(
                    node_id=f"{bb_spec.bb_id}-node-{i:03d}",
                    physical=bb_spec.node_capacity,
                )
                bb.add_node(node)
            dc.add_building_block(bb)
        az.add_datacenter(dc)
    return region


# --- Table 5: the paper's global data center footprint -----------------------

#: (region_id, datacenter_name, hypervisors, virtual_machines) — Appendix D.
PAPER_DATACENTERS: tuple[tuple[int, str, int, int], ...] = (
    (1, "A", 167, 4985),
    (1, "B", 65, 375),
    (2, "A", 244, 7913),
    (2, "B", 112, 1284),
    (3, "A", 202, 4475),
    (3, "B", 89, 1353),
    (4, "A", 191, 3977),
    (5, "A", 42, 395),
    (6, "A", 150, 5016),
    (7, "A", 63, 1096),
    (8, "A", 227, 5595),
    (8, "B", 270, 4206),
    (8, "D", 966, 34392),
    (9, "A", 751, 19464),
    (9, "B", 1072, 27652),
    (10, "A", 65, 1186),
    (10, "B", 152, 5713),
    (11, "A", 60, 2877),
    (12, "A", 62, 1996),
    (12, "B", 43, 362),
    (13, "A", 274, 7432),
    (13, "B", 99, 1149),
    (13, "D", 239, 3881),
    (14, "A", 330, 3809),
    (14, "B", 307, 5125),
    (15, "A", 209, 5442),
    (16, "A", 40, 504),
    (16, "B", 28, 156),
    (16, "D", 22, 78),
)


def paper_datacenter_table() -> list[dict[str, int | str]]:
    """Table 5 of the paper as a list of row dicts."""
    return [
        {
            "region_id": region,
            "datacenter_name": name,
            "hypervisors": hypervisors,
            "virtual_machines": vms,
        }
        for region, name, hypervisors, vms in PAPER_DATACENTERS
    ]


def datacenter_spec_from_counts(
    dc_id: str,
    az_id: str,
    node_count: int,
    hana_fraction: float = 0.30,
    min_bb_nodes: int = 2,
    max_bb_nodes: int = 128,
    typical_bb_nodes: int = 16,
) -> DatacenterSpec:
    """Split ``node_count`` hypervisors into BBs of realistic sizes.

    Building block sizes range 2–128 nodes (§3.1).  A ``hana_fraction`` of
    the nodes goes into bin-packed HANA BBs, the rest into spread
    general-purpose BBs, matching the paper's workload split.
    """
    if node_count < 1:
        raise ValueError("node_count must be positive")
    hana_nodes = int(round(node_count * hana_fraction))
    general_nodes = node_count - hana_nodes
    bbs: list[BuildingBlockSpec] = []

    def chunk(total: int, size: int) -> list[int]:
        if total <= 0:
            return []
        n_bbs = max(1, math.ceil(total / size))
        base = total // n_bbs
        sizes = [base] * n_bbs
        for i in range(total - base * n_bbs):
            sizes[i] += 1
        return [max(min_bb_nodes, min(max_bb_nodes, s)) for s in sizes if s > 0]

    for i, size in enumerate(chunk(general_nodes, typical_bb_nodes)):
        bbs.append(
            BuildingBlockSpec(
                bb_id=f"{dc_id}-gp-{i:02d}",
                node_count=size,
                node_capacity=DEFAULT_NODE,
                overcommit=GENERAL_OVERCOMMIT,
                policy="spread",
            )
        )
    hana_chunks = chunk(hana_nodes, typical_bb_nodes)
    if len(hana_chunks) == 1 and hana_chunks[0] >= 2 * min_bb_nodes:
        # Guarantee both aggregates exist even in small DCs: carve the
        # special-purpose ≥3 TB block out of the single HANA chunk (§3.1).
        xl_size = max(min_bb_nodes, hana_chunks[0] // 3)
        hana_chunks = [xl_size, hana_chunks[0] - xl_size]
    for i, size in enumerate(hana_chunks):
        # The first HANA BB is the special-purpose ≥3 TB aggregate (§3.1).
        is_xl = i == 0 and hana_nodes >= min_bb_nodes
        bbs.append(
            BuildingBlockSpec(
                bb_id=f"{dc_id}-hana-{i:02d}",
                node_count=size,
                node_capacity=HANA_NODE,
                overcommit=HANA_OVERCOMMIT,
                aggregate_class="hana_xl" if is_xl else "hana",
                policy="pack",
            )
        )
    return DatacenterSpec(dc_id=dc_id, az_id=az_id, building_blocks=tuple(bbs))


def paper_region_spec(scale: float = 1.0, region_id: str = "region-9") -> TopologySpec:
    """A spec shaped like the studied region (~1,800 nodes across 2 DCs).

    ``scale`` shrinks the deployment proportionally so tests and examples
    can run quickly; ``scale=1.0`` yields the full ≈1,800-hypervisor region
    (matching region 9 of Table 5: DCs of 751 and 1,072 nodes).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    dc_sizes = {"A": 751, "B": 1072}
    dcs = []
    for name, count in dc_sizes.items():
        scaled = max(4, int(round(count * scale)))
        dcs.append(
            datacenter_spec_from_counts(
                dc_id=f"{region_id}-dc-{name.lower()}",
                az_id=f"{region_id}{name.lower()}",
                node_count=scaled,
            )
        )
    return TopologySpec(region_id=region_id, datacenters=tuple(dcs))


def _uniform_datacenter(
    n: int, bb_prefix: str, building_blocks: int, nodes_per_bb: int
) -> DatacenterSpec:
    """DC ``dc{n}`` in AZ ``az{n}``: uniform general-purpose blocks."""
    return DatacenterSpec(
        dc_id=f"dc{n}",
        az_id=f"az{n}",
        building_blocks=tuple(
            BuildingBlockSpec(bb_id=f"{bb_prefix}bb{i}", node_count=nodes_per_bb)
            for i in range(building_blocks)
        ),
    )


def lab_region_spec(building_blocks: int, nodes_per_bb: int) -> TopologySpec:
    """The fault scenarios' region: one DC of uniform blocks ``bb0``, ``bb1``…"""
    return TopologySpec(
        region_id="fault-lab",
        datacenters=(_uniform_datacenter(1, "", building_blocks, nodes_per_bb),),
    )


def chaos_region_spec(building_blocks_per_az: int, nodes_per_bb: int) -> TopologySpec:
    """The chaos scenario's region: two AZs of uniform blocks ``az1-bb0``…"""
    return TopologySpec(
        region_id="chaos-lab",
        datacenters=tuple(
            _uniform_datacenter(
                az, f"az{az}-", building_blocks_per_az, nodes_per_bb
            )
            for az in (1, 2)
        ),
    )
