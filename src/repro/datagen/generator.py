"""End-to-end dataset generation.

Pipeline: build the regional topology → sample the VM population → place it
(pack-vs-spread per building block policy, §3.2) → sprinkle migrations →
evaluate per-VM demand on the sampling grid → resolve node-level CPU through
the host scheduler model (ready time, contention) → emit the Table 4 metric
catalogue into a :class:`~repro.telemetry.store.MetricStore` → assemble a
:class:`~repro.core.dataset.SAPCloudDataset`.

The grid path runs as array ops, with every output equal bit for bit to
evaluating one VM and one node at a time:

- demand is evaluated by
  :func:`~repro.workloads.waveform.evaluate_windows` in blocks of VMs
  taken in record order, drawing each VM's randomness in the order its
  pattern closures would, so the shared generator ends where the per-VM
  loop leaves it.  Averages, resize scaling and the adds into the node
  accumulators stay per VM, in order;
- node metrics resolve :data:`_CHUNK_NODES` nodes per (nodes × grid)
  step, after the per-node disk rolls are drawn in node order;
- Nova gauges fold each building block's (days × VMs) matrices along
  the VM axis in record order.

Calibration knobs and their paper targets are documented inline and in
DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import SAPCloudDataset
from repro.datagen.config import GeneratorConfig
from repro.datagen.population import VMRecord, sample_population
from repro.frame import Frame
from repro.infrastructure.capacity import Capacity
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode, Region
from repro.infrastructure.topology import build_region, paper_region_spec
from repro.infrastructure.vm import VM
from repro.sampling import categorical_cdf, draw
from repro.simulation.hostsched import HostCpuModel
from repro.telemetry.exporters import NODE_METRICS, node_labels
from repro.telemetry.store import MetricStore
from repro.workloads.waveform import evaluate_windows

_KBPS_PER_GBPS = 1e6  # 1 Gbit/s = 1e6 kbit/s


def generate_dataset(config: GeneratorConfig | None = None) -> SAPCloudDataset:
    """Generate a calibrated synthetic regional dataset."""
    config = config or GeneratorConfig()
    rng = np.random.default_rng(config.seed)

    region = build_region(paper_region_spec(scale=config.scale))
    nodes = list(region.iter_nodes())
    n_vms = max(10, int(round(len(nodes) * config.vms_per_node)))
    records = sample_population(
        n_initial=n_vms,
        window_start=config.window_start,
        window_end=config.window_end,
        rng=rng,
        churn_fraction=config.churn_fraction,
    )

    placed, unplaced = _place_population(region, records, rng)
    _assign_migrations(region, placed, config, rng)
    _assign_resizes(placed, config, rng)

    grid = config.window_start + config.sampling_seconds * np.arange(
        int(config.days * 86_400 / config.sampling_seconds)
    )
    store = MetricStore()
    node_acc = _accumulate_demand(placed, nodes, grid, config, store)
    hotspots = _select_hotspots(region, rng, config)
    _emit_node_metrics(nodes, node_acc, grid, hotspots, store, config, rng)
    _emit_nova_gauges(region, placed, store, config)

    dataset = SAPCloudDataset(
        nodes=_nodes_frame(nodes, hotspots, region),
        vms=_vms_frame(placed, config),
        events=_events_frame(placed, config),
        store=store,
        meta={
            "generator": "repro.datagen",
            "seed": config.seed,
            "scale": config.scale,
            "window_start": config.window_start,
            "window_end": config.window_end,
            "sampling_seconds": config.sampling_seconds,
            "unplaced_vms": len(unplaced),
            "hotspot_nodes": sorted(hotspots),
        },
    )
    return dataset


# -- placement -------------------------------------------------------------------


def _place_population(
    region: Region, records: list[VMRecord], rng: np.random.Generator
) -> tuple[list[VMRecord], list[VMRecord]]:
    """Assign every VM a building block and node.

    General-purpose BBs get independently drawn CPU fill targets — the
    source of the strong inter-node imbalance of Figs 5–6.  HANA BBs are
    bin-packed on memory (§3.2).  Within a BB, "spread" picks the least
    CPU-allocated node and "pack" the most memory-allocated node that fits.
    """
    bbs = list(region.iter_building_blocks())
    general_bbs = [bb for bb in bbs if not bb.aggregate_class.startswith(("hana", "gpu"))]
    hana_bbs = [bb for bb in bbs if bb.aggregate_class.startswith("hana")]
    hana_xl_bbs = [bb for bb in hana_bbs if bb.aggregate_class == "hana_xl"]
    if not general_bbs or not hana_bbs:
        raise ValueError("topology must contain general and HANA building blocks")

    # Per-BB CPU fill targets: a wide Beta keeps many BBs cool and a few
    # warm, so the per-node free-CPU heatmap spans ~10%..>90% (Fig 5).
    # The cap at ~0.72 of allocatable vCPUs keeps organic (non-hotspot)
    # contention rare, matching Fig 9's low fleet mean/p95.
    fill_target = {
        bb.bb_id: float(rng.beta(1.1, 1.4)) * 0.42 + 0.04 for bb in general_bbs
    }
    for bb in hana_bbs:
        fill_target[bb.bb_id] = float(rng.uniform(0.75, 0.97))

    tally = _AllocationTally(bbs)
    plain_hana = [bb for bb in hana_bbs if bb.aggregate_class == "hana"]
    placed: list[VMRecord] = []
    unplaced: list[VMRecord] = []
    for record in records:
        flavor = record.flavor
        if flavor.spec("aggregate_class") == "hana_xl":
            candidates = hana_xl_bbs or hana_bbs
        elif flavor.family == "hana":
            candidates = plain_hana or hana_bbs
        else:
            candidates = general_bbs
        bb = _pick_building_block(candidates, flavor, fill_target, tally, rng)
        node = tally.pick_node(bb, flavor) if bb is not None else None
        if bb is None or node is None:
            # Fall back to anywhere legal with room.
            for fallback in candidates:
                node = tally.pick_node(fallback, flavor)
                if node is not None:
                    bb = fallback
                    break
        if bb is None or node is None:
            unplaced.append(record)
            continue
        vm = VM(
            vm_id=record.vm_id,
            flavor=flavor,
            tenant=record.tenant,
            created_at=record.created_at,
        )
        node.add_vm(vm)
        tally.book(bb, node, flavor)
        record.node_id = node.node_id
        record.bb_id = bb.bb_id
        record.dc_id = bb.datacenter
        record.az = bb.az
        placed.append(record)
    return placed, unplaced


class _AllocationTally:
    """Incremental allocation bookkeeping for the placement loop.

    Recomputing ``bb.allocated()`` scans every resident VM and is quadratic
    over a 48k-VM placement run; this keeps running per-BB and per-node
    totals instead.
    """

    def __init__(self, bbs: list[BuildingBlock]) -> None:
        self.bb_vcpus: dict[str, float] = {}
        self.bb_mem: dict[str, float] = {}
        self.node_vcpus: dict[str, float] = {}
        self.node_mem: dict[str, float] = {}
        self.node_disk: dict[str, float] = {}
        self._node_limits: dict[str, tuple[float, float, float]] = {}
        self.bb_allocatable: dict[str, Capacity] = {}
        for bb in bbs:
            self.bb_vcpus[bb.bb_id] = 0.0
            self.bb_mem[bb.bb_id] = 0.0
            self.bb_allocatable[bb.bb_id] = bb.overcommit.allocatable(bb.physical())
            for node in bb.iter_nodes():
                self.node_vcpus[node.node_id] = 0.0
                self.node_mem[node.node_id] = 0.0
                self.node_disk[node.node_id] = 0.0
                allocatable = bb.overcommit.allocatable(node.physical)
                self._node_limits[node.node_id] = (
                    allocatable.vcpus,
                    allocatable.memory_mb,
                    allocatable.disk_gb,
                )

    def fits(self, node: ComputeNode, flavor) -> bool:
        limit_v, limit_m, limit_d = self._node_limits[node.node_id]
        return (
            self.node_vcpus[node.node_id] + flavor.vcpus <= limit_v
            and self.node_mem[node.node_id] + flavor.ram_mb <= limit_m
            and self.node_disk[node.node_id] + flavor.disk_gb <= limit_d
        )

    def pick_node(self, bb: BuildingBlock, flavor) -> ComputeNode | None:
        """Node choice inside a BB honouring the BB policy."""
        fitting = [n for n in bb.iter_nodes() if self.fits(n, flavor)]
        if not fitting:
            return None
        if bb.policy == "pack":
            # Most memory-allocated first: fill nodes before opening new
            # ones.
            return max(
                fitting,
                key=lambda n: (
                    self.node_mem[n.node_id] / n.physical.memory_mb,
                    n.node_id,
                ),
            )
        return min(
            fitting,
            key=lambda n: (self.node_vcpus[n.node_id] / n.physical.vcpus, n.node_id),
        )

    def book(self, bb: BuildingBlock, node: ComputeNode, flavor) -> None:
        self.bb_vcpus[bb.bb_id] += flavor.vcpus
        self.bb_mem[bb.bb_id] += flavor.ram_mb
        self.node_vcpus[node.node_id] += flavor.vcpus
        self.node_mem[node.node_id] += flavor.ram_mb
        self.node_disk[node.node_id] += flavor.disk_gb


def _pick_building_block(
    candidates: list[BuildingBlock],
    flavor,
    fill_target: dict[str, float],
    tally: "_AllocationTally",
    rng: np.random.Generator,
) -> BuildingBlock | None:
    """Weighted BB choice by remaining room below the BB's fill target."""
    weights = []
    for bb in candidates:
        allocatable = tally.bb_allocatable[bb.bb_id]
        if flavor.family == "hana":
            room = (
                fill_target[bb.bb_id] * allocatable.memory_mb
                - tally.bb_mem[bb.bb_id]
            )
        else:
            room = (
                fill_target[bb.bb_id] * allocatable.vcpus
                - tally.bb_vcpus[bb.bb_id]
            )
        weights.append(max(0.0, room))
    total = sum(weights)
    if total <= 0:
        # Every BB is at target; pick by absolute free capacity instead.
        weights = []
        for bb in candidates:
            allocatable = tally.bb_allocatable[bb.bb_id]
            free_vcpus = allocatable.vcpus - tally.bb_vcpus[bb.bb_id]
            free_mem = allocatable.memory_mb - tally.bb_mem[bb.bb_id]
            weights.append(max(0.0, free_vcpus + free_mem / 1024.0))
        total = sum(weights)
        if total <= 0:
            return None
    return candidates[draw(categorical_cdf(np.asarray(weights) / total), rng)]


def _assign_migrations(
    region: Region,
    placed: list[VMRecord],
    config: GeneratorConfig,
    rng: np.random.Generator,
) -> None:
    """Give ~1% of long-running VMs one intra-BB migration in the window.

    These cause the abrupt purple→yellow memory shifts of Fig 10 and feed
    the dataset's migration events.
    """
    bb_nodes = {
        bb.bb_id: list(bb.nodes) for bb in region.iter_building_blocks()
    }
    for record in placed:
        if record.node_id is None or record.bb_id is None:
            continue
        ends = record.deleted_at if record.deleted_at is not None else config.window_end
        alive_span = ends - max(record.created_at, config.window_start)
        if alive_span < 2 * 86_400 or rng.random() > 0.01:
            continue
        peers = [n for n in bb_nodes[record.bb_id] if n != record.node_id]
        if not peers:
            continue
        when = float(
            rng.uniform(
                max(record.created_at, config.window_start) + 3_600, ends - 3_600
            )
        )
        target = peers[int(rng.integers(0, len(peers)))]
        record.migrations.append((when, record.node_id, target))


def _assign_resizes(
    placed: list[VMRecord],
    config: GeneratorConfig,
    rng: np.random.Generator,
) -> None:
    """Give ~0.5% of long-running general VMs one in-window resize.

    Resizes are among the scheduling-relevant events the dataset records
    (§4).  The VM steps to the next-larger same-family flavor; its demand
    scales proportionally from the resize instant.
    """
    from repro.infrastructure.flavors import default_catalog

    catalog = default_catalog()
    by_family: dict[str, list] = {}
    for flavor in catalog:
        by_family.setdefault(flavor.family, []).append(flavor)
    for flavors in by_family.values():
        flavors.sort(key=lambda f: (f.vcpus, f.ram_gib))

    for record in placed:
        if record.node_id is None or rng.random() > 0.005:
            continue
        ends = record.deleted_at if record.deleted_at is not None else config.window_end
        alive_span = ends - max(record.created_at, config.window_start)
        if alive_span < 2 * 86_400:
            continue
        family = by_family.get(record.flavor.family, [])
        bigger = [
            f
            for f in family
            if f.vcpus > record.flavor.vcpus
            and f.spec("aggregate_class") == record.flavor.spec("aggregate_class")
        ]
        if not bigger:
            continue
        when = float(
            rng.uniform(
                max(record.created_at, config.window_start) + 3_600, ends - 3_600
            )
        )
        record.resizes.append((when, record.flavor, bigger[0]))


def _select_hotspots(
    region: Region, rng: np.random.Generator, config: GeneratorConfig
) -> dict[str, tuple[float, float]]:
    """Pick hotspot nodes and their demand inflation.

    Returns node_id -> (multiplier, offset_fraction): hot demand is
    ``demand * multiplier + offset_fraction * cores``.  The additive part
    keeps the overload *persistent* through the day — Fig 9's contention
    shows no weekday/weekend effect — while the diurnal base provides the
    10–30% band with peaks beyond 40% on the hottest nodes, and the fleet
    mean/p95 stay below 5% because only a few nodes are inflated.
    """
    general_nodes = [
        n
        for bb in region.iter_building_blocks()
        if not bb.aggregate_class.startswith(("hana", "gpu"))
        for n in bb.iter_nodes()
        if n.vm_count > 0
    ]
    if not general_nodes:
        return {}
    # Prefer the busiest nodes: contention needs resident demand to amplify.
    general_nodes.sort(key=lambda n: -n.allocated().vcpus)
    total_nodes = region.node_count
    count = max(2, int(round(len(general_nodes) * config.hotspot_fraction)))
    # Keep hotspots below ~4% of the fleet so the cross-node p95 stays low
    # while the maxima spike (Fig 9's mean/p95 < 5% with >40% outliers).
    count = min(count, max(1, int(total_nodes * 0.04)))
    chosen = general_nodes[: min(count, len(general_nodes))]
    inflation = {}
    for i, node in enumerate(chosen):
        # The first few run hottest (>40% contention outliers); the rest
        # land in the persistent 10–30% band.
        if i < max(1, len(chosen) // 4):
            inflation[node.node_id] = (
                float(rng.uniform(1.1, 1.2)),
                float(rng.uniform(0.9, 1.05)),
            )
        else:
            inflation[node.node_id] = (
                float(rng.uniform(1.0, 1.1)),
                float(rng.uniform(0.55, 0.75)),
            )
    return inflation


# -- demand accumulation -------------------------------------------------------

#: Nodes resolved together by :func:`_emit_node_metrics`: each (nodes ×
#: grid) temporary is 184 KB on a 30-day grid at 1800 s sampling.  All
#: nodes at once would hold a dozen of them at 1 MB per 92 nodes, the
#: generation step's peak memory.
_CHUNK_NODES = 16

#: The node accumulator's resources, in axis-1 order: the order of
#: :func:`~repro.workloads.waveform.evaluate_windows`' resource rows.
_RESOURCES = ("cpu_cores", "memory_mb", "net_tx", "net_rx", "disk_gb")


class _NodeAccumulator:
    """Per-node demand accumulated over the sampling grid.

    ``demand`` is a (nodes × resources × grid) array, resources in
    :data:`_RESOURCES` order, and each resource is also an attribute: its
    (nodes × grid) view.  ``row`` maps a node id to its index, in the
    order the nodes were given.
    """

    __slots__ = ("row", "demand", *_RESOURCES)

    def __init__(self, node_ids: list[str], n: int) -> None:
        self.row = {node_id: k for k, node_id in enumerate(node_ids)}
        self.demand = np.zeros((len(node_ids), len(_RESOURCES), n))
        for i, name in enumerate(_RESOURCES):
            setattr(self, name, self.demand[:, i])


def _accumulate_demand(
    placed: list[VMRecord],
    nodes: list[ComputeNode],
    grid: np.ndarray,
    config: GeneratorConfig,
    store: MetricStore,
) -> _NodeAccumulator:
    """Evaluate every VM's demand and add it to its node's accumulators.

    Also fills each record's lifetime-average utilisation ratios (Fig 14)
    and stores full VM-level series for the first ``vm_series_limit`` VMs.
    Demand is evaluated in blocks of VMs
    (:func:`~repro.workloads.waveform.evaluate_windows`); the averages,
    resize scaling and node adds stay per VM, in record order, so every
    node row is the same left fold as one VM at a time.
    """
    acc = _NodeAccumulator([node.node_id for node in nodes], len(grid))
    grid = np.asarray(grid, dtype=float)
    created = np.maximum([r.created_at for r in placed], grid[0])
    i0s = np.searchsorted(grid, created, side="left").tolist()
    i1s = np.searchsorted(grid, [r.deleted_or_inf for r in placed], side="left").tolist()
    windows = []
    for record, i0, i1 in zip(placed, i0s, i1s):
        if i1 > i0:
            windows.append((i0, i1))
        else:
            # Lifetime falls between samples; derive ratios from a probe.
            start = max(record.created_at, grid[0])
            end = min(record.deleted_or_inf, config.window_end)
            windows.append(np.linspace(start, end, 8))
    evaluated = evaluate_windows([r.demand for r in placed], windows, grid)

    stored_series = 0
    for record, i0, i1, (cpu_ratio, mem_ratio, demand) in zip(placed, i0s, i1s, evaluated):
        record.demand_cpu_avg = float(np.mean(cpu_ratio))
        record.demand_mem_avg = float(np.mean(mem_ratio))
        if i1 <= i0:
            continue
        window_grid = grid[i0:i1]
        _apply_resize_scaling(record, window_grid, demand)
        demand = np.asarray(demand)
        for node_id, seg0, seg1 in _node_segments(record, window_grid):
            k = acc.row.get(node_id)
            if k is not None:
                acc.demand[k, :, i0 + seg0 : i0 + seg1] += demand[:, seg0:seg1]

        if stored_series < config.vm_series_limit:
            labels = {"virtualmachine": record.vm_id, "hostsystem": record.node_id or ""}
            store.append_columns(
                "vrops_virtualmachine_cpu_usage_ratio", labels, window_grid, cpu_ratio
            )
            store.append_columns(
                "vrops_virtualmachine_memory_consumed_ratio", labels, window_grid, mem_ratio
            )
            stored_series += 1
    return acc


def _apply_resize_scaling(record: VMRecord, window_grid, demand) -> None:
    """Scale absolute demand (five resource rows, :data:`_RESOURCES`
    order) from each resize instant onward, in place.

    Utilisation *ratios* stay unchanged (the workload keeps the same
    relative intensity against its new allocation); the absolute cores,
    memory, and traffic grow with the flavor.
    """
    for when, old_flavor, new_flavor in record.resizes:
        split = int(np.searchsorted(window_grid, when, side="left"))
        if split >= len(window_grid):
            continue
        cpu_ratio = new_flavor.vcpus / old_flavor.vcpus
        mem_ratio = new_flavor.ram_mb / old_flavor.ram_mb
        for row, ratio in ((0, cpu_ratio), (1, mem_ratio), (2, cpu_ratio), (3, cpu_ratio)):
            demand[row][split:] *= ratio


def _node_segments(
    record: VMRecord, window_grid: np.ndarray
) -> list[tuple[str, int, int]]:
    """Split a VM's alive window into per-node index segments (migrations)."""
    if record.node_id is None:
        return []
    if not record.migrations:
        return [(record.node_id, 0, len(window_grid))]
    segments: list[tuple[str, int, int]] = []
    current = record.migrations[0][1]
    cursor = 0
    for when, _source, target in sorted(record.migrations):
        split = int(np.searchsorted(window_grid, when, side="left"))
        if split > cursor:
            segments.append((current, cursor, split))
        current = target
        cursor = max(cursor, split)
    if cursor < len(window_grid):
        segments.append((current, cursor, len(window_grid)))
    return segments


# -- metric emission -----------------------------------------------------------


def _disk_base_fraction(rng: np.random.Generator) -> float:
    """A node's static local-disk share (images, logs).

    Local storage: VM volumes live on external block storage (Cinder);
    only an ephemeral/cache share (~8%) of VM disk hits the node's local
    disks, on top of this base, calibrated to Fig 13: ~18% of hosts stay
    >90% free and ~7% exceed 30% used.
    """
    roll = rng.random()
    if roll < 0.15:
        return rng.uniform(0.0, 0.045)
    if roll < 0.22:
        return rng.uniform(0.32, 0.60)
    return rng.uniform(0.11, 0.27)


def _emit_node_metrics(
    nodes: list[ComputeNode],
    acc: _NodeAccumulator,
    grid: np.ndarray,
    hotspots: dict[str, tuple[float, float]],
    store: MetricStore,
    config: GeneratorConfig,
    rng: np.random.Generator,
) -> None:
    """Resolve accumulated demand into the vrops_hostsystem_* series.

    The only draws, each node's disk roll, are taken first in node order;
    then nodes are resolved :data:`_CHUNK_NODES` at a time, one row per
    node, and their series appended in node order.
    """
    grid = np.asarray(grid, dtype=float)
    # One "exceptional situation" (Fig 8's ~30-minute outliers early in the
    # window): the hottest node briefly doubles its demand on day 1-2.
    incident_node = (
        max(hotspots, key=lambda n: hotspots[n][1]) if hotspots else None
    )
    incident_mask = (grid >= grid[0] + 86_400) & (grid < grid[0] + 2 * 86_400)
    base_fraction = [_disk_base_fraction(rng) for _ in nodes]

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    for g0 in range(0, len(nodes), _CHUNK_NODES):
        group = nodes[g0 : g0 + _CHUNK_NODES]
        rows = [acc.row[node.node_id] for node in group]
        physical = [node.physical for node in group]
        model = HostCpuModel(column([p.vcpus for p in physical]), efficiency=0.97)
        inflation = [hotspots.get(node.node_id, (1.0, 0.0)) for node in group]
        multiplier = column([m for m, _ in inflation])
        offset = column([o for _, o in inflation])
        demand = acc.cpu_cores[rows] * multiplier + offset * model.usable_cores
        for k, node in enumerate(group):
            if node.node_id == incident_node:
                demand[k] = demand[k] * np.where(incident_mask, 2.0, 1.0)
        used_frac, ready_ms, contention = model.resolve_series(
            demand, config.sampling_seconds
        )
        # Hypervisor overhead floor of ~2% CPU and ~4% memory.
        used_frac = np.clip(used_frac + 0.02, 0.0, 1.0)
        mem_frac = np.clip(
            acc.memory_mb[rows] / column([p.memory_mb for p in physical]) + 0.04, 0.0, 1.0
        )
        nic_kbps = column([p.network_gbps for p in physical]) * _KBPS_PER_GBPS
        tx = np.clip(acc.net_tx[rows], 0.0, nic_kbps)
        rx = np.clip(acc.net_rx[rows], 0.0, nic_kbps)
        local_disk = column([p.disk_gb for p in physical])
        disk_gb = np.clip(
            0.08 * acc.disk_gb[rows] + column(base_fraction[g0 : g0 + len(group)]) * local_disk,
            0.0,
            local_disk,
        )
        columns = (
            100.0 * used_frac,
            100.0 * contention,
            ready_ms,
            100.0 * mem_frac,
            tx,
            rx,
            disk_gb,
        )
        for k, node in enumerate(group):
            labels = node_labels(node)
            for metric, values in zip(NODE_METRICS, columns):
                store.append_columns(metric, labels, grid, values[k])


def _resident_fold(values: np.ndarray) -> np.ndarray:
    """Row sums of a (days × VMs) matrix as a left fold in VM order.

    ``cumsum`` along the contiguous VM axis adds one VM at a time, as the
    per-VM loop did; ``np.sum`` there would be pairwise.
    """
    if values.shape[1] == 0:
        return np.zeros(len(values))
    return np.cumsum(values, axis=1)[:, -1]


def _emit_nova_gauges(
    region: Region,
    placed: list[VMRecord],
    store: MetricStore,
    config: GeneratorConfig,
) -> None:
    """Daily openstack_compute_* gauges per building block + instance total."""
    days = np.arange(config.window_start, config.window_end, 86_400.0)
    by_bb: dict[str, list[VMRecord]] = {}
    for record in placed:
        if record.bb_id is not None:
            by_bb.setdefault(record.bb_id, []).append(record)
    total_alive = np.zeros(len(days))
    for bb in region.iter_building_blocks():
        residents = by_bb.get(bb.bb_id, [])
        allocatable = bb.overcommit.allocatable(bb.physical())
        # (days × residents) matrices, one column per VM in record order.
        alive = (days[:, None] >= np.array([r.created_at for r in residents])) & (
            days[:, None] < np.array([r.deleted_or_inf for r in residents])
        )
        vcpus = np.empty(alive.shape)
        vcpus[:] = np.array([float(r.flavor.vcpus) for r in residents])
        mem = np.empty(alive.shape)
        mem[:] = np.array([float(r.flavor.ram_mb) for r in residents])
        for j, record in enumerate(residents):
            for when, _old, new_flavor in record.resizes:
                after = days >= when
                vcpus[after, j] = new_flavor.vcpus
                mem[after, j] = new_flavor.ram_mb
        vcpus_used = _resident_fold(alive * vcpus)
        mem_used = _resident_fold(alive * mem)
        # Alive counts are exact integers, whatever the order of the adds.
        total_alive += alive.sum(axis=1)
        labels = {
            "compute_host": bb.bb_id,
            "datacenter": bb.datacenter,
            "availability_zone": bb.az,
        }
        store.append_columns(
            "openstack_compute_nodes_vcpus_gauge",
            labels,
            days,
            np.full(len(days), allocatable.vcpus),
        )
        store.append_columns("openstack_compute_nodes_vcpus_used_gauge", labels, days, vcpus_used)
        store.append_columns(
            "openstack_compute_nodes_memory_mb_gauge",
            labels,
            days,
            np.full(len(days), allocatable.memory_mb),
        )
        store.append_columns("openstack_compute_nodes_memory_mb_used_gauge", labels, days, mem_used)
    store.append_columns(
        "openstack_compute_instances_total",
        {"region": region.region_id},
        days,
        total_alive,
    )


# -- output frames --------------------------------------------------------------


def _nodes_frame(
    nodes: list[ComputeNode], hotspots: dict[str, tuple[float, float]], region: Region
) -> Frame:
    bb_policy = {bb.bb_id: bb.policy for bb in region.iter_building_blocks()}
    bb_class = {bb.bb_id: bb.aggregate_class for bb in region.iter_building_blocks()}
    return Frame.from_records(
        [
            {
                "node_id": n.node_id,
                "bb_id": n.building_block,
                "dc_id": n.datacenter,
                "az": n.az,
                "cores": n.physical.vcpus,
                "memory_mb": n.physical.memory_mb,
                "disk_gb": n.physical.disk_gb,
                "nic_gbps": n.physical.network_gbps,
                "policy": bb_policy.get(n.building_block, "spread"),
                "aggregate_class": bb_class.get(n.building_block, ""),
                "hotspot": 1 if n.node_id in hotspots else 0,
            }
            for n in nodes
        ]
    )


def _vms_frame(placed: list[VMRecord], config: GeneratorConfig) -> Frame:
    records = []
    for r in placed:
        lifetime_end = r.deleted_at if r.deleted_at is not None else config.window_end
        records.append(
            {
                "vm_id": r.vm_id,
                "flavor": r.flavor.name,
                "family": r.flavor.family,
                "profile": r.profile_name,
                "vcpus": r.flavor.vcpus,
                "ram_gib": r.flavor.ram_gib,
                "disk_gb": r.flavor.disk_gb,
                "vcpu_class": r.flavor.vcpu_class,
                "ram_class": r.flavor.ram_class,
                "tenant": r.tenant,
                "node_id": r.node_id,
                "bb_id": r.bb_id,
                "dc_id": r.dc_id,
                "az": r.az,
                "created_at": r.created_at,
                "deleted_at": np.nan if r.deleted_at is None else r.deleted_at,
                "lifetime_seconds": lifetime_end - r.created_at,
                "cpu_avg_ratio": getattr(r, "demand_cpu_avg", r.demand.cpu_mean),
                "mem_avg_ratio": getattr(r, "demand_mem_avg", r.demand.mem_mean),
                "migrations": len(r.migrations),
                "resizes": len(r.resizes),
            }
        )
    return Frame.from_records(records)


def _host_at(record: VMRecord, when: float) -> str:
    """The node ``record`` runs on at ``when``: the target of its last
    migration by then, else the node it was placed on."""
    host = record.node_id or ""
    for moved_at, _source, target in sorted(record.migrations):
        if moved_at <= when:
            host = target
    return host


def _events_frame(placed: list[VMRecord], config: GeneratorConfig) -> Frame:
    events = []
    for r in placed:
        if r.created_at >= config.window_start:
            events.append(
                {
                    "time": r.created_at,
                    "event": "create",
                    "vm_id": r.vm_id,
                    "source": "",
                    "target": r.node_id or "",
                }
            )
        for when, source, target in r.migrations:
            events.append(
                {
                    "time": when,
                    "event": "migrate",
                    "vm_id": r.vm_id,
                    "source": source,
                    "target": target,
                }
            )
        for when, old_flavor, new_flavor in r.resizes:
            events.append(
                {
                    "time": when,
                    "event": "resize",
                    "vm_id": r.vm_id,
                    "source": old_flavor.name,
                    "target": new_flavor.name,
                }
            )
        if r.deleted_at is not None and r.deleted_at <= config.window_end:
            events.append(
                {
                    "time": r.deleted_at,
                    "event": "delete",
                    "vm_id": r.vm_id,
                    "source": _host_at(r, r.deleted_at),
                    "target": "",
                }
            )
    events.sort(key=lambda e: e["time"])
    if not events:
        return Frame.empty(["time", "event", "vm_id", "source", "target"])
    return Frame.from_records(events)
