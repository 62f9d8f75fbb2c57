"""Differential checks of datagen's grid path against the per-VM loops.

``_accumulate_demand`` evaluates demand a block of VMs at a time
(``waveform.evaluate_windows``), ``_emit_node_metrics`` resolves nodes
in node-vector steps and
``_emit_nova_gauges`` folds each building block's (days × VMs) matrices.
The references below are the loops those paths replaced: one
``VMDemand.evaluate`` per VM, one ``HostCpuModel`` per node, one array add
per resident.  Every output must match them bit for bit (accumulators,
stored series, per-VM averages, compared as ``uint64`` views), and every
generator must end where the references leave it.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.datagen.generator as generator
import repro.workloads.waveform as waveform
from repro.datagen import GeneratorConfig
from repro.datagen.config import PAPER_WINDOW_START
from repro.datagen.population import VMRecord
from repro.infrastructure.flavors import Flavor, default_catalog
from repro.infrastructure.topology import build_region, paper_region_spec
from repro.simulation.hostsched import HostCpuModel
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries
from repro.workloads import patterns
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES

_DAY = 86_400.0
_CATALOG = default_catalog()
_FLAVORS = tuple(f for f in _CATALOG if f.family == "general")


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


# -- references: the per-VM and per-node loops ---------------------------------


class _RefAccumulator:
    def __init__(self, n: int) -> None:
        self.cpu_cores = np.zeros(n)
        self.memory_mb = np.zeros(n)
        self.net_tx = np.zeros(n)
        self.net_rx = np.zeros(n)
        self.disk_gb = np.zeros(n)


def _ref_resize_scaling(record, window_grid, snapshot) -> None:
    for when, old_flavor, new_flavor in record.resizes:
        split = int(np.searchsorted(window_grid, when, side="left"))
        if split >= len(window_grid):
            continue
        cpu_ratio = new_flavor.vcpus / old_flavor.vcpus
        mem_ratio = new_flavor.ram_mb / old_flavor.ram_mb
        snapshot.cpu_cores[split:] *= cpu_ratio
        snapshot.memory_mb[split:] *= mem_ratio
        snapshot.network_tx_kbps[split:] *= cpu_ratio
        snapshot.network_rx_kbps[split:] *= cpu_ratio


def _ref_node_segments(record, window_grid):
    if record.node_id is None:
        return []
    if not record.migrations:
        return [(record.node_id, 0, len(window_grid))]
    segments = []
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


def reference_accumulate_demand(placed, nodes, grid, config, store):
    """One ``VMDemand.evaluate`` per VM over its own window."""
    acc = {node.node_id: _RefAccumulator(len(grid)) for node in nodes}
    stored_series = 0
    for record in placed:
        start = max(record.created_at, grid[0])
        end = record.deleted_or_inf
        i0 = int(np.searchsorted(grid, start, side="left"))
        i1 = int(np.searchsorted(grid, end, side="left"))
        if i1 <= i0:
            probe = np.linspace(start, min(end, config.window_end), 8)
            snapshot = record.demand.evaluate(probe)
            record.demand_cpu_avg = float(np.mean(snapshot.cpu_ratio))
            record.demand_mem_avg = float(np.mean(snapshot.memory_ratio))
            continue
        window_grid = grid[i0:i1]
        snapshot = record.demand.evaluate(window_grid)
        record.demand_cpu_avg = float(np.mean(snapshot.cpu_ratio))
        record.demand_mem_avg = float(np.mean(snapshot.memory_ratio))
        _ref_resize_scaling(record, window_grid, snapshot)
        for node_id, seg0, seg1 in _ref_node_segments(record, window_grid):
            node_acc = acc.get(node_id)
            if node_acc is None:
                continue
            sl_local = slice(seg0, seg1)
            sl_global = slice(i0 + seg0, i0 + seg1)
            node_acc.cpu_cores[sl_global] += snapshot.cpu_cores[sl_local]
            node_acc.memory_mb[sl_global] += snapshot.memory_mb[sl_local]
            node_acc.net_tx[sl_global] += snapshot.network_tx_kbps[sl_local]
            node_acc.net_rx[sl_global] += snapshot.network_rx_kbps[sl_local]
            node_acc.disk_gb[sl_global] += snapshot.disk_gb[sl_local]
        if stored_series < config.vm_series_limit:
            labels = {"virtualmachine": record.vm_id, "hostsystem": record.node_id or ""}
            store.append_series(
                "vrops_virtualmachine_cpu_usage_ratio",
                labels,
                TimeSeries(window_grid, snapshot.cpu_ratio),
            )
            store.append_series(
                "vrops_virtualmachine_memory_consumed_ratio",
                labels,
                TimeSeries(window_grid, snapshot.memory_ratio),
            )
            stored_series += 1
    return acc


def _ref_node_labels(node):
    return {
        "hostsystem": node.node_id,
        "building_block": node.building_block,
        "datacenter": node.datacenter,
        "availability_zone": node.az,
    }


def reference_emit_node_metrics(nodes, acc, grid, hotspots, store, config, rng):
    """One ``HostCpuModel`` and one disk roll per node, in node order."""
    incident_node = max(hotspots, key=lambda n: hotspots[n][1]) if hotspots else None
    incident_mask = (grid >= grid[0] + 86_400) & (grid < grid[0] + 2 * 86_400)
    for node in nodes:
        a = acc[node.node_id]
        model = HostCpuModel(node.physical.vcpus, efficiency=0.97)
        multiplier, offset = hotspots.get(node.node_id, (1.0, 0.0))
        demand = a.cpu_cores * multiplier + offset * model.usable_cores
        if node.node_id == incident_node:
            demand = demand * np.where(incident_mask, 2.0, 1.0)
        used_frac, ready_ms, contention = model.resolve_series(
            demand, config.sampling_seconds
        )
        used_frac = np.clip(used_frac + 0.02, 0.0, 1.0)
        mem_frac = np.clip(a.memory_mb / node.physical.memory_mb + 0.04, 0.0, 1.0)
        nic_kbps = node.physical.network_gbps * 1e6
        tx = np.clip(a.net_tx, 0.0, nic_kbps)
        rx = np.clip(a.net_rx, 0.0, nic_kbps)
        roll = rng.random()
        if roll < 0.15:
            base_fraction = rng.uniform(0.0, 0.045)
        elif roll < 0.22:
            base_fraction = rng.uniform(0.32, 0.60)
        else:
            base_fraction = rng.uniform(0.11, 0.27)
        disk_gb = np.clip(
            0.08 * a.disk_gb + base_fraction * node.physical.disk_gb,
            0.0,
            node.physical.disk_gb,
        )
        labels = _ref_node_labels(node)
        for metric, values in (
            ("vrops_hostsystem_cpu_core_utilization_percentage", 100.0 * used_frac),
            ("vrops_hostsystem_cpu_contention_percentage", 100.0 * contention),
            ("vrops_hostsystem_cpu_ready_milliseconds", ready_ms),
            ("vrops_hostsystem_memory_usage_percentage", 100.0 * mem_frac),
            ("vrops_hostsystem_network_bytes_tx_kbps", tx),
            ("vrops_hostsystem_network_bytes_rx_kbps", rx),
            ("vrops_hostsystem_diskspace_usage_gigabytes", disk_gb),
        ):
            store.append_series(metric, labels, TimeSeries(grid, values))


def reference_emit_nova_gauges(region, placed, store, config):
    """One array add per resident VM, in record order."""
    days = np.arange(config.window_start, config.window_end, 86_400.0)
    by_bb = {}
    for record in placed:
        if record.bb_id is not None:
            by_bb.setdefault(record.bb_id, []).append(record)
    total_alive = np.zeros(len(days))
    for bb in region.iter_building_blocks():
        residents = by_bb.get(bb.bb_id, [])
        allocatable = bb.overcommit.allocatable(bb.physical())
        vcpus_used = np.zeros(len(days))
        mem_used = np.zeros(len(days))
        for record in residents:
            alive = (np.asarray(days) >= record.created_at) & (
                np.asarray(days) < record.deleted_or_inf
            )
            vcpus = np.full(len(days), float(record.flavor.vcpus))
            mem = np.full(len(days), float(record.flavor.ram_mb))
            for when, _old, new_flavor in record.resizes:
                after = np.asarray(days) >= when
                vcpus[after] = new_flavor.vcpus
                mem[after] = new_flavor.ram_mb
            vcpus_used += alive * vcpus
            mem_used += alive * mem
            total_alive += alive
        labels = {
            "compute_host": bb.bb_id,
            "datacenter": bb.datacenter,
            "availability_zone": bb.az,
        }
        store.append_series(
            "openstack_compute_nodes_vcpus_gauge",
            labels,
            TimeSeries(days, np.full(len(days), allocatable.vcpus)),
        )
        store.append_series(
            "openstack_compute_nodes_vcpus_used_gauge", labels, TimeSeries(days, vcpus_used)
        )
        store.append_series(
            "openstack_compute_nodes_memory_mb_gauge",
            labels,
            TimeSeries(days, np.full(len(days), allocatable.memory_mb)),
        )
        store.append_series(
            "openstack_compute_nodes_memory_mb_used_gauge", labels, TimeSeries(days, mem_used)
        )
    store.append_series(
        "openstack_compute_instances_total",
        {"region": region.region_id},
        TimeSeries(days, total_alive),
    )


def _assert_frames_equal(got, want) -> None:
    assert got.names == want.names
    for name in got.names:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        if a.dtype.kind == "f":
            assert np.array_equal(_bits(a), _bits(b)), name
        else:
            assert np.array_equal(a, b), name


def _assert_accumulators_equal(new_acc, ref_acc, node_ids) -> None:
    for node_id in node_ids:
        k = new_acc.row[node_id]
        for name in ("cpu_cores", "memory_mb", "net_tx", "net_rx", "disk_gb"):
            got = getattr(new_acc, name)[k]
            want = getattr(ref_acc[node_id], name)
            assert np.array_equal(_bits(got), _bits(want)), (node_id, name)


# -- whole datasets -------------------------------------------------------------


def _generate(config: GeneratorConfig, reference: bool):
    """``generate_dataset`` with the grid path (new or reference),
    capturing the accumulators and the generator state after the last
    draw (the node metrics' disk rolls)."""
    captured = {}
    accumulate = reference_accumulate_demand if reference else generator._accumulate_demand
    emit_nodes = reference_emit_node_metrics if reference else generator._emit_node_metrics
    emit_nova = reference_emit_nova_gauges if reference else generator._emit_nova_gauges

    def accumulate_and_keep(*args):
        captured["acc"] = accumulate(*args)
        return captured["acc"]

    def emit_nodes_and_keep(nodes, acc, grid, hotspots, store, config, rng):
        emit_nodes(nodes, acc, grid, hotspots, store, config, rng)
        captured["nodes"] = [node.node_id for node in nodes]
        captured["rng"] = rng.bit_generator.state

    with (
        patch.object(generator, "_accumulate_demand", accumulate_and_keep),
        patch.object(generator, "_emit_node_metrics", emit_nodes_and_keep),
        patch.object(generator, "_emit_nova_gauges", emit_nova),
    ):
        dataset = generator.generate_dataset(config)
    return dataset, captured


@settings(max_examples=6, deadline=None)
@given(
    days=st.integers(min_value=1, max_value=9),
    sampling=st.sampled_from([900, 3600, 5400, 7200]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    series_limit=st.sampled_from([0, 3, 500]),
    chunk=st.sampled_from([1, 5, 64]),
)
def test_generated_dataset_equals_reference(days, sampling, seed, series_limit, chunk):
    config = GeneratorConfig(
        scale=0.02,
        days=days,
        sampling_seconds=sampling,
        seed=seed,
        vms_per_node=6.0,
        churn_fraction=0.5,
        vm_series_limit=series_limit,
    )
    with patch.object(waveform, "_GRID_BLOCK", chunk):
        new, new_cap = _generate(config, reference=False)
    ref, ref_cap = _generate(config, reference=True)
    assert new.store.content_fingerprint() == ref.store.content_fingerprint()
    _assert_accumulators_equal(new_cap["acc"], ref_cap["acc"], ref_cap["nodes"])
    # Float columns (the per-VM averages among them) compare as bits.
    _assert_frames_equal(new.vms, ref.vms)
    _assert_frames_equal(new.events, ref.events)
    assert new_cap["rng"] == ref_cap["rng"]


# -- hand-built records ---------------------------------------------------------

_GRID_START = PAPER_WINDOW_START
#: Every profile's cpu shape, plus a ramp (no built-in profile ramps cpu).
_PROFILE_CHOICES = (*PROFILES, "ramp")
#: How a record departs from its profile's demand model.
_VARIANTS = (
    "profile",
    "profile",
    "profile",
    "closure",
    "float32_closure",
    "foreign_noise",
    "foreign_bursty",
    "noise_free",
    "nested",
)
_NODES = [SimpleNamespace(node_id=f"n{i}") for i in range(3)]
#: Node ids a record may run on: the three nodes, one unknown id, none.
_HOSTS = ("n0", "n1", "n2", "elsewhere", None)


def _handwritten(rng):
    """An opaque cpu closure (no ``basis``) that draws from the shared
    generator."""

    def pattern(ts):
        return 0.4 + 0.2 * rng.standard_normal(len(ts))

    return pattern


def _demand(model, rng, other, variant, profile_name, flavor):
    if profile_name == "ramp":
        profile = dataclasses.replace(PROFILES["general"], cpu_pattern_kind="ramp")
    else:
        profile = PROFILES[profile_name]
    demand = model.demand_for(flavor, profile)
    if variant == "closure":
        demand = dataclasses.replace(demand, cpu_pattern=_handwritten(rng))
    elif variant == "float32_closure":
        closure = _handwritten(rng)
        demand = dataclasses.replace(
            demand, cpu_pattern=lambda ts: closure(ts).astype(np.float32)
        )
    elif variant == "foreign_noise":
        demand = dataclasses.replace(
            demand, mem_pattern=patterns.with_noise(patterns.constant(0.5), 0.02, other)
        )
    elif variant == "foreign_bursty":
        bursty = patterns.bursty(0.1, 0.9, 0.3, other, correlation=3)
        demand = dataclasses.replace(
            demand, cpu_pattern=patterns.with_noise(bursty, 0.03, rng)
        )
    elif variant == "noise_free":
        demand = dataclasses.replace(demand, mem_pattern=demand.mem_pattern.inner)
    elif variant == "nested":
        inner = patterns.with_noise(patterns.diurnal(0.2, 0.8), 0.05, rng)
        product = patterns.composite([inner, patterns.weekly(1.0, 0.6)], mode="product")
        demand = dataclasses.replace(demand, cpu_pattern=patterns.with_noise(product, 0.03, rng))
    return demand


def _world(seed, entries, days):
    """``(rng, other, records)``: equal seeds give equal worlds."""
    rng = np.random.default_rng(seed)
    other = np.random.default_rng(seed + 1)
    model = DemandModel(rng)
    records = []
    span = days * _DAY
    for i, entry in enumerate(entries):
        variant, profile, flavor_index, start, life, host, moves, resized = entry
        flavor = _FLAVORS[flavor_index % len(_FLAVORS)]
        created = _GRID_START + start * span
        deleted = None if life is None else created + life
        record = VMRecord(
            vm_id=f"vm-{i:04d}",
            flavor=flavor,
            profile_name=profile,
            tenant="t",
            created_at=created,
            deleted_at=deleted,
            demand=_demand(model, rng, other, variant, profile, flavor),
            node_id=host,
        )
        end = min(record.deleted_or_inf, _GRID_START + span)
        alive_from = max(created, _GRID_START)
        current = host
        for frac, target in moves:
            if host is None or end <= alive_from:
                break
            record.migrations.append((alive_from + frac * (end - alive_from), current, target))
            current = target
        if resized is not None and end > alive_from:
            bigger = _FLAVORS[(flavor_index + 1) % len(_FLAVORS)]
            record.resizes.append((alive_from + resized * (end - alive_from), flavor, bigger))
        records.append(record)
    return rng, other, records


_entry = st.tuples(
    st.sampled_from(_VARIANTS),
    st.sampled_from(_PROFILE_CHOICES),
    st.integers(min_value=0, max_value=100),
    # Window start as a fraction of the grid span: before it, on it, inside.
    st.sampled_from([-0.5, 0.0, 0.25, 0.5]) | st.floats(min_value=-0.3, max_value=1.0),
    # Lifetime: none, shorter than one sample, or days.
    st.none()
    | st.sampled_from([1.0, 600.0, 3 * _DAY])
    | st.floats(min_value=1.0, max_value=4 * _DAY),
    st.sampled_from(_HOSTS),
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(_HOSTS[:4])),
        max_size=2,
    ),
    st.none() | st.floats(min_value=0.0, max_value=1.0),
)


def _accumulate_both(seed, entries, days, sampling, series_limit, chunk):
    config = GeneratorConfig(
        days=days, sampling_seconds=sampling, vm_series_limit=series_limit
    )
    grid = config.window_start + config.sampling_seconds * np.arange(
        int(config.days * 86_400 / config.sampling_seconds)
    )
    rng, other, records = _world(seed, entries, days)
    store = MetricStore()
    with patch.object(waveform, "_GRID_BLOCK", chunk):
        acc = generator._accumulate_demand(records, _NODES, grid, config, store)
    ref_rng, ref_other, ref_records = _world(seed, entries, days)
    ref_store = MetricStore()
    ref_acc = reference_accumulate_demand(ref_records, _NODES, grid, config, ref_store)

    _assert_accumulators_equal(acc, ref_acc, [n.node_id for n in _NODES])
    assert store.content_fingerprint() == ref_store.content_fingerprint()
    for got, want in zip(records, ref_records):
        assert _bits(got.demand_cpu_avg) == _bits(want.demand_cpu_avg), got.vm_id
        assert _bits(got.demand_mem_avg) == _bits(want.demand_mem_avg), got.vm_id
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert other.bit_generator.state == ref_other.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    entries=st.lists(_entry, min_size=1, max_size=14),
    days=st.integers(min_value=1, max_value=9),
    sampling=st.sampled_from([900, 3600, 5400]),
    series_limit=st.sampled_from([0, 2, 100]),
    chunk=st.sampled_from([1, 2, 3, 64]),
)
def test_hand_built_records_equal_reference(seed, entries, days, sampling, series_limit, chunk):
    _accumulate_both(seed, entries, days, sampling, series_limit, chunk)


def test_bursty_vms_at_chunk_boundaries():
    """Bursty VMs straddle block edges, between full-window diurnal VMs,
    with a late-starting ramp and an opaque closure in mid-block."""
    chunk = waveform._GRID_BLOCK
    n = 2 * chunk + 3
    entries = []
    for i in range(n):
        entry = ["profile", "hana_db", i, -0.5, None, _HOSTS[i % 3], [], None]
        if i in (chunk - 1, chunk, 2 * chunk - 1, 2 * chunk):
            entry[1] = "cicd"
        if i in (5, chunk + 5):
            entry[1], entry[3] = "ramp", 0.4
        if i == chunk // 2:
            entry[0] = "closure"
        entries.append(tuple(entry))
    _accumulate_both(11, entries, days=8, sampling=1800, series_limit=4, chunk=chunk)


# -- Nova gauges ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=0, max_value=60),
    days=st.integers(min_value=1, max_value=9),
)
def test_nova_gauges_equal_reference_with_fractional_flavors(seed, n, days):
    """Fractional memory sizes make the sums order-dependent: the gauges
    must be the per-resident left fold."""
    region = build_region(paper_region_spec(scale=0.02))
    bbs = [bb.bb_id for bb in region.iter_building_blocks()][:3]
    config = GeneratorConfig(days=days)
    rng = np.random.default_rng(seed)
    flavors = [
        Flavor(f"frac-{k}", vcpus=int(rng.integers(1, 9)), ram_gib=float(rng.uniform(0.1, 7.3)))
        for k in range(6)
    ]
    placed = []
    span = days * _DAY
    for i in range(n):
        created = config.window_start + float(rng.uniform(-0.5, 1.0)) * span
        deleted = created + float(rng.uniform(0.1, 1.5)) * span if rng.random() < 0.5 else None
        flavor = flavors[int(rng.integers(0, len(flavors)))]
        record = VMRecord(
            vm_id=f"vm-{i}",
            flavor=flavor,
            profile_name="general",
            tenant="t",
            created_at=created,
            deleted_at=deleted,
            demand=None,
            bb_id=bbs[int(rng.integers(0, len(bbs)))] if rng.random() < 0.95 else None,
        )
        if rng.random() < 0.3:
            when = config.window_start + float(rng.uniform(0.0, 1.0)) * span
            record.resizes.append((when, flavor, flavors[int(rng.integers(0, len(flavors)))]))
        placed.append(record)
    store, ref_store = MetricStore(), MetricStore()
    generator._emit_nova_gauges(region, placed, store, config)
    reference_emit_nova_gauges(region, placed, ref_store, config)
    assert store.content_fingerprint() == ref_store.content_fingerprint()
