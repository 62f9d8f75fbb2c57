"""Exporter front-ends: translate simulation state into metric samples.

Two exporters feed the paper's monitoring system (§4):

- the **vROps exporter** publishes VMware vRealize Operations data as
  ``vrops_*`` metrics (host CPU/memory/network/storage and VM usage ratios);
- the **MySQL server exporter** over the Nova database publishes
  ``openstack_compute_*`` allocation gauges.

Here each exporter turns a point-in-time snapshot of the simulated
infrastructure into :class:`~repro.telemetry.store.Sample` records with the
exact metric names and label conventions of the public dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.infrastructure.hierarchy import ComputeNode, Region
from repro.telemetry.store import MetricStore, Sample, SeriesHandle, SeriesHandleGroup


@dataclass(frozen=True, slots=True)
class NodeUsage:
    """Measured (not allocated) utilisation of one node at one instant."""

    cpu_used_fraction: float  # 0..1 of physical CPU
    memory_used_fraction: float  # 0..1 of physical memory
    network_tx_kbps: float
    network_rx_kbps: float
    disk_used_gb: float
    cpu_ready_ms: float  # summed vCPU ready time in the sampling window
    cpu_contention_fraction: float  # 0..1


@dataclass(frozen=True, slots=True)
class VMUsage:
    """Measured utilisation ratios of one VM at one instant."""

    cpu_usage_ratio: float  # used / requested CPU, 0..1+
    memory_consumed_ratio: float  # used / requested memory, 0..1+


def node_labels(node: ComputeNode) -> dict[str, str]:
    return {
        "hostsystem": node.node_id,
        "building_block": node.building_block,
        "datacenter": node.datacenter,
        "availability_zone": node.az,
    }


#: Host-level vROps metrics in emission order (the order ``scrape_node``
#: lists them, hence the order their series appear in the store).
NODE_METRICS = (
    "vrops_hostsystem_cpu_core_utilization_percentage",
    "vrops_hostsystem_cpu_contention_percentage",
    "vrops_hostsystem_cpu_ready_milliseconds",
    "vrops_hostsystem_memory_usage_percentage",
    "vrops_hostsystem_network_bytes_tx_kbps",
    "vrops_hostsystem_network_bytes_rx_kbps",
    "vrops_hostsystem_diskspace_usage_gigabytes",
)


#: The :class:`NodeUsage` field behind each :data:`NODE_METRICS` entry,
#: and whether it is a fraction reported as a percentage.
_METRIC_SOURCES = (
    ("cpu_used_fraction", True),
    ("cpu_contention_fraction", True),
    ("cpu_ready_ms", False),
    ("memory_used_fraction", True),
    ("network_tx_kbps", False),
    ("network_rx_kbps", False),
    ("disk_used_gb", False),
)
_USAGE_FIELDS = tuple(f.name for f in fields(NodeUsage))
_METRIC_COLUMNS = [_USAGE_FIELDS.index(name) for name, _ in _METRIC_SOURCES]
_PERCENT_COLUMNS = [i for i, (_, percent) in enumerate(_METRIC_SOURCES) if percent]


class VropsExporter:
    """Emits ``vrops_*`` samples for nodes and VMs.

    :meth:`emit_nodes` is the interned fast path: the metric-name +
    label-tuple → series resolution happens once per node (lazily, at the
    node's first emission, preserving the series creation order of the
    per-sample path), and a whole scrape tick is one grouped append of
    seven samples per node.
    """

    def __init__(self) -> None:
        self._handle_store: MetricStore | None = None
        self._node_handles: dict[str, tuple[SeriesHandle, ...]] = {}
        #: The last tick's node ids and their handles as one group.
        self._group_nodes: list[str] = []
        self._group = SeriesHandleGroup(())

    def emit_nodes(
        self,
        store: MetricStore,
        nodes: list[ComputeNode],
        usage: np.ndarray,
        timestamp: float,
    ) -> int:
        """Append one scrape of ``nodes`` directly into ``store``.

        ``usage`` has one row per node, its :class:`NodeUsage` fields in
        field order; a stale scrape is a row of staleness markers.  Same
        metrics, labels, values and series creation order as
        :meth:`scrape_node` + ``store.ingest`` node by node, with zero
        per-sample objects.  Returns the number of samples appended.
        """
        if store is not self._handle_store:
            self._handle_store = store
            self._node_handles = {}
            self._group_nodes = []
        node_ids = [node.node_id for node in nodes]
        if node_ids != self._group_nodes:
            self._group = SeriesHandleGroup(
                handle for node in nodes for handle in self._handles(store, node)
            )
            self._group_nodes = node_ids
        values = usage[:, _METRIC_COLUMNS]
        values[:, _PERCENT_COLUMNS] *= 100.0
        self._group.append(timestamp, values.ravel().tolist())
        return len(self._group)

    def emit_node(
        self,
        store: MetricStore,
        node: ComputeNode,
        usage: NodeUsage,
        timestamp: float,
    ) -> int:
        """:meth:`emit_nodes` for one node's :class:`NodeUsage`."""
        row = [[getattr(usage, name) for name in _USAGE_FIELDS]]
        return self.emit_nodes(store, [node], np.array(row, dtype=float), timestamp)

    def _handles(self, store: MetricStore, node: ComputeNode) -> tuple[SeriesHandle, ...]:
        """``node``'s seven series handles in :data:`NODE_METRICS` order,
        creating the series at its first scrape."""
        handles = self._node_handles.get(node.node_id)
        if handles is None:
            labels = tuple(sorted(node_labels(node).items()))
            handles = self._node_handles[node.node_id] = tuple(
                store.series_handle(metric, labels) for metric in NODE_METRICS
            )
        return handles

    def scrape_node(
        self, node: ComputeNode, usage: NodeUsage, timestamp: float
    ) -> list[Sample]:
        """All host-level vROps samples for one node at one instant."""
        labels = tuple(sorted(node_labels(node).items()))
        return [
            Sample(
                "vrops_hostsystem_cpu_core_utilization_percentage",
                labels, timestamp, 100.0 * usage.cpu_used_fraction,
            ),
            Sample(
                "vrops_hostsystem_cpu_contention_percentage",
                labels, timestamp, 100.0 * usage.cpu_contention_fraction,
            ),
            Sample(
                "vrops_hostsystem_cpu_ready_milliseconds",
                labels, timestamp, usage.cpu_ready_ms,
            ),
            Sample(
                "vrops_hostsystem_memory_usage_percentage",
                labels, timestamp, 100.0 * usage.memory_used_fraction,
            ),
            Sample(
                "vrops_hostsystem_network_bytes_tx_kbps",
                labels, timestamp, usage.network_tx_kbps,
            ),
            Sample(
                "vrops_hostsystem_network_bytes_rx_kbps",
                labels, timestamp, usage.network_rx_kbps,
            ),
            Sample(
                "vrops_hostsystem_diskspace_usage_gigabytes",
                labels, timestamp, usage.disk_used_gb,
            ),
        ]

    def scrape_vm(
        self, vm_id: str, node: ComputeNode, usage: VMUsage, timestamp: float
    ) -> list[Sample]:
        """VM-level usage-ratio samples."""
        labels = tuple(
            sorted({"virtualmachine": vm_id, "hostsystem": node.node_id}.items())
        )
        return [
            Sample(
                "vrops_virtualmachine_cpu_usage_ratio",
                labels, timestamp, usage.cpu_usage_ratio,
            ),
            Sample(
                "vrops_virtualmachine_memory_consumed_ratio",
                labels, timestamp, usage.memory_consumed_ratio,
            ),
        ]


class NovaExporter:
    """Emits ``openstack_compute_*`` allocation gauges from placement state.

    In the paper these come from the Nova database via the MySQL exporter;
    here they are read off the region's allocation bookkeeping.  Note that
    in the SAP deployment the Nova "compute host" is a whole building block,
    so the gauges are published per BB.

    :meth:`emit_region` is the interned fast path: per-BB labels, series
    handles, and the static allocatable capacities are resolved once (the
    topology does not change mid-run), so each scrape reads only the live
    allocation state.
    """

    def __init__(self) -> None:
        self._handle_store: MetricStore | None = None
        #: (bb, allocatable_vcpus, allocatable_memory_mb, 4 gauge handles)
        self._bb_entries: list[tuple] = []
        self._total_handle: SeriesHandle | None = None

    def emit_region(
        self, store: MetricStore, region: Region, timestamp: float
    ) -> int:
        """Append one region scrape directly into ``store``.

        Identical samples (metrics, labels, values, order) to
        :meth:`scrape_region` + ``store.ingest``; returns the count.
        """
        if store is not self._handle_store or self._total_handle is None:
            self._handle_store = store
            entries: list[tuple] = []
            for bb in region.iter_building_blocks():
                labels = tuple(
                    sorted(
                        {
                            "compute_host": bb.bb_id,
                            "datacenter": bb.datacenter,
                            "availability_zone": bb.az,
                        }.items()
                    )
                )
                allocatable = bb.overcommit.allocatable(bb.physical())
                entries.append(
                    (
                        bb,
                        allocatable.vcpus,
                        allocatable.memory_mb,
                        store.series_handle(
                            "openstack_compute_nodes_vcpus_gauge", labels
                        ),
                        store.series_handle(
                            "openstack_compute_nodes_vcpus_used_gauge", labels
                        ),
                        store.series_handle(
                            "openstack_compute_nodes_memory_mb_gauge", labels
                        ),
                        store.series_handle(
                            "openstack_compute_nodes_memory_mb_used_gauge", labels
                        ),
                    )
                )
            self._bb_entries = entries
            self._total_handle = store.series_handle(
                "openstack_compute_instances_total",
                (("region", region.region_id),),
            )
        total_vms = 0
        n = 1
        for bb, alloc_vcpus, alloc_mem, h_v, h_vu, h_m, h_mu in self._bb_entries:
            # bb.allocated() and bb.vm_count, folded from the node memos
            # in the same order without building a Capacity per node.
            used_vcpus = used_mem = 0.0
            for node in bb.nodes.values():
                used = node.allocated()
                used_vcpus += used.vcpus
                used_mem += used.memory_mb
                total_vms += len(node.vms)
            h_v.append(timestamp, alloc_vcpus)
            h_vu.append(timestamp, used_vcpus)
            h_m.append(timestamp, alloc_mem)
            h_mu.append(timestamp, used_mem)
            n += 4
        self._total_handle.append(timestamp, float(total_vms))
        return n

    def scrape_region(self, region: Region, timestamp: float) -> list[Sample]:
        """All openstack_compute samples for one scrape of the region."""
        samples: list[Sample] = []
        total_vms = 0
        for bb in region.iter_building_blocks():
            labels = tuple(
                sorted(
                    {
                        "compute_host": bb.bb_id,
                        "datacenter": bb.datacenter,
                        "availability_zone": bb.az,
                    }.items()
                )
            )
            physical = bb.physical()
            allocatable = bb.overcommit.allocatable(physical)
            allocated = bb.allocated()
            total_vms += bb.vm_count
            samples.extend(
                [
                    Sample(
                        "openstack_compute_nodes_vcpus_gauge",
                        labels, timestamp, allocatable.vcpus,
                    ),
                    Sample(
                        "openstack_compute_nodes_vcpus_used_gauge",
                        labels, timestamp, allocated.vcpus,
                    ),
                    Sample(
                        "openstack_compute_nodes_memory_mb_gauge",
                        labels, timestamp, allocatable.memory_mb,
                    ),
                    Sample(
                        "openstack_compute_nodes_memory_mb_used_gauge",
                        labels, timestamp, allocated.memory_mb,
                    ),
                ]
            )
        samples.append(
            Sample(
                "openstack_compute_instances_total",
                (("region", region.region_id),),
                timestamp,
                float(total_vms),
            )
        )
        return samples
