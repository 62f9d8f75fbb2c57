"""Builders for Figures 5–15 of the paper."""

from __future__ import annotations

import numpy as np

from repro.core.cdf import utilization_cdf
from repro.core.characterization import lifetime_by_flavor
from repro.core.contention import contention_daily_stats, top_ready_time_nodes
from repro.core.dataset import SAPCloudDataset
from repro.core.heatmaps import HeatmapResult, free_resource_heatmap
from repro.core.imbalance import bb_imbalance_report
from repro.frame import Frame


def _default_dc(dataset: SAPCloudDataset, dc_id: str | None) -> str:
    if dc_id is not None:
        return dc_id
    dcs = dataset.datacenters()
    if not dcs:
        raise ValueError("dataset has no datacenters")
    return dcs[0]


def fig5_dc_cpu_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 5: daily avg free CPU % per compute node within one DC."""
    return free_resource_heatmap(
        dataset, resource="cpu", dc_id=_default_dc(dataset, dc_id), level="node"
    )


def fig6_bb_cpu_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 6: daily avg free CPU % per building block within one DC."""
    return free_resource_heatmap(
        dataset,
        resource="cpu",
        dc_id=_default_dc(dataset, dc_id),
        level="building_block",
    )


def fig7_intra_bb_cpu_heatmap(
    dataset: SAPCloudDataset, bb_id: str | None = None
) -> HeatmapResult:
    """Fig 7: daily avg free CPU % per node within one building block.

    Defaults to the building block containing the most utilised node that
    still shows a large intra-BB spread — the paper selects a visibly
    imbalanced cluster whose hottest host reaches up to 99% CPU.
    """
    if bb_id is None:
        report = bb_imbalance_report(dataset, resource="cpu")
        if len(report) == 0:
            raise ValueError("dataset has no building block telemetry")
        candidates = report.filter(
            np.asarray(report["node_count"], dtype=float) >= 3
        )
        chosen = candidates if len(candidates) else report
        # Rank by the hottest member node, then by spread.
        order = np.lexsort(
            (
                -np.asarray(chosen["spread_pct"], dtype=float),
                -np.asarray(chosen["max_used_pct"], dtype=float),
            )
        )
        bb_id = str(chosen["bb_id"][order[0]])
    return free_resource_heatmap(dataset, resource="cpu", bb_id=bb_id, level="node")


def fig8_top_ready_nodes(dataset: SAPCloudDataset, n: int = 10) -> Frame:
    """Fig 8: ready-time series of the top-``n`` nodes, long format.

    Columns: node_id, timestamp, ready_ms.
    """
    rows: dict[str, list] = {"node_id": [], "timestamp": [], "ready_ms": []}
    for node_id, series in top_ready_time_nodes(dataset, n=n):
        rows["node_id"].extend([node_id] * len(series))
        rows["timestamp"].extend(series.timestamps.tolist())
        rows["ready_ms"].extend(series.values.tolist())
    return Frame(rows)


def fig9_contention_aggregate(dataset: SAPCloudDataset) -> Frame:
    """Fig 9: daily mean / p95 / max CPU contention % across all nodes."""
    return contention_daily_stats(dataset)


def fig10_memory_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 10: daily avg free memory % per node within one DC."""
    return free_resource_heatmap(
        dataset, resource="memory", dc_id=_default_dc(dataset, dc_id), level="node"
    )


def fig11_network_tx_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 11: daily avg free network TX bandwidth % per node."""
    return free_resource_heatmap(
        dataset,
        resource="network_tx",
        dc_id=_default_dc(dataset, dc_id),
        level="node",
    )


def fig12_network_rx_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 12: daily avg free network RX bandwidth % per node."""
    return free_resource_heatmap(
        dataset,
        resource="network_rx",
        dc_id=_default_dc(dataset, dc_id),
        level="node",
    )


def fig13_storage_heatmap(
    dataset: SAPCloudDataset, dc_id: str | None = None
) -> HeatmapResult:
    """Fig 13: daily avg free local storage % per host."""
    return free_resource_heatmap(
        dataset, resource="storage", dc_id=_default_dc(dataset, dc_id), level="node"
    )


def fig14_utilization_cdfs(
    dataset: SAPCloudDataset,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fig 14: CDFs of average CPU (a) and memory (b) utilisation per VM."""
    return {
        "cpu": utilization_cdf(dataset, "cpu"),
        "memory": utilization_cdf(dataset, "memory"),
    }


def fig15_lifetime_per_flavor(
    dataset: SAPCloudDataset, min_instances: int = 30
) -> Frame:
    """Fig 15: average VM lifetime per flavor (≥ ``min_instances`` VMs)."""
    return lifetime_by_flavor(dataset, min_instances=min_instances)
