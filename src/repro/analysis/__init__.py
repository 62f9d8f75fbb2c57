"""Figure and table builders: one function per artifact of the paper.

Each ``figN`` / ``tableN`` function consumes a
:class:`~repro.core.dataset.SAPCloudDataset` and returns plain data
structures (frames, arrays, dicts) carrying exactly the rows/series the
paper plots — the benchmark harness renders and checks them.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "fig5_dc_cpu_heatmap": "figures",
    "fig6_bb_cpu_heatmap": "figures",
    "fig7_intra_bb_cpu_heatmap": "figures",
    "fig8_top_ready_nodes": "figures",
    "fig9_contention_aggregate": "figures",
    "fig10_memory_heatmap": "figures",
    "fig11_network_tx_heatmap": "figures",
    "fig12_network_rx_heatmap": "figures",
    "fig13_storage_heatmap": "figures",
    "fig14_utilization_cdfs": "figures",
    "fig15_lifetime_per_flavor": "figures",
    "table1_vcpu_classes": "tables",
    "table2_ram_classes": "tables",
    "table3_dataset_comparison": "tables",
    "table4_metric_catalog": "tables",
    "table5_datacenters": "tables",
    "render_experiments_report": "report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
