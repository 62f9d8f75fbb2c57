"""The paper's contribution as a library.

:class:`~repro.core.dataset.SAPCloudDataset` is the central artifact — the
(synthetic, calibrated) equivalent of the public Zenodo dataset: topology,
VM inventory, lifecycle events, and the full Table 4 metric telemetry.  The
sibling modules implement every analysis of Section 5 (heatmaps, contention,
utilisation CDFs, classifications, lifetimes) and the Section 7 guidance
analytics (overcommit assessment, right-sizing, imbalance scoring,
contention- and lifetime-aware placement).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SAPCloudDataset": "dataset",
    "UTILIZATION_THRESHOLDS": "characterization",
    "classify_utilization": "characterization",
    "utilization_breakdown": "characterization",
    "vm_size_tables": "characterization",
    "lifetime_by_flavor": "characterization",
    "ContentionSummary": "contention",
    "contention_daily_stats": "contention",
    "top_ready_time_nodes": "contention",
    "contention_threshold_report": "contention",
    "HeatmapResult": "heatmaps",
    "free_resource_heatmap": "heatmaps",
    "cdf_points": "cdf",
    "utilization_cdf": "cdf",
    "intra_bb_spread": "imbalance",
    "bb_imbalance_report": "imbalance",
    "fragmentation_score": "imbalance",
    "OvercommitAssessment": "guidance",
    "assess_overcommit": "guidance",
    "RightsizingRecommendation": "guidance",
    "rightsizing_recommendations": "guidance",
    "ContentionAwareScheduler": "advanced_placement",
    "LifetimeAwareScheduler": "advanced_placement",
    "HolisticNodeScheduler": "advanced_placement",
    "ClusteringResult": "clustering",
    "cluster_workloads": "clustering",
    "PowerModel": "energy",
    "EnergyReport": "energy",
    "fleet_energy": "energy",
    "LifecycleSummary": "lifecycle",
    "lifecycle_summary": "lifecycle",
    "daily_event_counts": "lifecycle",
    "population_trajectory": "lifecycle",
    "MultiplexingGain": "oversubscription",
    "vm_multiplexing_gain": "oversubscription",
    "multiplexing_report": "oversubscription",
    "VictimExposure": "noisy_neighbors",
    "victim_exposures": "noisy_neighbors",
    "victim_report": "noisy_neighbors",
    "blast_radius": "noisy_neighbors",
    "NodeTemporalProfile": "temporal",
    "temporal_profiles": "temporal",
    "temporal_summary": "temporal",
    "static_node_share": "temporal",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
