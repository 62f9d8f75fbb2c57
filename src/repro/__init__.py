"""repro: reproduction of "The SAP Cloud Infrastructure Dataset" (IMC 2025).

A production-quality Python library rebuilding the paper's full system:

- :mod:`repro.infrastructure` — the region/AZ/DC/building-block/node model;
- :mod:`repro.telemetry` — the Prometheus-like metric pipeline with the
  paper's exact vROps / OpenStack metric catalogue (Table 4);
- :mod:`repro.workloads` — demand patterns, application profiles, and
  lifetime models for the SAP workload mix;
- :mod:`repro.scheduler` — the Nova filter/weigher scheduler and placement
  service; :mod:`repro.drs` — the VMware DRS balancer and the §7 cross-BB
  rebalancing loop, both on one imbalance objective;
- :mod:`repro.simulation` — the discrete-event regional simulator;
- :mod:`repro.datagen` — the calibrated synthetic regeneration of the
  public trace;
- :mod:`repro.core` — the dataset facade plus every Section 5 analysis and
  Section 7 guidance analytic;
- :mod:`repro.analysis` — one builder per paper figure and table;
- :mod:`repro.baselines` — classic bin-packing and spread baselines.

Quickstart::

    from repro.datagen import GeneratorConfig, generate_dataset
    from repro.analysis import fig9_contention_aggregate

    dataset = generate_dataset(GeneratorConfig(scale=0.05))
    print(dataset.summary())
    print(fig9_contention_aggregate(dataset).head())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "SAPCloudDataset": "core.dataset",
    "GeneratorConfig": "datagen.config",
    "generate_dataset": "datagen.generator",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
