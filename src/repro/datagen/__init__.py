"""Calibrated synthetic regeneration of the SAP Cloud Infrastructure trace.

The build environment cannot download the Zenodo archive, so this package
generates a statistically equivalent dataset: the topology of the studied
region, a VM population matching Tables 1–2, demand processes reproducing
the Fig 14 utilisation CDFs, per-node telemetry with the contention/ready
characteristics of Figs 8–9, and the lifetime spectrum of Fig 15.  See
DESIGN.md for the substitution rationale and the calibration target list.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GeneratorConfig": "config",
    "FLAVOR_MIX": "population",
    "VMRecord": "population",
    "sample_population": "population",
    "generate_dataset": "generator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
