"""Workload models: demand patterns, profiles, and lifetime distributions.

The paper's region mixes two populations (§3, §5.5): memory-intensive,
long-lived SAP S/4HANA systems (ABAP application servers + HANA in-memory
databases) and diverse general-purpose workloads (dev environments, CI/CD,
Kubernetes infrastructure).  This package synthesises per-VM resource demand
time series and lifetimes matching the published characteristics.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DemandPattern": "patterns",
    "constant": "patterns",
    "diurnal": "patterns",
    "weekly": "patterns",
    "bursty": "patterns",
    "ramp": "patterns",
    "spike_train": "patterns",
    "composite": "patterns",
    "WorkloadProfile": "profiles",
    "PROFILES": "profiles",
    "profile_for_flavor": "profiles",
    "LifetimeModel": "lifetime",
    "sample_lifetime": "lifetime",
    "DemandModel": "demand",
    "VMDemand": "demand",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
