"""Discrete-event simulation of the regional cloud.

The engine replays 30 days of VM lifecycle events (create / resize / migrate
/ delete) against the infrastructure model, computes node-level resource
usage including the VMware-style CPU ready-time and contention metrics, and
scrapes telemetry through the exporters into a metric store — reproducing
the measurement pipeline of §4 end to end.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Event": "engine",
    "SimulationEngine": "engine",
    "VM_CREATE": "events",
    "VM_DELETE": "events",
    "VM_RESIZE": "events",
    "VM_MIGRATE": "events",
    "SCRAPE": "events",
    "DRS_RUN": "events",
    "HostCpuModel": "hostsched",
    "NodeWindowUsage": "hostsched",
    "RegionSimulation": "runner",
    "SimulationConfig": "runner",
    "SimulationResult": "runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
