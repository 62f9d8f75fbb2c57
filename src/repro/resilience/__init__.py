"""Control-plane resilience: the defences the fault layer is thrown at.

Four services wire into :class:`~repro.simulation.runner.RegionSimulation`
when ``SimulationConfig.resilience`` is set:

- :class:`~repro.resilience.health.HostHealthService` — heartbeat-driven
  flap detection; oscillating nodes are quarantined (fenced from new
  placements, residents kept) with seeded backoff and probation;
- :class:`~repro.resilience.admission.AdmissionController` — a token
  bucket, per-request deadlines, and circuit breakers (global and
  per building block) in front of the scheduler, shedding load with a
  retry-after instead of queueing it unboundedly;
- :class:`~repro.resilience.reconciler.InventoryReconciler` — a periodic
  audit that diffs placement allocations against ground-truth node
  residency and the scheduler's cached index, repairing drift;
- :class:`~repro.resilience.invariants.InvariantChecker` — a recurring
  sweep asserting the properties that must hold at every instant
  (single placement, non-negative capacity, no untracked ERROR VMs,
  quarantine fences respected), failing fast with a structured report.

Everything reports into one deterministic
:class:`~repro.resilience.report.ResilienceReport`; the chaos scenario in
:mod:`repro.resilience.chaos` is the end-to-end exercise the ``chaos-smoke``
CI job hashes.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdmissionController": "admission",
    "AdmissionRejected": "admission",
    "HealthState": "health",
    "HostHealthService": "health",
    "InvariantChecker": "invariants",
    "InvariantViolation": "report",
    "InvariantViolationError": "report",
    "InventoryReconciler": "reconciler",
    "ResilienceConfig": "config",
    "ResilienceReport": "report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
