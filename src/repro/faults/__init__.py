"""Seeded, deterministic fault injection for the regional simulation.

The subsystem's parts:

- :class:`~repro.faults.config.FaultConfig` — hazard rates and recovery
  knobs, one frozen dataclass;
- :class:`~repro.faults.injector.FaultInjector` — schedules host failures
  from a Poisson hazard and draws victims/repair times;
- :class:`~repro.faults.migration.MigrationFaultModel` — aborts a seeded
  fraction of live migrations mid-precopy;
- :class:`~repro.faults.telemetry.TelemetryFaultModel` — scrape gaps and
  stale-exporter injection for the metric pipeline;
- :mod:`repro.faults.domains` — correlated failure domains: AZ/rack-scoped
  outages and :class:`~repro.faults.domains.ScrapePartition`, the
  exporter↔store partition that blackholes a whole domain's scrapes;
- :class:`~repro.faults.evacuation.EvacuationManager` — retries stranded
  VMs through the scheduler with backoff, dead-lettering the unplaceable;
- :mod:`repro.faults.crashpoints` — control-plane process death at named
  barriers (:class:`~repro.faults.crashpoints.CrashInjector`) and
  byte-level journal corruption.

Everything reports into one :class:`~repro.faults.report.FaultReport`,
whose JSON rendering is byte-stable per seed.  :mod:`repro.faults.scenario`
packages a ready end-to-end scenario used by the CLI, the example, and the
CI smoke test.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AbortedMigration": "migration",
    "DeadLetter": "report",
    "EvacuationManager": "evacuation",
    "FaultConfig": "config",
    "FaultInjector": "injector",
    "FaultReport": "report",
    "MigrationFaultModel": "migration",
    "ScrapePartition": "domains",
    "TelemetryFaultModel": "telemetry",
    "domain_ids": "domains",
    "domain_members": "domains",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
