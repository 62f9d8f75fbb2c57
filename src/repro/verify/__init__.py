"""Differential verification harness (see DESIGN.md "Verification model").

Five layers, unified behind ``repro verify``:

* :mod:`repro.verify.oracle` — differential scheduler oracle (the
  rescan reference, which lives only there, vs the production indexed
  scheduler vs scalar-weigher replays of one pre-drawn workload);
* :mod:`repro.verify.metamorphic` — metamorphic properties for the
  telemetry store and the scheduler;
* :mod:`repro.verify.goldens` — golden-trace regression store under
  ``tests/goldens/`` with an ``--update-goldens`` flow;
* :mod:`repro.verify.reference` — the per-sample reference simulation
  the ``scrape_path`` check compares the simulator against;
* :mod:`repro.verify.runner` — the check registry and JSON report the
  CLI and CI consume.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Mismatch": "oracle",
    "OracleResult": "oracle",
    "SCENARIOS": "scenarios",
    "VerifyConfig": "runner",
    "VerifyScenario": "scenarios",
    "desync_index": "oracle",
    "get_scenario": "scenarios",
    "run_oracle": "oracle",
    "run_verify": "runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
