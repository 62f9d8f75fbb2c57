"""Differential verification harness (see DESIGN.md "Verification model").

Five layers, unified behind ``repro verify``:

* :mod:`repro.verify.oracle` — differential scheduler oracle (naive vs
  indexed vs scalar-weigher replays of one pre-drawn workload);
* :mod:`repro.verify.metamorphic` — metamorphic properties for the
  telemetry store and the scheduler;
* :mod:`repro.verify.goldens` — golden-trace regression store under
  ``tests/goldens/`` with an ``--update-goldens`` flow;
* :mod:`repro.verify.reference` — the per-sample reference simulation
  the ``scrape_path`` check compares the simulator against;
* :mod:`repro.verify.runner` — the check registry and JSON report the
  CLI and CI consume.
"""

from repro.verify.oracle import Mismatch, OracleResult, desync_index, run_oracle
from repro.verify.runner import VerifyConfig, run_verify
from repro.verify.scenarios import SCENARIOS, VerifyScenario, get_scenario

__all__ = [
    "Mismatch",
    "OracleResult",
    "SCENARIOS",
    "VerifyConfig",
    "VerifyScenario",
    "desync_index",
    "get_scenario",
    "run_oracle",
    "run_verify",
]
