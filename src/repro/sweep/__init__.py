"""Sharded scenario-sweep engine: grid fan-out across worker processes.

Public surface::

    from repro.sweep import (
        grid_from_dict, run_sweep, run_sweep_inline, SweepReport,
    )

See :mod:`repro.sweep.engine` for the execution model and the
byte-determinism contract (``--workers 1`` ≡ ``--workers N``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_DEADLINE_S": "engine",
    "ShardFailure": "report",
    "SweepCell": "grid",
    "SweepGrid": "grid",
    "SweepReport": "report",
    "SweepResumeError": "engine",
    "SweepRunStats": "report",
    "aggregate_cells": "report",
    "grid_from_dict": "grid",
    "load_resume": "engine",
    "merge_records": "report",
    "run_sweep": "engine",
    "run_sweep_inline": "engine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
