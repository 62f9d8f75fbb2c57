"""Classic placement baselines: bin-packing heuristics and spread.

§3.2 discusses First-Fit, Best-Fit, and Worst-Fit as the well-known
low-effort strategies for the NP-hard bin-packing problem behind VM-to-host
assignment.  This package implements them (plus decreasing-order variants
and multi-dimensional vector packing) over abstract bins, with an evaluation
harness measuring bins used, fragmentation, and waste.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Item": "binpacking",
    "Bin": "binpacking",
    "PackingResult": "binpacking",
    "first_fit": "binpacking",
    "best_fit": "binpacking",
    "worst_fit": "binpacking",
    "next_fit": "binpacking",
    "first_fit_decreasing": "binpacking",
    "best_fit_decreasing": "binpacking",
    "pack": "binpacking",
    "spread_pack": "spread",
    "PackingMetrics": "evaluation",
    "evaluate_packing": "evaluation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
