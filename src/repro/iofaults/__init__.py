"""Deterministic storage-fault injection and the durability torture harness.

:mod:`repro.iofaults.layer` is the injectable filesystem shim every
persistent artifact routes through; :mod:`repro.iofaults.torture` is the
harness that interleaves its faults with crash-point injection and
asserts every artifact recovers byte-identically or fails structurally.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FAULT_KINDS": "layer",
    "FaultSpec": "layer",
    "FaultyIO": "layer",
    "IoFaultError": "layer",
    "RealIO": "layer",
    "active_io": "layer",
    "atomic_write_bytes": "layer",
    "inject": "layer",
    "ARTIFACTS": "torture",
    "TortureCase": "torture",
    "TortureConfig": "torture",
    "TortureReport": "torture",
    "run_torture": "torture",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
