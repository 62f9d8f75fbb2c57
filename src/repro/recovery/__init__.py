"""Crash-consistent control plane: write-ahead journal, snapshots, recovery.

A long-running control plane does not only lose hosts (``repro.faults``)
— it loses *itself*: the scheduler process dies mid-claim, mid-snapshot,
or between writing its intent and applying it.  This package closes that
gap with the classic durability triad:

- :mod:`repro.recovery.journal` — an append-only write-ahead journal of
  length+CRC32-framed records (placement claims/releases, admission
  decisions, quarantine transitions, sim-clock advances, per-op commit
  records), with torn-tail detection and named-offset corruption errors;
- :mod:`repro.recovery.snapshot` — periodic full-state snapshots
  (placement inventory + allocations, node residency, scheduler
  counters, quarantine/admission state, RNG streams) committed with an
  atomic rename so a crash mid-write can never produce a half-snapshot;
- :mod:`repro.recovery.run` — :class:`~repro.recovery.run.JournaledRun`,
  the crash-consistent execution of a seeded placement workload, and
  :func:`~repro.recovery.run.recover_and_continue`, which loads the
  latest valid snapshot, replays (and cross-checks) the journal suffix,
  and finishes the run;
- :mod:`repro.recovery.harness` — the crash→recover→continue cycle
  driver behind ``repro crash``, which proves recovered runs are
  field-identical to uninterrupted ones under the ``repro.verify``
  oracle.

Crash *injection* (the named kill-points and byte-level journal
corruption) lives in :mod:`repro.faults.crashpoints`, beside the rest of
the fault models.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CRASH_POINTS": "run",
    "DURABILITY_MODES": "journal",
    "CorruptionCase": "harness",
    "CrashCycle": "harness",
    "CrashReport": "harness",
    "JournalCorruption": "journal",
    "JournalScan": "journal",
    "JournalWriter": "journal",
    "JournaledRun": "run",
    "RecoveryError": "run",
    "RecoveryInfo": "run",
    "SnapshotStore": "snapshot",
    "capture_rng_state": "snapshot",
    "read_journal": "journal",
    "recover_and_continue": "run",
    "restore_rng_state": "snapshot",
    "run_crash_cycles": "harness",
    "run_journaled": "run",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
