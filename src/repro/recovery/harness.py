"""Crash→recover→continue cycle driver behind ``repro crash``.

For every seed the harness first computes the *uninterrupted* outcome of
the workload (the same indexed replay the differential oracle runs),
then for every named crash point kills a journaled run at a
deterministic op, recovers it, and diffs the recovered outcome against
the uninterrupted one with the oracle's field-by-field comparator.  A
second battery applies each byte-level corruption mode to a completed
journal and asserts the damage is either recovered through torn-tail
truncation (still field-identical) or *refused* with a named journal
offset — never silently replayed.

The report is byte-stable: it contains no wall-clock times, hostnames,
or filesystem paths, and every collection is emitted in deterministic
order, so two runs of the same scenario/seeds produce identical JSON.
Work happens in throwaway temp directories that are removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from repro.faults.crashpoints import (
    CORRUPTION_MODES,
    CrashInjector,
    CrashSpec,
    SimulatedCrash,
    corrupt_journal,
)
from repro.recovery.journal import JournalCorruption
from repro.reporting import ReportBase
from repro.recovery.run import (
    CRASH_POINTS,
    DEFAULT_SNAPSHOT_EVERY,
    JournaledRun,
    RecoveryError,
    recover_and_continue,
    run_journaled,
)
from repro.verify.oracle import diff_outcomes, replay_workload, workload_ops
from repro.verify.scenarios import VerifyScenario

#: Corruption modes recovery must *refuse* (vs. recover through).
_REFUSED_MODES = frozenset({"bitflip-interior", "dup-tail"})


@dataclass
class CrashCycle:
    """One crash→recover→continue cycle against one seed."""

    seed: int
    point: str
    at_op: int
    crashed: bool
    recovered: bool
    field_identical: bool
    mismatches: list[str]
    recovery: dict

    @property
    def ok(self) -> bool:
        return self.crashed and self.recovered and self.field_identical

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "point": self.point,
            "at_op": self.at_op,
            "crashed": self.crashed,
            "recovered": self.recovered,
            "field_identical": self.field_identical,
            "mismatches": self.mismatches,
            "recovery": self.recovery,
            "ok": self.ok,
        }


@dataclass
class CorruptionCase:
    """One byte-damage mode applied to a completed journal."""

    seed: int
    mode: str
    #: Byte offset the damage was applied at.
    offset: int
    #: "recovered-torn" | "refused" | "undetected"
    outcome: str
    #: Offset the detection named (torn tail or corruption/refusal).
    detected_at: int | None
    detail: str
    field_identical: bool

    @property
    def ok(self) -> bool:
        if self.mode in _REFUSED_MODES:
            return self.outcome == "refused" and self.detected_at is not None
        return self.outcome == "recovered-torn" and self.field_identical

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "offset": self.offset,
            "outcome": self.outcome,
            "detected_at": self.detected_at,
            "detail": self.detail,
            "field_identical": self.field_identical,
            "ok": self.ok,
        }


@dataclass
class CrashReport(ReportBase):
    """Everything one ``repro crash`` invocation proved (or failed to)."""

    scenario: str
    seeds: list[int]
    snapshot_every: int
    cycles: list[CrashCycle] = field(default_factory=list)
    corruption: list[CorruptionCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cycles) and all(
            c.ok for c in self.corruption
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seeds": self.seeds,
            "snapshot_every": self.snapshot_every,
            "cycles": [c.to_dict() for c in self.cycles],
            "corruption": [c.to_dict() for c in self.corruption],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        lines = [
            f"crash harness: scenario {self.scenario}, "
            f"seeds {','.join(str(s) for s in self.seeds)}, "
            f"snapshot every {self.snapshot_every} ops"
        ]
        for cycle in self.cycles:
            verdict = "identical" if cycle.ok else "DIVERGED"
            lines.append(
                f"  seed {cycle.seed} crash@{cycle.point}/op{cycle.at_op}: "
                f"recovered from op {cycle.recovery.get('snapshot_op_index')}"
                f" ({cycle.recovery.get('verified_records')} records "
                f"verified) — {verdict}"
            )
            lines.extend(f"    {m}" for m in cycle.mismatches[:5])
        for case in self.corruption:
            lines.append(
                f"  seed {case.seed} corrupt@{case.mode} (byte {case.offset}):"
                f" {case.outcome} at {case.detected_at}"
                f" — {'OK' if case.ok else 'FAILED'}"
            )
        lines.append(f"result: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _crash_ops(n_ops: int, snapshot_every: int) -> tuple[int, int]:
    """Deterministic kill ops: one mid-run, one on a snapshot boundary."""
    mid = n_ops // 2
    boundary = min(
        (mid // snapshot_every + 1) * snapshot_every, n_ops
    ) - 1
    return mid, boundary


def run_crash_cycles(
    scenario: VerifyScenario,
    seeds: list[int],
    *,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    points: tuple[str, ...] = CRASH_POINTS,
    corruption_modes: tuple[str, ...] = CORRUPTION_MODES,
    durability: str = "fsync",
    progress: Callable[[str], None] | None = None,
) -> CrashReport:
    """Run the full crash/corruption battery; returns a byte-stable report."""
    report = CrashReport(
        scenario=scenario.name,
        seeds=list(seeds),
        snapshot_every=snapshot_every,
    )
    for seed in seeds:
        ops = workload_ops(scenario, seed)
        baseline = replay_workload(
            scenario.topology(), ops, variant="uninterrupted"
        )
        mid, boundary = _crash_ops(len(ops), snapshot_every)
        for point in points:
            at_op = boundary if point.endswith("snapshot") else mid
            if progress is not None:
                progress(f"seed {seed}: crash at {point}/op {at_op}")
            workdir = tempfile.mkdtemp(prefix="repro-crash-")
            try:
                injector = CrashInjector(CrashSpec(point, at_op))
                crashed = False
                try:
                    run_journaled(
                        scenario,
                        seed,
                        workdir,
                        snapshot_every=snapshot_every,
                        barrier=injector,
                        durability=durability,
                    )
                except SimulatedCrash:
                    crashed = True
                recovered = False
                mismatches: list[str] = []
                info_dict: dict = {}
                identical = False
                if crashed:
                    outcome, info = recover_and_continue(
                        scenario,
                        seed,
                        workdir,
                        snapshot_every=snapshot_every,
                        durability=durability,
                    )
                    recovered = True
                    info_dict = info.to_dict()
                    found = diff_outcomes(baseline, outcome)
                    found += outcome.index_mismatches
                    mismatches = [m.render() for m in found]
                    identical = not found
                report.cycles.append(
                    CrashCycle(
                        seed=seed,
                        point=point,
                        at_op=at_op,
                        crashed=crashed,
                        recovered=recovered,
                        field_identical=identical,
                        mismatches=mismatches,
                        recovery=info_dict,
                    )
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        for mode in corruption_modes:
            if progress is not None:
                progress(f"seed {seed}: journal corruption {mode}")
            workdir = tempfile.mkdtemp(prefix="repro-crash-")
            try:
                run = JournaledRun(
                    scenario,
                    seed,
                    workdir,
                    snapshot_every=snapshot_every,
                    durability=durability,
                )
                run.run()
                offset = corrupt_journal(run.journal_path, mode)
                outcome_kind = "undetected"
                detected_at: int | None = None
                detail = ""
                identical = False
                try:
                    outcome, info = recover_and_continue(
                        scenario,
                        seed,
                        workdir,
                        snapshot_every=snapshot_every,
                        durability=durability,
                    )
                except (JournalCorruption, RecoveryError) as exc:
                    outcome_kind = "refused"
                    detected_at = exc.offset
                    detail = exc.reason
                else:
                    found = diff_outcomes(baseline, outcome)
                    found += outcome.index_mismatches
                    identical = not found
                    if info.truncated_at is not None:
                        outcome_kind = "recovered-torn"
                        detected_at = info.truncated_at
                        detail = info.truncated_reason
                report.corruption.append(
                    CorruptionCase(
                        seed=seed,
                        mode=mode,
                        offset=offset,
                        outcome=outcome_kind,
                        detected_at=detected_at,
                        detail=detail,
                        field_identical=identical,
                    )
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return report
