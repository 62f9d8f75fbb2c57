"""Crash-consistent execution of a seeded placement workload.

:class:`JournaledRun` executes the exact workload the differential
oracle replays (:func:`repro.verify.oracle.workload_ops` through the
``FilterScheduler``), but journals every state change ahead of
applying it and snapshots the full control-plane state on a fixed op
cadence.  Recovery (:func:`recover_and_continue`) then rebuilds the
world from the newest valid snapshot and *re-executes* the lost ops —
deterministic replay is the redo log.  The journal plays two roles on
the way back up:

- **durability record** — the suffix written after the snapshot tells
  recovery exactly what the crashed process had already decided;
- **divergence detector** — every record the replay re-emits is
  cross-checked against the journal suffix byte-for-byte (as parsed
  canonical JSON); any disagreement raises :class:`RecoveryError`
  naming the journal offset instead of silently rewriting history.

A torn tail (crash mid-append) is truncated and reported; interior
corruption and duplicated tails are refused with named offsets.

Crash points: the run fires a ``barrier(point)`` callback at every
named barrier in :data:`CRASH_POINTS`; :mod:`repro.faults.crashpoints`
plugs a deterministic killer into it.  Per op the sequence is
``pre-op`` → (``mid-claim`` inside each placement claim, after the
claim record is journaled but before usage is applied) →
``post-apply`` (state applied, commit record not yet journaled) →
``post-journal`` (commit record durable), and around each snapshot
``mid-snapshot`` (temp file written, not yet renamed) →
``post-snapshot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM, VMState
from repro.recovery.journal import (
    JournalWriter,
    read_journal,
    truncate_torn_tail,
)
from repro.recovery.snapshot import SnapshotStore
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.verify.oracle import (
    ReplayOutcome,
    index_mismatches,
    inventory_snapshot,
    workload_ops,
)
from repro.verify.scenarios import VerifyScenario

#: Named kill-points, in per-op firing order (snapshot points fire only
#: on the snapshot cadence).
CRASH_POINTS = (
    "pre-op",
    "mid-claim",
    "post-apply",
    "post-journal",
    "mid-snapshot",
    "post-snapshot",
)

#: Ops between snapshots (also the replay-window bound after a crash).
DEFAULT_SNAPSHOT_EVERY = 25

Barrier = Callable[[str], None]


class RecoveryError(Exception):
    """Recovery refused: the journal disagrees with deterministic replay."""

    def __init__(self, offset: int, reason: str) -> None:
        self.offset = offset
        self.reason = reason
        super().__init__(f"recovery failed at journal offset {offset}: {reason}")


@dataclass
class RecoveryInfo:
    """What one recovery did, for reports and assertions."""

    #: Ops already completed at the restored snapshot (0 = cold start).
    snapshot_op_index: int
    #: Ops re-executed to reach the end of the workload.
    replayed_ops: int
    #: Journal suffix records cross-checked against the replay.
    verified_records: int
    #: Fresh records appended once the suffix was exhausted.
    appended_records: int
    #: Byte offset of the torn tail the scan found, or None when clean.
    truncated_at: int | None
    truncated_reason: str
    bytes_truncated: int

    def to_dict(self) -> dict:
        return {
            "snapshot_op_index": self.snapshot_op_index,
            "replayed_ops": self.replayed_ops,
            "verified_records": self.verified_records,
            "appended_records": self.appended_records,
            "truncated_at": self.truncated_at,
            "truncated_reason": self.truncated_reason,
            "bytes_truncated": self.bytes_truncated,
        }


class JournaledRun:
    """One crash-consistent run (or recovery) of a verify-scenario workload.

    All durable artifacts live under ``run_dir``: ``journal.wal`` plus a
    ``snapshots/`` directory.  The same instance is single-use — build a
    fresh one per :meth:`run` or :meth:`recover`.
    """

    def __init__(
        self,
        scenario: VerifyScenario,
        seed: int,
        run_dir: str | Path,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        barrier: Barrier | None = None,
        durability: str = "fsync",
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.barrier = barrier
        self.durability = durability
        self.journal_path = self.run_dir / "journal.wal"
        self.snapshots = SnapshotStore(self.run_dir / "snapshots")
        self.ops = workload_ops(scenario, seed)
        self._catalog = default_catalog()
        # Journal cursor: while `_expected` has records left, re-emitted
        # records are verified against them; afterwards they are appended.
        self._expected: list[tuple[int, dict]] = []
        self._cursor = 0
        self._writer: JournalWriter | None = None
        self._op_i = 0

    # -- world construction ---------------------------------------------------

    def _setup(self) -> None:
        spec = self.scenario.topology()
        self.region = build_region(spec)
        self.placement = PlacementService()
        for bb in self.region.iter_building_blocks():
            self.placement.register_building_block(bb)
        self.placement.add_journal_sink(self._placement_sink)
        self.scheduler = FilterScheduler(self.region, self.placement)
        self.bb_index = {
            bb.bb_id: bb for bb in self.region.iter_building_blocks()
        }
        self.node_index = {
            node.node_id: node
            for bb in self.region.iter_building_blocks()
            for node in bb.iter_nodes()
        }
        self.node_of: dict[str, str] = {}
        self.placements: dict[str, str] = {}
        self.trace: list[tuple[str, str | None, float, int]] = []

    def _export_state(self, completed: int) -> dict:
        residency = {}
        for vm_id in sorted(self.node_of):
            node_id = self.node_of[vm_id]
            vm = self.node_index[node_id].vms[vm_id]
            residency[vm_id] = {
                "node": node_id,
                "bb": self.placements[vm_id],
                "flavor": vm.flavor.name,
                "tenant": vm.tenant,
            }
        return {
            "completed": completed,
            "trace": [list(row) for row in self.trace],
            "residency": residency,
            "placement": self.placement.export_state(),
            "scheduler_stats": dict(self.scheduler.stats),
        }

    def _restore(self, state: dict) -> None:
        for vm_id, info in state["residency"].items():
            node = self.node_index[info["node"]]
            vm = VM(
                vm_id=vm_id,
                flavor=self._catalog.get(info["flavor"]),
                tenant=info["tenant"],
            )
            vm.transition(VMState.BUILDING)
            vm.transition(VMState.ACTIVE)
            node.add_vm(vm)
            self.node_of[vm_id] = info["node"]
            self.placements[vm_id] = info["bb"]
        self.placement.restore_state(state["placement"])
        self.scheduler.stats.update(
            {k: int(v) for k, v in state["scheduler_stats"].items()}
        )
        self.trace = [
            (row[0], row[1], float(row[2]), int(row[3]))
            for row in state["trace"]
        ]

    # -- journal plumbing -----------------------------------------------------

    def _fire(self, point: str) -> None:
        if self.barrier is not None:
            self.barrier(point)

    def _emit(self, record: dict) -> None:
        """Verify ``record`` against the journal suffix, or append it."""
        if self._cursor < len(self._expected):
            offset, expected = self._expected[self._cursor]
            if record != expected:
                raise RecoveryError(
                    offset,
                    f"replay diverged from journal: journalled {expected!r}, "
                    f"re-executed {record!r}",
                )
            self._cursor += 1
            return
        self._writer.append(record)

    def _placement_sink(
        self, event: str, consumer_id: str, provider_id: str, amounts: dict
    ) -> None:
        self._emit(
            {
                "t": event,
                "i": self._op_i,
                "vm": consumer_id,
                "bb": provider_id,
                "amounts": dict(amounts),
            }
        )
        if event == "claim":
            self._fire("mid-claim")

    # -- op execution ---------------------------------------------------------

    def _execute_op(self, i: int, op) -> None:
        self._op_i = i
        self._fire("pre-op")
        if op.op == "create":
            spec_req = RequestSpec(
                vm_id=op.vm_id,
                flavor=self._catalog.get(op.flavor_name),
                tenant=op.tenant,
            )
            try:
                result = self.scheduler.schedule(spec_req)
            except NoValidHost:
                self.trace.append((op.vm_id, None, 0.0, 0))
                commit = self._commit(i, op, host=None, score=0.0, attempts=0)
            else:
                bb = self.bb_index[result.host_id]
                node = bb.pick_node(spec_req.requested())
                if node is None:
                    # BB-level room but no single node fits: release, as
                    # the oracle and the simulation runner both do.
                    self.placement.release(op.vm_id)
                    self.trace.append((op.vm_id, None, 0.0, result.attempts))
                    commit = self._commit(
                        i, op, host=None, score=0.0, attempts=result.attempts
                    )
                else:
                    vm = VM(
                        vm_id=op.vm_id,
                        flavor=spec_req.flavor,
                        tenant=op.tenant,
                    )
                    vm.transition(VMState.BUILDING)
                    vm.transition(VMState.ACTIVE)
                    node.add_vm(vm)
                    self.node_of[op.vm_id] = node.node_id
                    self.placements[op.vm_id] = result.host_id
                    score = round(result.score, 9)
                    self.trace.append(
                        (op.vm_id, result.host_id, score, result.attempts)
                    )
                    commit = self._commit(
                        i,
                        op,
                        host=result.host_id,
                        score=score,
                        attempts=result.attempts,
                    )
        else:
            node_id = self.node_of.pop(op.vm_id, None)
            if node_id is None:
                # The create was rejected; nothing to delete.
                commit = {
                    "t": "op", "i": i, "op": "delete",
                    "vm": op.vm_id, "present": False,
                }
            else:
                self.node_index[node_id].remove_vm(op.vm_id)
                self.placement.release(op.vm_id)
                self.placements.pop(op.vm_id, None)
                commit = {
                    "t": "op", "i": i, "op": "delete",
                    "vm": op.vm_id, "present": True,
                }
        self._fire("post-apply")
        self._emit(commit)
        self._fire("post-journal")
        completed = i + 1
        if self.snapshot_every and completed % self.snapshot_every == 0:
            self._emit({"t": "snap", "i": completed})
            self.snapshots.write(
                completed, self._export_state(completed), barrier=self._fire
            )
            self._fire("post-snapshot")

    @staticmethod
    def _commit(i: int, op, *, host, score, attempts) -> dict:
        return {
            "t": "op",
            "i": i,
            "op": "create",
            "vm": op.vm_id,
            "host": host,
            "score": score,
            "attempts": attempts,
        }

    def _outcome(self, variant: str) -> ReplayOutcome:
        return ReplayOutcome(
            variant=variant,
            placements=dict(self.placements),
            trace=list(self.trace),
            scheduler_stats=self.scheduler.stats_snapshot(),
            placement_stats={
                k: int(v) for k, v in self.placement.stats().items()
            },
            inventory=inventory_snapshot(self.placement, self.bb_index),
            index_mismatches=index_mismatches(
                self.scheduler, self.bb_index, self.placement, variant
            ),
        )

    # -- entry points ---------------------------------------------------------

    def run(self) -> ReplayOutcome:
        """Execute the full workload from scratch, journaling as it goes.

        A :class:`~repro.faults.crashpoints.SimulatedCrash` raised by the
        barrier propagates to the caller; the journal and snapshots on
        disk are exactly what a killed process would have left behind.
        """
        self._setup()
        self._expected = []
        self._cursor = 0
        self._writer = JournalWriter(
            self.journal_path, durability=self.durability
        )
        try:
            for i, op in enumerate(self.ops):
                self._execute_op(i, op)
        finally:
            self._writer.close()
        return self._outcome("journaled")

    def recover(self) -> tuple[ReplayOutcome, RecoveryInfo]:
        """Load the newest valid snapshot, replay the journal, finish.

        Raises :class:`~repro.recovery.journal.JournalCorruption` on
        interior journal damage and :class:`RecoveryError` when the
        journal's structure or contents disagree with deterministic
        replay (duplicated tails, divergent records, leftovers).
        """
        if self.journal_path.exists():
            scan = read_journal(self.journal_path)
        else:
            scan = None
        bytes_truncated = 0
        if scan is not None:
            bytes_truncated = truncate_torn_tail(self.journal_path, scan)
            self._check_structure(scan)
        loaded = self.snapshots.load_latest()
        self._setup()
        if loaded is not None:
            resume_from, state = loaded
            self._restore(state)
        else:
            resume_from = 0
        self._expected = self._suffix(scan, resume_from)
        self._cursor = 0
        self._writer = JournalWriter(
            self.journal_path, durability=self.durability
        )
        try:
            for i in range(resume_from, len(self.ops)):
                self._execute_op(i, self.ops[i])
            appended = self._writer.records_written
        finally:
            self._writer.close()
        if self._cursor < len(self._expected):
            offset, leftover = self._expected[self._cursor]
            raise RecoveryError(
                offset,
                f"journal record left unconsumed after full replay "
                f"(duplicated tail?): {leftover!r}",
            )
        info = RecoveryInfo(
            snapshot_op_index=resume_from,
            replayed_ops=len(self.ops) - resume_from,
            verified_records=self._cursor,
            appended_records=appended,
            truncated_at=scan.truncated_at if scan is not None else None,
            truncated_reason=scan.truncated_reason if scan is not None else "",
            bytes_truncated=bytes_truncated,
        )
        return self._outcome("recovered"), info

    # -- journal validation ---------------------------------------------------

    @staticmethod
    def _check_structure(scan) -> None:
        """Structural pre-check: op indices must advance exactly by one.

        Claim/release records belong to the op being executed and snap
        markers to the just-completed count, so *every* record's ``i``
        is pinned — a duplicated or reordered tail (e.g. the same
        commit record appended twice) breaks the progression and is
        refused with its offset before any replay happens.
        """
        next_op = 0
        last_snap = -1
        for offset, record in scan.records:
            kind = record.get("t")
            want = next_op
            if kind == "op":
                if record.get("i") != want:
                    raise RecoveryError(
                        offset,
                        f"op record carries index {record.get('i')} where "
                        f"{want} was expected (duplicated or reordered tail)",
                    )
                next_op += 1
            elif kind in ("claim", "release", "snap"):
                if record.get("i") != want:
                    raise RecoveryError(
                        offset,
                        f"{kind} record carries op index {record.get('i')} "
                        f"where {want} was expected "
                        f"(duplicated or reordered tail)",
                    )
                if kind == "snap":
                    # One marker per snapshot boundary: a second with the
                    # same index is a duplicated tail, not history.
                    if record["i"] == last_snap:
                        raise RecoveryError(
                            offset,
                            f"duplicate snap marker for op index "
                            f"{record['i']} (duplicated tail)",
                        )
                    last_snap = record["i"]
            else:
                raise RecoveryError(
                    offset, f"unknown journal record type {kind!r}"
                )

    @staticmethod
    def _suffix(scan, resume_from: int) -> list[tuple[int, dict]]:
        """Journal records the resumed replay will re-emit, in order.

        Records for ops before the snapshot are history the snapshot
        already embodies; the snap marker *at* the resume point was
        written just before the snapshot itself and is skipped too.
        """
        if scan is None:
            return []
        suffix: list[tuple[int, dict]] = []
        for offset, record in scan.records:
            if record["t"] == "snap":
                if record["i"] > resume_from:
                    suffix.append((offset, record))
            elif record["i"] >= resume_from:
                suffix.append((offset, record))
        return suffix


def run_journaled(
    scenario: VerifyScenario,
    seed: int,
    run_dir: str | Path,
    *,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    barrier: Barrier | None = None,
    durability: str = "fsync",
) -> ReplayOutcome:
    """Execute one seeded workload crash-consistently under ``run_dir``."""
    return JournaledRun(
        scenario,
        seed,
        run_dir,
        snapshot_every=snapshot_every,
        barrier=barrier,
        durability=durability,
    ).run()


def recover_and_continue(
    scenario: VerifyScenario,
    seed: int,
    run_dir: str | Path,
    *,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    barrier: Barrier | None = None,
    durability: str = "fsync",
) -> tuple[ReplayOutcome, RecoveryInfo]:
    """Recover a crashed run under ``run_dir`` and drive it to completion."""
    return JournaledRun(
        scenario,
        seed,
        run_dir,
        snapshot_every=snapshot_every,
        barrier=barrier,
        durability=durability,
    ).recover()
