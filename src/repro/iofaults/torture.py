"""Durability torture: seeded IO-fault × crash schedules for every artifact.

For each seed the harness derives a battery of randomized-but-seeded
*schedules* (``numpy`` Generator per (seed, index) — two runs of the
same config produce byte-identical reports) and drives every persistent
artifact in the repo through them:

- **wal** — a :class:`~repro.recovery.run.JournaledRun` executed under
  injected journal faults (ENOSPC / EIO / short writes on append,
  fsync failures and *lies* on commit), optionally interleaved with a
  :class:`~repro.faults.crashpoints.CrashSpec` kill, then power-cut
  (un-fsynced tail dropped, exactly as a real disk would), then
  recovered fault-free.  The recovered outcome must be field-identical
  to the uninterrupted baseline.
- **snapshot** — a :class:`~repro.recovery.snapshot.SnapshotStore`
  commit under faults at write/fsync/rename/dirsync; after a power cut
  ``load_latest`` must return the *old or the new* snapshot, never a
  torn one and never nothing.
- **report** — ``write_report`` under the same fault surface; the file
  on disk must afterwards hold the old or the new canonical bytes.
- **golden** — golden-store writes (old-or-new contract) and reads
  (EIO must surface as a structured :class:`IoFaultError`).
- **sweep-journal** — synthesized sweep resume records appended under
  faults and power cut; ``load_resume`` must hand back an intact
  *prefix* of what was acknowledged, or refuse structurally.

The invariant every case asserts is the tentpole's contract: an
injected-fault schedule ends in **byte-identical recovery or a
structured error naming its IO point** — never a raw traceback, never
a torn artifact that later parses.  Case details carry fault kinds and
IO points only (no filesystem paths), keeping the report byte-stable.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.faults.crashpoints import CrashInjector, CrashSpec, SimulatedCrash
from repro.iofaults.layer import FaultSpec, FaultyIO, IoFaultError, inject
from repro.recovery.journal import JournalWriter
from repro.recovery.run import CRASH_POINTS, JournaledRun, recover_and_continue
from repro.recovery.snapshot import SnapshotStore
from repro.reporting import ReportBase, canonical_json, write_report
from repro.verify.goldens import read_golden_text, write_golden_text
from repro.verify.oracle import diff_outcomes, replay_workload, workload_ops
from repro.verify.scenarios import get_scenario

#: Every persistent artifact the repo writes, torture-case vocabulary.
ARTIFACTS = ("wal", "snapshot", "report", "golden", "sweep-journal")

#: Fault kinds applicable per IO-operation family.
_WRITE_KINDS = ("enospc", "eio-write", "short-write")
_FSYNC_KINDS = ("fsync-fail", "fsync-lie")
_RENAME_KINDS = ("rename-fail", "rename-lost")


@dataclass(frozen=True)
class TortureConfig:
    """One torture invocation: scenario × seeds × schedules-per-seed."""

    scenario: str = "tiny"
    seeds: tuple[int, ...] = (7,)
    schedules: int = 15
    snapshot_every: int = 10
    durability: str = "fsync"

    def __post_init__(self) -> None:
        from repro.recovery.journal import DURABILITY_MODES

        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability {self.durability!r}; "
                f"known: {', '.join(DURABILITY_MODES)}"
            )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "schedules": self.schedules,
            "snapshot_every": self.snapshot_every,
            "durability": self.durability,
        }


@dataclass
class TortureCase:
    """One fault schedule applied to one artifact."""

    seed: int
    index: int
    artifact: str
    #: The scheduled faults (point/op/kind/at_byte), in spec order.
    faults: list[dict]
    #: Interleaved crash-point kill, when the schedule drew one.
    crash: dict | None
    power_cut: bool
    #: ``kind@point`` of every fault that actually fired, in order.
    fired: list[str]
    #: recovered-identical | intact-new | intact-old | intact-prefix |
    #: structured-error | diverged | torn-artifact | unstructured-error |
    #: refused
    outcome: str
    detail: str
    ok: bool

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "artifact": self.artifact,
            "faults": self.faults,
            "crash": self.crash,
            "power_cut": self.power_cut,
            "fired": self.fired,
            "outcome": self.outcome,
            "detail": self.detail,
            "ok": self.ok,
        }


@dataclass
class TortureReport(ReportBase):
    """Everything one ``repro torture`` invocation proved (or failed to)."""

    config: TortureConfig
    cases: list[TortureCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def to_dict(self) -> dict:
        outcomes: dict[str, int] = {}
        for case in self.cases:
            outcomes[case.outcome] = outcomes.get(case.outcome, 0) + 1
        return {
            "config": self.config.to_dict(),
            "cases": [case.to_dict() for case in self.cases],
            "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
            "ok": self.ok,
        }

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"durability torture: scenario {cfg.scenario}, seeds "
            f"{','.join(str(s) for s in cfg.seeds)}, "
            f"{cfg.schedules} schedules/seed, durability={cfg.durability}"
        ]
        for case in self.cases:
            fired = ",".join(case.fired) or "none"
            verdict = "OK" if case.ok else "FAILED"
            lines.append(
                f"  seed {case.seed} #{case.index} {case.artifact}: "
                f"fired {fired}"
                + (f" + crash@{case.crash['point']}" if case.crash else "")
                + (" + power-cut" if case.power_cut else "")
                + f" -> {case.outcome} — {verdict}"
            )
            if case.detail and not case.ok:
                lines.append(f"    {case.detail}")
        lines.append(f"result: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _classify(exc: BaseException | None) -> str:
    """Structured-error vocabulary for whatever the faulted stage raised."""
    if exc is None:
        return ""
    if isinstance(exc, IoFaultError):
        return f"{exc.kind}@{exc.point} ({exc.op})"
    return f"{type(exc).__name__}"


def _draw_fault(rng, point: str, *, no_lie: bool = False) -> FaultSpec:
    """One seeded FaultSpec matched to what the point's operations allow.

    ``no_lie`` excludes ``fsync-lie`` — for artifacts committed by
    renaming over their *only* copy (reports, goldens), a disk that
    acknowledges the content fsync without persisting destroys old and
    new alike on power loss; no commit protocol survives that, so the
    torture contract does not pretend to (multi-file stores — the
    journal, the snapshot set — do survive it and are tortured with it).
    """
    if point.endswith((".append", ".write", ".header")):
        kinds = _WRITE_KINDS
    elif point.endswith((".fsync", ".flush", ".dirsync")):
        kinds = ("fsync-fail",) if no_lie else _FSYNC_KINDS
    elif point.endswith(".rename"):
        kinds = _RENAME_KINDS
    else:
        kinds = ("eio-read",)
    kind = kinds[int(rng.integers(0, len(kinds)))]
    # Journal points fire once per record — spread the fault across the
    # run.  Atomic-commit points fire once per commit (``.write`` twice:
    # the open at op 0, the payload at op 1), so pin them there.
    if point.startswith(("journal.", "sweep-journal.")):
        op_index = int(rng.integers(0, 40))
    elif point.endswith(".write"):
        op_index = int(rng.integers(0, 2))
    else:
        op_index = 0
    at_byte = int(rng.integers(1, 64)) if kind == "short-write" else None
    return FaultSpec(point=point, op_index=op_index, kind=kind, at_byte=at_byte)


@dataclass
class _ToyReport(ReportBase):
    """Minimal report the report-artifact cases write under fault."""

    payload: dict

    def to_dict(self) -> dict:
        return dict(self.payload)


def run_torture(
    config: TortureConfig,
    progress: Callable[[str], None] | None = None,
) -> TortureReport:
    """Run the full torture battery; returns a byte-stable report."""
    scenario = get_scenario(config.scenario)
    report = TortureReport(config=config)
    for seed in config.seeds:
        baseline = None  # computed lazily: only wal schedules need it
        for k in range(config.schedules):
            artifact = ARTIFACTS[k % len(ARTIFACTS)]
            rng = np.random.default_rng(seed * 1_000_003 + k)
            if progress is not None:
                progress(f"seed {seed}: schedule #{k} ({artifact})")
            if artifact == "wal":
                if baseline is None:
                    ops = workload_ops(scenario, seed)
                    baseline = replay_workload(
                        scenario.topology(), ops, variant="uninterrupted"
                    )
                case = _wal_case(scenario, seed, k, rng, config, baseline)
            elif artifact == "snapshot":
                case = _snapshot_case(seed, k, rng)
            elif artifact == "report":
                case = _report_case(seed, k, rng)
            elif artifact == "golden":
                case = _golden_case(seed, k, rng)
            else:
                case = _sweep_journal_case(seed, k, rng)
            report.cases.append(case)
    return report


# -- per-artifact drivers ---------------------------------------------------


def _wal_case(
    scenario, seed, index, rng, config: TortureConfig, baseline
) -> TortureCase:
    specs = [
        _draw_fault(
            rng,
            ("journal.append", "journal.fsync")[int(rng.integers(0, 2))],
        )
        for _ in range(int(rng.integers(1, 3)))
    ]
    crash = None
    if rng.random() < 0.5:
        n_ops = len(workload_ops(scenario, seed))
        crash = CrashSpec(
            point=CRASH_POINTS[int(rng.integers(0, len(CRASH_POINTS)))],
            at_op=int(rng.integers(0, n_ops)),
        )
    workdir = tempfile.mkdtemp(prefix="repro-torture-")
    faulty = FaultyIO(specs)
    error: BaseException | None = None
    try:
        barrier = CrashInjector(crash) if crash is not None else None
        with inject(faulty):
            try:
                JournaledRun(
                    scenario,
                    seed,
                    workdir,
                    snapshot_every=config.snapshot_every,
                    barrier=barrier,
                    durability=config.durability,
                ).run()
            except (SimulatedCrash, IoFaultError) as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 - contract violation
                return _finish_wal(
                    seed, index, specs, crash, faulty,
                    "unstructured-error",
                    f"faulted run leaked {type(exc).__name__}", False,
                    workdir,
                )
            faulty.power_cut()
        try:
            outcome, _info = recover_and_continue(
                scenario,
                seed,
                workdir,
                snapshot_every=config.snapshot_every,
                durability=config.durability,
            )
        except Exception as exc:  # noqa: BLE001 - refusal is a failure here
            return _finish_wal(
                seed, index, specs, crash, faulty,
                "refused",
                f"recovery refused after {_classify(error) or 'clean run'}: "
                f"{type(exc).__name__}",
                False, workdir,
            )
        found = diff_outcomes(baseline, outcome) + outcome.index_mismatches
        if found:
            return _finish_wal(
                seed, index, specs, crash, faulty,
                "diverged",
                f"{len(found)} field mismatches after recovery",
                False, workdir,
            )
        return _finish_wal(
            seed, index, specs, crash, faulty,
            "recovered-identical", _classify(error), True, workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _finish_wal(
    seed, index, specs, crash, faulty, outcome, detail, ok, workdir
) -> TortureCase:
    return TortureCase(
        seed=seed,
        index=index,
        artifact="wal",
        faults=[s.to_dict() for s in specs],
        crash=(
            {"point": crash.point, "at_op": crash.at_op}
            if crash is not None
            else None
        ),
        power_cut=True,
        fired=list(faulty.fired),
        outcome=outcome,
        detail=detail,
        ok=ok,
    )


def _old_or_new_case(
    seed: int,
    index: int,
    artifact: str,
    specs: list[FaultSpec],
    faulty: FaultyIO,
    power_cut: bool,
    error: BaseException | None,
    state: str,  # "old" | "new" | "torn"
    detail_extra: str = "",
) -> TortureCase:
    """Shared verdict for the commit-must-be-atomic artifacts."""
    if error is not None and not isinstance(error, IoFaultError):
        outcome, ok = "unstructured-error", False
        detail = f"write leaked {type(error).__name__}"
    elif state == "new":
        outcome, ok, detail = "intact-new", True, _classify(error)
    elif state == "old":
        # Old content surviving is only legal if the write failed
        # structurally or the power cut rolled an un-synced rename back.
        ok = error is not None or power_cut
        outcome = "intact-old" if ok else "torn-artifact"
        detail = _classify(error) if ok else "new write acked but lost"
    else:
        outcome, ok = "torn-artifact", False
        detail = f"artifact neither old nor new after {_classify(error)}"
    if detail_extra:
        detail = f"{detail} [{detail_extra}]" if detail else detail_extra
    return TortureCase(
        seed=seed,
        index=index,
        artifact=artifact,
        faults=[s.to_dict() for s in specs],
        crash=None,
        power_cut=power_cut,
        fired=list(faulty.fired),
        outcome=outcome,
        detail=detail,
        ok=ok,
    )


_SNAPSHOT_POINTS = (
    "snapshot.write",
    "snapshot.fsync",
    "snapshot.rename",
    "snapshot.dirsync",
)


def _snapshot_case(seed, index, rng) -> TortureCase:
    point = _SNAPSHOT_POINTS[int(rng.integers(0, len(_SNAPSHOT_POINTS)))]
    specs = [_draw_fault(rng, point)]
    power_cut = bool(rng.random() < 0.5)
    workdir = Path(tempfile.mkdtemp(prefix="repro-torture-"))
    try:
        old_state = {"v": int(seed), "k": "old"}
        new_state = {"v": int(seed), "k": "new", "i": int(index)}
        store = SnapshotStore(workdir)
        store.write(1, old_state)
        faulty = FaultyIO(specs)
        error: BaseException | None = None
        with inject(faulty):
            store_faulty = SnapshotStore(workdir, io=faulty)
            try:
                store_faulty.write(2, new_state)
            except BaseException as exc:  # noqa: BLE001 - classified below
                error = exc
            if power_cut:
                faulty.power_cut()
        loaded = SnapshotStore(workdir).load_latest()
        if loaded == (2, new_state):
            state = "new"
        elif loaded == (1, old_state):
            state = "old"
        else:
            state = "torn"
        return _old_or_new_case(
            seed, index, "snapshot", specs, faulty, power_cut, error, state
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


_REPORT_POINTS = (
    "report.write",
    "report.fsync",
    "report.rename",
    "report.dirsync",
)


def _report_case(seed, index, rng) -> TortureCase:
    point = _REPORT_POINTS[int(rng.integers(0, len(_REPORT_POINTS)))]
    specs = [_draw_fault(rng, point, no_lie=point.endswith(".fsync"))]
    power_cut = bool(rng.random() < 0.5)
    workdir = Path(tempfile.mkdtemp(prefix="repro-torture-"))
    try:
        path = workdir / "report.json"
        old = _ToyReport({"seed": int(seed), "k": "old"})
        new = _ToyReport({"seed": int(seed), "k": "new", "i": int(index)})
        write_report(old, path)
        faulty = FaultyIO(specs)
        error: BaseException | None = None
        with inject(faulty):
            try:
                write_report(new, path)
            except BaseException as exc:  # noqa: BLE001 - classified below
                error = exc
            if power_cut:
                faulty.power_cut()
        text = path.read_text()
        if text == canonical_json(new.to_dict()):
            state = "new"
        elif text == canonical_json(old.to_dict()):
            state = "old"
        else:
            state = "torn"
        return _old_or_new_case(
            seed, index, "report", specs, faulty, power_cut, error, state
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


_GOLDEN_POINTS = (
    "golden.read",
    "golden.write",
    "golden.fsync",
    "golden.rename",
    "golden.dirsync",
)


def _golden_case(seed, index, rng) -> TortureCase:
    point = _GOLDEN_POINTS[int(rng.integers(0, len(_GOLDEN_POINTS)))]
    specs = [_draw_fault(rng, point, no_lie=point.endswith(".fsync"))]
    power_cut = bool(rng.random() < 0.5)
    workdir = Path(tempfile.mkdtemp(prefix="repro-torture-"))
    try:
        path = workdir / f"torture-seed{seed}.json.gz"
        old_text = f"old golden {seed}\n"
        new_text = f"new golden {seed}/{index}\n"
        write_golden_text(path, old_text)
        faulty = FaultyIO(specs)
        error: BaseException | None = None
        read_back: str | None = None
        with inject(faulty):
            try:
                if point == "golden.read":
                    read_back = read_golden_text(path)
                else:
                    write_golden_text(path, new_text)
            except BaseException as exc:  # noqa: BLE001 - classified below
                error = exc
            if power_cut:
                faulty.power_cut()
        if point == "golden.read":
            # An injected EIO must surface structurally; a schedule that
            # missed (op_index past the single read) returns the text.
            if isinstance(error, IoFaultError):
                outcome, ok, detail = "structured-error", True, _classify(error)
            elif error is not None:
                outcome, ok = "unstructured-error", False
                detail = f"read leaked {type(error).__name__}"
            elif read_back == old_text:
                outcome, ok, detail = "intact-old", True, ""
            else:
                outcome, ok, detail = "torn-artifact", False, "read text wrong"
            return TortureCase(
                seed=seed,
                index=index,
                artifact="golden",
                faults=[s.to_dict() for s in specs],
                crash=None,
                power_cut=power_cut,
                fired=list(faulty.fired),
                outcome=outcome,
                detail=detail,
                ok=ok,
            )
        text = read_golden_text(path)
        state = (
            "new" if text == new_text else "old" if text == old_text else "torn"
        )
        return _old_or_new_case(
            seed, index, "golden", specs, faulty, power_cut, error, state
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _sweep_journal_case(seed, index, rng) -> TortureCase:
    from repro.sweep import grid_from_dict
    from repro.sweep.engine import SweepResumeError, load_resume

    point = (
        "sweep-journal.append", "sweep-journal.fsync"
    )[int(rng.integers(0, 2))]
    specs = [_draw_fault(rng, point)]
    power_cut = bool(rng.random() < 0.5)
    workdir = Path(tempfile.mkdtemp(prefix="repro-torture-"))
    try:
        # Grid construction only builds specs — no simulation runs; the
        # records below are synthetic but carry the real spec hashes
        # load_resume validates against.
        grid = grid_from_dict(
            {
                "base": {
                    "duration_days": 0.05,
                    "building_blocks": 2,
                    "nodes_per_bb": 2,
                    "initial_vms": 4,
                },
                "seeds": [int(seed), int(seed) + 1, int(seed) + 2],
            }
        )
        path = workdir / "sweep.wal"
        faulty = FaultyIO(specs)
        error: BaseException | None = None
        acked: list[str] = []
        with inject(faulty):
            writer = None
            try:
                writer = JournalWriter(path, label="sweep-journal")
                writer.append(
                    {
                        "type": "sweep-header",
                        "format": 1,
                        "grid_sha256": grid.sha256,
                    }
                )
                for cell in grid.cells:
                    writer.append(
                        {
                            "type": "cell",
                            "record": {
                                "cell_id": cell.cell_id,
                                "spec_sha256": cell.sha256(),
                                "stats": {"i": int(index)},
                            },
                        }
                    )
                    acked.append(cell.cell_id)
            except BaseException as exc:  # noqa: BLE001 - classified below
                error = exc
            finally:
                if writer is not None:
                    with contextlib.suppress(OSError):
                        writer.close()
            if power_cut:
                faulty.power_cut()
        if error is not None and not isinstance(error, IoFaultError):
            outcome, ok = "unstructured-error", False
            detail = f"journal write leaked {type(error).__name__}"
        else:
            try:
                completed = load_resume(path, grid)
            except SweepResumeError:
                outcome, ok = "refused", False
                detail = f"resume refused after {_classify(error)}"
            else:
                attempted = [c.cell_id for c in grid.cells]
                recovered = [
                    c for c in attempted if c in completed
                ]
                # Resume may see fewer cells than acknowledged (a lying
                # fsync) or one more than acknowledged (a failed append
                # whose bytes landed anyway) — but always a *prefix* of
                # the attempted order, never invented or reordered.
                if recovered == attempted[: len(recovered)]:
                    outcome, ok = "intact-prefix", True
                    detail = _classify(error)
                else:
                    outcome, ok = "torn-artifact", False
                    detail = (
                        f"resume returned {len(recovered)} cells out of "
                        f"order ({len(acked)} acked)"
                    )
        return TortureCase(
            seed=seed,
            index=index,
            artifact="sweep-journal",
            faults=[s.to_dict() for s in specs],
            crash=None,
            power_cut=power_cut,
            fired=list(faulty.fired),
            outcome=outcome,
            detail=detail,
            ok=ok,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
