"""Tests for the crash-consistency layer (`repro.recovery` + crash points).

Covers the journal framing (torn tail vs interior corruption), atomic
snapshots, RNG stream capture, the journaled run itself, every named
crash point, every byte-corruption mode, the hypothesis property that
recovery from a journal truncated at *any* byte offset reproduces the
uninterrupted outcome, and the audit-journal hookup in the simulation
runner.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.crashpoints import (
    CORRUPTION_MODES,
    CrashInjector,
    CrashSpec,
    SimulatedCrash,
    corrupt_journal,
)
from repro.recovery import run_crash_cycles
from repro.recovery.journal import (
    HEADER,
    MAGIC,
    MAX_RECORD_BYTES,
    JournalCorruption,
    JournalWriter,
    encode_record,
    read_journal,
    truncate_torn_tail,
)
from repro.recovery.run import (
    CRASH_POINTS,
    JournaledRun,
    RecoveryError,
    recover_and_continue,
    run_journaled,
)
from repro.recovery.snapshot import (
    SnapshotStore,
    capture_rng_state,
    restore_rng_state,
)
from repro.verify.oracle import diff_outcomes, replay_workload, workload_ops
from repro.verify.scenarios import get_scenario

TINY = get_scenario("tiny")
SEED = 7


def _assert_identical(baseline, outcome):
    found = diff_outcomes(baseline, outcome) + outcome.index_mismatches
    assert found == [], "\n".join(m.render() for m in found)


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted outcome every recovery must reproduce."""
    return replay_workload(
        TINY.topology(),
        workload_ops(TINY, SEED),
        variant="uninterrupted",
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One completed journaled run (default snapshot cadence) to copy from."""
    run_dir = tmp_path_factory.mktemp("completed")
    outcome = run_journaled(TINY, SEED, run_dir)
    return run_dir, outcome


@pytest.fixture(scope="module")
def flat_journal(tmp_path_factory):
    """Journal bytes of a run with NO snapshots (recovery replays from 0)."""
    run_dir = tmp_path_factory.mktemp("flat")
    run_journaled(TINY, SEED, run_dir, snapshot_every=10_000)
    return (run_dir / "journal.wal").read_bytes()


def _copy_run(src_dir, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src_dir, dst)
    return dst


# -- journal framing -------------------------------------------------------------


RECORDS = [
    {"t": "op", "i": 0, "op": "create", "vm": "a", "host": "bb-1"},
    {"t": "claim", "i": 1, "vm": "b", "amounts": {"vcpus": 4.0}},
    {"t": "snap", "i": 2},
]


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.wal"
    with JournalWriter(path) as writer:
        offsets = [writer.append(r) for r in RECORDS]
    assert writer.records_written == len(RECORDS)
    scan = read_journal(path)
    assert not scan.torn
    assert [r for _, r in scan.records] == RECORDS
    assert [off for off, _ in scan.records] == offsets
    assert offsets == sorted(offsets)
    assert offsets[0] == len(HEADER)
    assert scan.valid_end == path.stat().st_size


def test_journal_encoding_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.wal", tmp_path / "b.wal"
    for path in (a, b):
        with JournalWriter(path) as writer:
            for record in RECORDS:
                writer.append(record)
    assert a.read_bytes() == b.read_bytes()
    # Key order must not leak into the encoding.
    assert encode_record({"x": 1, "a": 2}) == encode_record({"a": 2, "x": 1})


def test_journal_missing_header_refused(tmp_path):
    path = tmp_path / "j.wal"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(JournalCorruption) as exc:
        read_journal(path)
    assert exc.value.offset == 0


def test_journal_unsupported_version_refused(tmp_path):
    path = tmp_path / "j.wal"
    path.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(JournalCorruption, match="format 99"):
        read_journal(path)


def _write_journal(path, records):
    with JournalWriter(path) as writer:
        for record in records:
            writer.append(record)


def test_torn_tail_detected_and_truncated(tmp_path):
    path = tmp_path / "j.wal"
    _write_journal(path, RECORDS)
    clean_size = path.stat().st_size
    garbage = struct.pack("<II", 500, 0) + b"partial"
    with open(path, "ab") as fh:
        fh.write(garbage)
    scan = read_journal(path)
    assert scan.torn
    assert scan.truncated_at == clean_size
    assert scan.truncated_reason == "incomplete record payload"
    assert [r for _, r in scan.records] == RECORDS
    removed = truncate_torn_tail(path, scan)
    assert removed == len(garbage)
    assert path.stat().st_size == clean_size
    assert not read_journal(path).torn


def test_tail_crc_damage_is_torn_but_interior_is_corruption(tmp_path):
    path = tmp_path / "j.wal"
    _write_journal(path, RECORDS)
    scan = read_journal(path)
    first_off, _ = scan.records[0]
    last_off, _ = scan.records[-1]
    frame = struct.calcsize("<II")

    data = bytearray(path.read_bytes())
    data[last_off + frame] ^= 0x01
    path.write_bytes(bytes(data))
    damaged = read_journal(path)
    assert damaged.torn
    assert damaged.truncated_at == last_off
    assert damaged.truncated_reason == "CRC mismatch in tail record"
    assert len(damaged.records) == len(RECORDS) - 1

    _write_journal(tmp_path / "j2.wal", RECORDS)
    data = bytearray((tmp_path / "j2.wal").read_bytes())
    data[first_off + frame] ^= 0x01
    (tmp_path / "j2.wal").write_bytes(bytes(data))
    with pytest.raises(JournalCorruption) as exc:
        read_journal(tmp_path / "j2.wal")
    assert exc.value.offset == first_off
    assert "interior" in exc.value.reason


def test_implausible_length_is_a_torn_tail(tmp_path):
    path = tmp_path / "j.wal"
    _write_journal(path, RECORDS)
    clean_size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0) + b"xxxx")
    scan = read_journal(path)
    assert scan.torn
    assert scan.truncated_at == clean_size
    assert "implausible record length" in scan.truncated_reason


# -- snapshots -------------------------------------------------------------------


def test_snapshot_roundtrip_newest_wins_and_prune(tmp_path):
    store = SnapshotStore(tmp_path / "snaps", keep=2)
    for i, payload in ((10, "a"), (20, "b"), (30, "c")):
        store.write(i, {"completed": i, "tag": payload})
    loaded = store.load_latest()
    assert loaded == (30, {"completed": 30, "tag": "c"})
    remaining = sorted(p.name for p in (tmp_path / "snaps").glob("snap-*"))
    assert remaining == ["snap-00000020.json", "snap-00000030.json"]


def test_snapshot_damaged_newest_is_skipped(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    store.write(10, {"completed": 10})
    newest = store.write(20, {"completed": 20})
    newest.write_text(newest.read_text()[: len(newest.read_text()) // 2])
    assert store.load_latest() == (10, {"completed": 10})


def test_snapshot_crash_mid_write_leaves_previous_intact(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    store.write(10, {"completed": 10})

    def crash(point):
        assert point == "mid-snapshot"
        raise SimulatedCrash(point, 20)

    with pytest.raises(SimulatedCrash):
        store.write(20, {"completed": 20}, barrier=crash)
    # The interrupted commit left only a .tmp file, which load ignores.
    assert store.load_latest() == (10, {"completed": 10})
    assert list((tmp_path / "snaps").glob("*.tmp"))
    # A retried commit under the same index succeeds.
    store.write(20, {"completed": 20})
    assert store.load_latest() == (20, {"completed": 20})


def test_snapshot_keep_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="at least one"):
        SnapshotStore(tmp_path / "snaps", keep=0)


def test_rng_capture_resumes_mid_sequence():
    rng = np.random.default_rng(SEED)
    rng.uniform(size=3)
    frozen = json.loads(json.dumps(capture_rng_state(rng)))  # JSON-able
    expected = rng.uniform(size=5)
    resumed = np.random.default_rng(0)
    restore_rng_state(resumed, frozen)
    assert np.array_equal(resumed.uniform(size=5), expected)


# -- journaled run ---------------------------------------------------------------


def test_journaled_run_matches_uninterrupted_baseline(completed_run, baseline):
    _, outcome = completed_run
    _assert_identical(baseline, outcome)


def test_journaled_run_writes_valid_journal_and_snapshots(completed_run):
    run_dir, _ = completed_run
    scan = read_journal(run_dir / "journal.wal")
    assert not scan.torn
    n_ops = len(workload_ops(TINY, SEED))
    ops = [r for _, r in scan.records if r["t"] == "op"]
    assert [r["i"] for r in ops] == list(range(n_ops))
    assert any(r["t"] == "claim" for _, r in scan.records)
    assert any(r["t"] == "release" for _, r in scan.records)
    snaps = [r for _, r in scan.records if r["t"] == "snap"]
    assert [r["i"] for r in snaps] == [
        i for i in range(1, n_ops + 1) if i % 25 == 0
    ]
    store = SnapshotStore(run_dir / "snapshots")
    loaded = store.load_latest()
    assert loaded is not None and loaded[0] == snaps[-1]["i"]


def test_recover_clean_run_verifies_whole_suffix(
    completed_run, baseline, tmp_path
):
    """Recovery of an *uncrashed* run appends nothing and changes nothing."""
    run_dir, _ = completed_run
    workdir = _copy_run(run_dir, tmp_path)
    outcome, info = recover_and_continue(TINY, SEED, workdir)
    _assert_identical(baseline, outcome)
    n_ops = len(workload_ops(TINY, SEED))
    assert info.snapshot_op_index == (n_ops // 25) * 25
    assert info.replayed_ops == n_ops - info.snapshot_op_index
    assert info.appended_records == 0
    assert info.truncated_at is None
    assert info.bytes_truncated == 0


def test_recover_from_nothing_is_a_cold_start(baseline, tmp_path):
    outcome, info = recover_and_continue(TINY, SEED, tmp_path / "fresh")
    _assert_identical(baseline, outcome)
    assert info.snapshot_op_index == 0
    assert info.verified_records == 0
    assert info.appended_records > 0


# -- crash points ----------------------------------------------------------------


def _crash_op(point):
    n_ops = len(workload_ops(TINY, SEED))
    mid = n_ops // 2
    if point.endswith("snapshot"):
        return min((mid // 25 + 1) * 25, n_ops) - 1
    return mid


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_then_recover_is_field_identical(point, baseline, tmp_path):
    at_op = _crash_op(point)
    injector = CrashInjector(CrashSpec(point, at_op))
    with pytest.raises(SimulatedCrash) as exc:
        run_journaled(TINY, SEED, tmp_path, barrier=injector)
    assert exc.value.point == point
    assert exc.value.at_op == at_op
    outcome, info = recover_and_continue(TINY, SEED, tmp_path)
    _assert_identical(baseline, outcome)
    assert info.snapshot_op_index <= at_op + 1
    n_ops = len(workload_ops(TINY, SEED))
    assert info.snapshot_op_index + info.replayed_ops == n_ops


def test_crash_spec_validation():
    with pytest.raises(ValueError, match="unknown crash point"):
        CrashSpec("mid-lunch", 3)
    with pytest.raises(ValueError, match="at_op"):
        CrashSpec("pre-op", -1)


def test_crash_injector_fires_exactly_once():
    injector = CrashInjector(CrashSpec("post-apply", 1))
    injector("pre-op")  # op 0
    injector("post-apply")
    injector("pre-op")  # op 1
    with pytest.raises(SimulatedCrash):
        injector("post-apply")
    assert injector.fired
    # Inert afterwards: the recovery pass re-fires the same barriers.
    injector("pre-op")
    injector("post-apply")


# -- byte-level corruption -------------------------------------------------------


def test_truncated_journal_recovers_through_torn_tail(
    completed_run, baseline, tmp_path
):
    workdir = _copy_run(completed_run[0], tmp_path)
    offset = corrupt_journal(workdir / "journal.wal", "truncate")
    outcome, info = recover_and_continue(TINY, SEED, workdir)
    _assert_identical(baseline, outcome)
    assert info.truncated_at is not None
    assert info.truncated_at <= offset
    assert info.bytes_truncated > 0


def test_bitflip_interior_refused_with_named_offset(completed_run, tmp_path):
    workdir = _copy_run(completed_run[0], tmp_path)
    corrupt_journal(workdir / "journal.wal", "bitflip-interior")
    with pytest.raises(JournalCorruption) as exc:
        recover_and_continue(TINY, SEED, workdir)
    assert exc.value.offset == len(HEADER)  # the first record
    assert "interior" in exc.value.reason


def test_duplicated_tail_refused_with_named_offset(completed_run, tmp_path):
    workdir = _copy_run(completed_run[0], tmp_path)
    offset = corrupt_journal(workdir / "journal.wal", "dup-tail")
    with pytest.raises(RecoveryError) as exc:
        recover_and_continue(TINY, SEED, workdir)
    assert exc.value.offset == offset
    assert "duplicate" in exc.value.reason or "duplicated" in exc.value.reason


def test_semantic_tampering_refused_as_divergence(tmp_path, baseline):
    """A record with valid framing but altered *content* is refused."""
    run_journaled(TINY, SEED, tmp_path, snapshot_every=10_000)
    path = tmp_path / "journal.wal"
    records = [r for _, r in read_journal(path).records]
    victim = next(
        i
        for i, r in enumerate(records)
        if r["t"] == "op" and r["op"] == "create" and r.get("host")
    )
    records[victim] = dict(records[victim], host="bb-somewhere-else")
    with open(path, "wb") as fh:
        fh.write(HEADER)
        for record in records:
            fh.write(encode_record(record))
    tampered_offset = read_journal(path).records[victim][0]
    with pytest.raises(RecoveryError) as exc:
        recover_and_continue(TINY, SEED, tmp_path, snapshot_every=10_000)
    assert exc.value.offset == tampered_offset
    assert "diverged" in exc.value.reason


def test_corrupt_journal_rejects_unknown_mode(completed_run, tmp_path):
    workdir = _copy_run(completed_run[0], tmp_path)
    with pytest.raises(ValueError, match="unknown corruption mode"):
        corrupt_journal(workdir / "journal.wal", "set-on-fire")


# -- the headline property -------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_recovery_from_any_truncation_offset_is_identical(
    data, flat_journal, baseline
):
    """Cut the journal at *any* byte — mid-header even, mid-record,
    mid-frame — and recovery still reproduces the uninterrupted outcome.

    Offsets below ``len(HEADER)`` are the power-cut-before-first-fsync
    artifact: a strict header prefix is torn at 0, not corruption, and
    recovery rewrites the header and replays from nothing.  The durability
    mode is drawn too — the guarantee is identical for both; fsync only
    changes *when* bytes harden, never what a valid journal means."""
    offset = data.draw(
        st.integers(min_value=0, max_value=len(flat_journal)),
        label="truncation offset",
    )
    durability = data.draw(
        st.sampled_from(("fsync", "flush")), label="durability"
    )
    workdir = tempfile.mkdtemp(prefix="repro-recovery-prop-")
    try:
        journal = f"{workdir}/journal.wal"
        with open(journal, "wb") as fh:
            fh.write(flat_journal[:offset])
        intact_before = len(read_journal(journal).records)
        outcome, info = recover_and_continue(
            TINY, SEED, workdir, snapshot_every=10_000, durability=durability
        )
        _assert_identical(baseline, outcome)
        # No snapshots: every surviving record is verified by replay, and
        # everything lost to the cut is regenerated.
        assert info.snapshot_op_index == 0
        assert info.verified_records == intact_before
        scan = read_journal(journal)
        assert not scan.torn
        assert [r for _, r in scan.records] == [
            r for _, r in read_journal_bytes(flat_journal)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def read_journal_bytes(data: bytes):
    """Scan journal *bytes* by round-tripping through a temp file."""
    with tempfile.NamedTemporaryFile(suffix=".wal") as fh:
        fh.write(data)
        fh.flush()
        return read_journal(fh.name).records


# -- harness + report ------------------------------------------------------------


def test_run_crash_cycles_full_battery():
    report = run_crash_cycles(TINY, [SEED])
    assert report.ok, report.render()
    assert len(report.cycles) == len(CRASH_POINTS)
    assert all(c.crashed and c.recovered and c.field_identical
               for c in report.cycles)
    by_mode = {c.mode: c for c in report.corruption}
    assert set(by_mode) == set(CORRUPTION_MODES)
    assert by_mode["truncate"].outcome == "recovered-torn"
    assert by_mode["bitflip-tail"].outcome == "recovered-torn"
    assert by_mode["bitflip-interior"].outcome == "refused"
    assert by_mode["dup-tail"].outcome == "refused"
    for case in report.corruption:
        assert case.detected_at is not None

    payload = report.to_json()
    parsed = json.loads(payload)
    assert parsed["ok"] is True
    # Byte-stable: no filesystem paths or timestamps leak into the report.
    assert "repro-crash-" not in payload
    assert "/tmp" not in payload


def test_crash_report_render_names_points_and_modes():
    report = run_crash_cycles(
        TINY, [SEED], points=("post-journal",), corruption_modes=("truncate",)
    )
    text = report.render()
    assert "crash@post-journal" in text
    assert "corrupt@truncate" in text
    assert text.endswith("result: OK")


# -- simulation audit journal + service state round-trips ------------------------


def _small_chaos_config():
    from repro.resilience.chaos import ChaosConfig

    return ChaosConfig(duration_days=0.05)


def _build_chaos_sim(journal=None):
    from repro.resilience.chaos import chaos_topology
    from repro.simulation.runner import RegionSimulation, SimulationConfig

    config = _small_chaos_config()
    return RegionSimulation(
        chaos_topology(config),
        SimulationConfig(
            duration_days=config.duration_days,
            scrape_interval_s=config.scrape_interval_s,
            drs_interval_s=config.drs_interval_s,
            arrival_rate_per_hour=config.arrival_rate_per_hour,
            initial_vms=config.initial_vms,
            seed=config.seed,
            faults=config.faults,
            resilience=config.resilience,
        ),
        journal=journal,
    )


@pytest.fixture(scope="module")
def audited_chaos_run():
    """One small chaos run with every audit record captured, plus the sim."""
    records: list[dict] = []
    sim = _build_chaos_sim(journal=records.append)
    result = sim.run()
    return sim, result, records


def test_sim_audit_journal_counts_match_reports(audited_chaos_run):
    """Every control-plane mutation leaves exactly one audit record."""
    _, result, records = audited_chaos_run
    by_type: dict[str, int] = {}
    for record in records:
        by_type[record["t"]] = by_type.get(record["t"], 0) + 1
    assert by_type["clock"] == result.events_processed
    stats = result.placement.stats()
    # A move journals one claim + one release on top of the plain ones.
    assert by_type["claim"] == stats["claims"] + stats["moves"]
    assert by_type["release"] == stats["releases"] + stats["moves"]
    report = result.resilience_report
    assert by_type.get("quarantine", 0) == report.quarantines
    assert by_type.get("readmit", 0) == report.readmissions
    admissions = [r for r in records if r["t"] == "admission"]
    admits = sum(1 for r in admissions if r["decision"] == "admit")
    sheds = sum(1 for r in admissions if r["decision"] == "shed")
    assert admits == report.requests_admitted
    assert sheds == report.total_shed
    assert all("reason" in r for r in admissions if r["decision"] == "shed")


def test_sim_audit_records_survive_a_real_journal(audited_chaos_run, tmp_path):
    """The audit stream is JSON-able and frames cleanly through the WAL."""
    _, _, records = audited_chaos_run
    path = tmp_path / "audit.wal"
    with JournalWriter(path) as writer:
        for record in records:
            writer.append(record)
    scan = read_journal(path)
    assert not scan.torn
    assert len(scan.records) == len(records)
    assert [r for _, r in scan.records] == records


def test_health_state_export_restore_roundtrip(audited_chaos_run):
    sim, _, _ = audited_chaos_run
    state = sim.health.export_state()
    assert state["records"], "chaos run must exercise the health service"
    twin = _build_chaos_sim()
    assert twin.health.export_state() != state
    twin.health.restore_state(json.loads(json.dumps(state)))
    assert twin.health.export_state() == state
    # Scheduler-visible fences follow the restored record states.
    quarantined = {
        node_id
        for node_id, rec in state["records"].items()
        if rec["state"] == "quarantined"
    }
    for bb in twin.region.iter_building_blocks():
        for node in bb.iter_nodes():
            assert node.quarantined == (node.node_id in quarantined)


def test_admission_state_export_restore_roundtrip(audited_chaos_run):
    sim, _, _ = audited_chaos_run
    state = sim.admission.export_state()
    twin = _build_chaos_sim()
    twin.admission.restore_state(json.loads(json.dumps(state)))
    assert twin.admission.export_state() == state
