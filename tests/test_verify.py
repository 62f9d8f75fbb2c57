"""Tests for the differential verification harness (`repro.verify`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scheduler.hoststate import HostState
from repro.verify.goldens import (
    check_golden,
    golden_document,
    read_golden_text,
    render_document,
    update_golden,
    write_golden_text,
)
from repro.verify.metamorphic import (
    check_block_split_invariance,
    check_capacity_monotonicity,
    check_downsample_idempotence,
    check_host_permutation_invariance,
    check_staleness_monotonicity,
)
from repro.verify.oracle import (
    Mismatch,
    desync_index,
    diff_outcomes,
    replay_workload,
    run_oracle,
    workload_ops,
)
from repro.verify.runner import VerifyConfig, run_verify
from repro.verify.scenarios import SCENARIOS, get_scenario

TINY = get_scenario("tiny")


# -- scenarios -------------------------------------------------------------------


def test_scenario_registry_catalogue():
    assert {"tiny", "default", "dense"} <= set(SCENARIOS)
    with pytest.raises(KeyError, match="known"):
        get_scenario("nope")


def test_grown_topology_adds_one_node_per_bb():
    base = TINY.topology()
    grown = TINY.grown_topology()
    for dc_base, dc_grown in zip(base.datacenters, grown.datacenters):
        for bb_base, bb_grown in zip(
            dc_base.building_blocks, dc_grown.building_blocks
        ):
            assert bb_grown.node_count == bb_base.node_count + 1


def test_permuted_topology_same_blocks_different_order():
    base = TINY.topology()
    perm = TINY.permuted_topology()

    def bb_ids(spec):
        return [bb.bb_id for dc in spec.datacenters for bb in dc.building_blocks]

    assert sorted(bb_ids(base)) == sorted(bb_ids(perm))
    assert bb_ids(base) != bb_ids(perm)


# -- workload --------------------------------------------------------------------


def test_workload_ops_deterministic_and_seed_sensitive():
    a = workload_ops(TINY, 7)
    b = workload_ops(TINY, 7)
    c = workload_ops(TINY, 8)
    assert a == b
    assert a != c
    creates = [op for op in a if op.op == "create"]
    deletes = [op for op in a if op.op == "delete"]
    assert len(creates) == TINY.requests
    assert deletes, "delete interleaving must exercise release paths"
    # Every delete targets a previously created VM.
    seen = set()
    for op in a:
        if op.op == "create":
            seen.add(op.vm_id)
        else:
            assert op.vm_id in seen


# -- differential oracle ---------------------------------------------------------


def test_oracle_clean_run_agrees():
    result = run_oracle(TINY, 7)
    assert result.ok, result.render()
    assert result.placed > 0
    assert result.ops == len(workload_ops(TINY, 7))


def test_oracle_catches_injected_desync():
    """Acceptance: a notification-silent index desync yields structured
    mismatches naming host, VM, and field."""
    result = run_oracle(TINY, 7, perturb=desync_index)
    assert not result.ok
    placements = [m for m in result.mismatches if m.check == "placements"]
    assert placements, "placement divergence must be reported"
    sample = placements[0]
    assert sample.subject.startswith("vf-7-")  # the VM
    assert sample.field == "host"
    assert sample.expected != sample.actual  # the two hosts
    index_state = [m for m in result.mismatches if m.check == "index_state"]
    assert index_state, "final index-vs-truth diff must fire"
    assert any(m.field == "num_instances" for m in index_state)
    assert all(m.subject for m in index_state)  # host named


def test_oracle_desync_detected_on_every_scenario():
    for name in ("tiny", "default"):
        result = run_oracle(get_scenario(name), 8, perturb=desync_index)
        assert not result.ok, f"desync invisible on {name}"


def test_mismatch_to_dict_is_jsonable():
    m = Mismatch(
        check="index_state",
        variant="indexed",
        subject="bb-0",
        field="tenants",
        expected=frozenset({"b", "a"}),
        actual=frozenset(),
    )
    payload = json.dumps(m.to_dict())
    assert '"expected": ["a", "b"]' in payload


def test_diff_outcomes_reports_field_level():
    ops = workload_ops(TINY, 7)
    from repro.scheduler.config import SchedulerConfig

    cfg = SchedulerConfig(use_index=True, track_filter_counts=False)
    a = replay_workload(TINY.topology(), ops, cfg, variant="a")
    b = replay_workload(TINY.topology(), ops, cfg, variant="b")
    assert diff_outcomes(a, b) == []
    # Perturb one placement: exactly that VM is reported.
    victim = next(iter(b.placements))
    b.placements[victim] = "elsewhere"
    found = diff_outcomes(a, b)
    assert [m.subject for m in found] == [victim]
    assert found[0].field == "host"


# -- metamorphic properties ------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_telemetry_metamorphic_properties_hold(seed):
    assert check_block_split_invariance(seed) == []
    assert check_downsample_idempotence(seed) == []
    assert check_staleness_monotonicity(seed) == []


@pytest.mark.parametrize("seed", [7, 8])
def test_scheduler_metamorphic_properties_hold(seed):
    assert check_host_permutation_invariance(TINY, seed) == []
    assert check_capacity_monotonicity(TINY, seed) == []


def test_capacity_monotonicity_holds_under_saturation():
    dense = get_scenario("dense")
    assert check_capacity_monotonicity(dense, 9) == []


# -- goldens ---------------------------------------------------------------------


def test_golden_document_is_deterministic():
    assert render_document(golden_document(TINY, 7)) == render_document(
        golden_document(TINY, 7)
    )


def test_golden_lifecycle(tmp_path):
    missing = check_golden(TINY, 7, tmp_path)
    assert missing.status == "missing"
    assert "--update-goldens" in missing.diff

    path = update_golden(TINY, 7, tmp_path)
    assert path.exists()
    assert path.suffix == ".gz"
    assert check_golden(TINY, 7, tmp_path).ok

    # Regeneration is byte-identical, compression included (mtime=0).
    first = path.read_bytes()
    update_golden(TINY, 7, tmp_path)
    assert path.read_bytes() == first

    # Any drift fails with a readable unified diff.
    doc = json.loads(read_golden_text(path))
    doc["schedule"]["scheduler_stats"]["requests"] += 1
    write_golden_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    result = check_golden(TINY, 7, tmp_path)
    assert result.status == "mismatch"
    assert "+++ recomputed" in result.diff
    assert '"requests"' in result.diff


def test_checked_in_goldens_match():
    """The goldens under tests/goldens/ track the current behaviour."""
    result = check_golden(TINY, 7)
    assert result.ok, f"{result.status}:\n{result.diff}"


# -- runner ----------------------------------------------------------------------


def test_run_verify_tiny_passes_and_is_byte_stable():
    config = VerifyConfig(
        scenario="tiny", seeds=(7,), checks=("oracle", "desync", "metamorphic")
    )
    report = run_verify(config)
    assert report.ok, report.render()
    assert report.to_json() == run_verify(config).to_json()


def test_run_verify_determinism_checks():
    config = VerifyConfig(
        scenario="tiny",
        seeds=(7,),
        checks=("determinism_faults", "determinism_chaos"),
    )
    report = run_verify(config)
    assert report.ok, report.render()
    assert {o.check for o in report.outcomes} == {
        "determinism_faults",
        "determinism_chaos",
    }


def test_run_verify_iofaults_check():
    config = VerifyConfig(scenario="tiny", seeds=(7,), checks=("iofaults",))
    report = run_verify(config)
    assert report.ok, report.render()
    outcome = report.outcomes[0]
    assert outcome.check == "iofaults"
    assert "fault schedules" in outcome.summary
    # Deterministic like every other check: same config, same bytes.
    assert report.to_json() == run_verify(config).to_json()


def test_run_verify_inject_desync_fails():
    config = VerifyConfig(
        scenario="tiny", seeds=(7,), checks=("oracle",), inject_desync=True
    )
    report = run_verify(config)
    assert not report.ok
    assert report.outcomes[0].mismatches


def test_verify_config_rejects_unknown_checks():
    with pytest.raises(ValueError, match="unknown checks"):
        VerifyConfig(checks=("oracle", "vibes"))


def test_all_checks_skips_chaos_when_scenario_excludes_it():
    config = VerifyConfig(
        scenario="dense", seeds=(7,), checks=("determinism_chaos",)
    )
    assert run_verify(config).outcomes == []


# -- CLI -------------------------------------------------------------------------


def test_cli_verify_check_subset(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify", "--scenario", "tiny", "--check", "oracle",
            "--check", "metamorphic", "--json-only", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["checks"] == ["oracle", "metamorphic"]


def test_cli_verify_inject_desync_nonzero(capsys):
    code = main(
        [
            "verify", "--scenario", "tiny", "--check", "oracle",
            "--inject-desync", "--json-only",
        ]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    mismatches = report["outcomes"][0]["mismatches"]
    assert any(
        m["check"] == "placements" and m["field"] == "host" for m in mismatches
    )


def test_cli_verify_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "wat"])
    assert exc.value.code == 2
    assert "known" in capsys.readouterr().err


def test_cli_verify_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "tiny", "--check", "vibes"])
    assert exc.value.code == 2
    assert "known" in capsys.readouterr().err


def test_cli_verify_update_goldens_roundtrip(tmp_path, capsys):
    directory = str(tmp_path / "goldens")
    code = main(
        [
            "verify", "--scenario", "tiny", "--check", "goldens",
            "--goldens-dir", directory, "--update-goldens", "--json-only",
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        [
            "verify", "--scenario", "tiny", "--check", "goldens",
            "--goldens-dir", directory, "--json-only",
        ]
    )
    assert code == 0


# -- HostState.diff_fields -------------------------------------------------------


def test_hoststate_diff_fields():
    a = HostState(host_id="bb", free_vcpus=10.0, tenants=frozenset({"t"}))
    b = HostState(host_id="bb", free_vcpus=12.0, tenants=frozenset())
    diffs = dict(
        (name, (mine, theirs)) for name, mine, theirs in a.diff_fields(b)
    )
    assert diffs == {
        "free_vcpus": (10.0, 12.0),
        "tenants": (frozenset({"t"}), frozenset()),
    }
    # metadata is excluded by contract
    a.metadata["decorated"] = "yes"
    assert "metadata" not in dict(
        (n, None) for n, _, _ in a.diff_fields(b)
    )
