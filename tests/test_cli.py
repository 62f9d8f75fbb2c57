"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = main(
        [
            "generate", "--out", str(out),
            "--scale", "0.01", "--days", "4",
            "--sampling", "21600", "--seed", "1",
        ]
    )
    assert code == 0
    return out


def test_generate_writes_archive(archive):
    assert (archive / "meta.json").exists()
    meta = json.loads((archive / "meta.json").read_text())
    assert meta["seed"] == 1


def test_summary(archive, capsys):
    assert main(["summary", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out
    assert "vms" in out


def test_report(archive, capsys):
    assert main(["report", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "Fig 14" in out
    assert "Table 5" in out


def test_query(archive, capsys):
    code = main(
        [
            "query", str(archive),
            "max(vrops_hostsystem_cpu_core_utilization_percentage)",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "__agg__=max" in out


def test_query_error_exit_code(archive, capsys):
    assert main(["query", str(archive), "mean("]) == 2
    assert "query error" in capsys.readouterr().err


def test_missing_archive_rejected(tmp_path):
    with pytest.raises(SystemExit, match="not a dataset archive"):
        main(["summary", str(tmp_path)])


def test_validate(archive, capsys):
    assert main(["validate", str(archive)]) in (0, 1)
    out = capsys.readouterr().out
    assert "calibration checks passed" in out


def test_figure_heatmap(archive, capsys):
    assert main(["figure", str(archive), "fig10"]) == 0
    out = capsys.readouterr().out
    assert "free memory per node" in out
    assert any(c in out for c in "░▒▓█")


def test_figure_cdf(archive, capsys):
    assert main(["figure", str(archive), "fig14"]) == 0
    assert "utilisation CDF" in capsys.readouterr().out


def test_figure_unknown(archive, capsys):
    assert main(["figure", str(archive), "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for sub in (
        "generate", "report", "summary", "query", "validate", "figure", "verify",
    ):
        assert sub in out


# -- --config error paths: exit 2 with a usable one-line message, no traceback ---


def _run_expecting_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["faults", "chaos"])
def test_config_file_missing(command, capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    err = _run_expecting_exit_2([command, "--config", missing], capsys)
    assert "file not found" in err
    assert missing in err


@pytest.mark.parametrize("command", ["faults", "chaos"])
def test_config_file_invalid_json(command, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "oops"')
    err = _run_expecting_exit_2([command, "--config", str(path)], capsys)
    assert "invalid JSON" in err
    assert "line 2" in err


@pytest.mark.parametrize("command", ["faults", "chaos"])
def test_config_file_non_object_top_level(command, capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    err = _run_expecting_exit_2([command, "--config", str(path)], capsys)
    assert "must be a JSON object" in err


def test_faults_config_unknown_key_named(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text('{"host_failure_rate_per_dya": 3.0}')
    err = _run_expecting_exit_2(["faults", "--config", str(path)], capsys)
    assert "host_failure_rate_per_dya" in err
    assert "known:" in err


def test_faults_config_invalid_value_message(capsys, tmp_path):
    path = tmp_path / "neg.json"
    path.write_text('{"faults": {"host_failure_rate_per_day": -1}}')
    err = _run_expecting_exit_2(["faults", "--config", str(path)], capsys)
    assert "host_failure_rate_per_day must be >= 0" in err


def test_faults_flat_config_shape_rejected(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text('{"host_failure_rate_per_day": 2.0}')
    err = _run_expecting_exit_2(["faults", "--config", str(path)], capsys)
    assert err.count("\n") == 1
    assert "flat FaultConfig fields are no longer accepted" in err
    assert '{"faults": {...}}' in err


def test_chaos_config_unknown_section(capsys, tmp_path):
    path = tmp_path / "sections.json"
    path.write_text('{"failts": {}}')
    err = _run_expecting_exit_2(["chaos", "--config", str(path)], capsys)
    assert "unknown scenario config keys: failts" in err
    assert "known:" in err and "faults" in err and "resilience" in err


def test_chaos_config_bad_resilience_value(capsys, tmp_path):
    path = tmp_path / "res.json"
    path.write_text(
        '{"topology": "chaos", "resilience": {"quarantine_backoff": 0.5}}'
    )
    err = _run_expecting_exit_2(["chaos", "--config", str(path)], capsys)
    assert "quarantine_backoff must be >= 1" in err


def test_chaos_sections_only_config_shape_rejected(capsys, tmp_path):
    path = tmp_path / "sections.json"
    path.write_text('{"faults": {}, "resilience": {"seed": 3}}')
    err = _run_expecting_exit_2(["chaos", "--config", str(path)], capsys)
    assert err.count("\n") == 1
    assert "bare faults/resilience sections are no longer accepted" in err
    assert '"topology": "chaos"' in err


def test_faults_valid_config_runs(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(
        '{"faults": {"seed": 7, "host_failure_rate_per_day": 2.0,'
        ' "scrape_gap_probability": 0.01}}'
    )
    out_path = tmp_path / "report.json"
    code = main(
        [
            "faults", "--config", str(path), "--days", "0.05",
            "--initial-vms", "20", "--arrival-rate", "2",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["host_failures"] >= 0
    assert report["seed"] == 7


def test_faults_seed_only_config_overlays_scenario_seed(capsys, tmp_path):
    """``{"seed": N}`` is a canonical ScenarioSpec overlay, not the retired
    flat shape: it sets the workload seed exactly as ``--seed N`` would."""
    path = tmp_path / "seed.json"
    path.write_text('{"seed": 3}')
    argv = [
        "faults", "--days", "0.05", "--initial-vms", "20",
        "--arrival-rate", "2", "--fault-seed", "1",
    ]
    outputs = {}
    for name, extra in (
        ("config", ["--seed", "1", "--config", str(path)]),
        ("flag", ["--seed", "3"]),
    ):
        out_path = tmp_path / f"{name}.json"
        assert main(argv + extra + ["--out", str(out_path)]) == 0
        assert "seed 3" in capsys.readouterr().err
        outputs[name] = out_path.read_text()
    assert outputs["config"] == outputs["flag"]


# -- repro crash -----------------------------------------------------------------


def test_help_lists_crash_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "crash" in capsys.readouterr().out


def test_crash_tiny_single_seed_ok(capsys, tmp_path):
    out = tmp_path / "crash.json"
    code = main(
        [
            "crash", "--scenario", "tiny", "--seeds", "1",
            "--json-only", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["seeds"] == [7]  # count form: 1 seed from BASE_SEED
    assert {c["point"] for c in report["cycles"]} == {
        "pre-op", "mid-claim", "post-apply", "post-journal",
        "mid-snapshot", "post-snapshot",
    }
    assert all(c["field_identical"] for c in report["cycles"])
    assert {c["mode"] for c in report["corruption"]} == {
        "truncate", "bitflip-tail", "bitflip-interior", "dup-tail",
    }


def test_crash_explicit_seed_list_reported(capsys, monkeypatch):
    """Comma form passes exact seeds through to the harness."""
    from repro.recovery import harness

    captured = {}

    def fake(scenario, seeds, *, snapshot_every, progress=None):
        captured["seeds"] = list(seeds)
        captured["snapshot_every"] = snapshot_every
        return harness.CrashReport(
            scenario=scenario.name, seeds=list(seeds),
            snapshot_every=snapshot_every,
        )

    monkeypatch.setattr(harness, "run_crash_cycles", fake)
    code = main(
        ["crash", "--scenario", "tiny", "--seeds", "11,13",
         "--snapshot-every", "10", "--json-only"]
    )
    assert code == 0
    assert captured == {"seeds": [11, 13], "snapshot_every": 10}
    assert json.loads(capsys.readouterr().out)["seeds"] == [11, 13]


def test_crash_unknown_scenario_exits_2(capsys):
    err = _run_expecting_exit_2(["crash", "--scenario", "wat"], capsys)
    assert "unknown scenario" in err


@pytest.mark.parametrize("seeds", ["0", "x", "7,,y"])
def test_crash_bad_seeds_exit_2(seeds, capsys):
    err = _run_expecting_exit_2(
        ["crash", "--scenario", "tiny", "--seeds", seeds], capsys
    )
    assert "--seeds" in err


def test_crash_bad_snapshot_cadence_exits_2(capsys):
    err = _run_expecting_exit_2(
        ["crash", "--scenario", "tiny", "--snapshot-every", "0"], capsys
    )
    assert "--snapshot-every" in err


# -- chaos --journal -------------------------------------------------------------


def test_chaos_journal_writes_valid_wal(capsys, tmp_path):
    from repro.recovery import read_journal

    path = tmp_path / "chaos.wal"
    code = main(
        ["chaos", "--days", "0.02", "--journal", str(path), "--json-only"]
    )
    assert code == 0
    scan = read_journal(path)
    assert not scan.torn
    assert scan.records
    kinds = {record["t"] for _, record in scan.records}
    assert "clock" in kinds


def test_chaos_journal_summary_line(capsys, tmp_path):
    path = tmp_path / "chaos.wal"
    code = main(["chaos", "--days", "0.02", "--journal", str(path)])
    assert code == 0
    assert "control-plane records" in capsys.readouterr().err


# -- Ctrl-C: every long-running command exits 130 with a one-line message --------


def _assert_interrupted(code, capsys, command):
    assert code == 130
    err = capsys.readouterr().err
    assert f"repro {command}: interrupted during" in err
    assert "partial results discarded" in err
    assert "Traceback" not in err


def test_verify_interrupt_exits_130(monkeypatch, capsys):
    from repro.verify import runner

    def boom(config, progress=None):
        if progress is not None:
            progress("metamorphic (seed 8)")
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "run_verify", boom)
    code = main(["verify", "--scenario", "tiny", "--json-only"])
    _assert_interrupted(code, capsys, "verify")


def test_verify_interrupt_names_the_running_check(monkeypatch, capsys):
    from repro.verify import runner

    def boom(config, progress=None):
        progress("oracle (seed 7)")
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "run_verify", boom)
    assert main(["verify", "--scenario", "tiny", "--json-only"]) == 130
    assert "oracle (seed 7)" in capsys.readouterr().err


def test_faults_interrupt_exits_130(monkeypatch, capsys):
    from repro.config import ScenarioSpec

    def boom(self, journal=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(ScenarioSpec, "run", boom)
    code = main(["faults", "--days", "0.05"])
    _assert_interrupted(code, capsys, "faults")


def test_chaos_interrupt_exits_130(monkeypatch, capsys):
    from repro.config import ScenarioSpec

    def boom(self, journal=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(ScenarioSpec, "run", boom)
    code = main(["chaos", "--days", "0.05", "--json-only"])
    _assert_interrupted(code, capsys, "chaos")


def test_crash_interrupt_exits_130(monkeypatch, capsys):
    from repro.recovery import harness

    def boom(scenario, seeds, *, snapshot_every, progress=None):
        if progress is not None:
            progress("seed 7: crash at mid-claim/op 37")
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_crash_cycles", boom)
    code = main(["crash", "--scenario", "tiny", "--json-only"])
    _assert_interrupted(code, capsys, "crash")
    # Reporting where it died requires re-reading stderr, so assert on
    # the same capture via a fresh run:
    monkeypatch.setattr(harness, "run_crash_cycles", boom)
    assert main(["crash", "--scenario", "tiny", "--json-only"]) == 130
    assert "mid-claim/op 37" in capsys.readouterr().err


# -- repro torture ---------------------------------------------------------------


def test_help_lists_torture_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "torture" in capsys.readouterr().out


def test_torture_tiny_green_and_byte_stable(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        code = main(
            [
                "torture", "--scenario", "tiny", "--seeds", "1",
                "--schedules", "10", "--json-only", "--out", str(out),
            ]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["ok"] is True
    assert {c["artifact"] for c in report["cases"]} == {
        "wal", "snapshot", "report", "golden", "sweep-journal",
    }
    # Byte-stable means no filesystem paths leak into case details.
    assert "/tmp" not in first.read_text()


def test_torture_unknown_scenario_exits_2(capsys):
    err = _run_expecting_exit_2(["torture", "--scenario", "wat"], capsys)
    assert "unknown scenario" in err


def test_torture_bad_schedules_exits_2(capsys):
    err = _run_expecting_exit_2(["torture", "--schedules", "0"], capsys)
    assert "--schedules" in err


def test_torture_interrupt_exits_130(monkeypatch, capsys):
    from repro.iofaults import torture

    def boom(config, progress=None):
        if progress is not None:
            progress("seed 7: schedule 3/15 (snapshot)")
        raise KeyboardInterrupt

    monkeypatch.setattr(torture, "run_torture", boom)
    code = main(["torture", "--json-only"])
    _assert_interrupted(code, capsys, "torture")


# -- unwritable --out: exit 2 with one line, like a malformed --config -----------


@pytest.fixture
def blocked_out(tmp_path):
    """An --out path whose parent is a regular file: every write fails."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "report.json")


def test_torture_out_unwritable_exits_2(blocked_out, capsys):
    err = _run_expecting_exit_2(
        [
            "torture", "--seeds", "1", "--schedules", "2",
            "--json-only", "--out", blocked_out,
        ],
        capsys,
    )
    assert "--out" in err and blocked_out in err


def test_faults_out_unwritable_exits_2(blocked_out, capsys):
    # faults has no --json-only, so scenario progress precedes the error:
    # assert on the final stderr line rather than the whole stream.
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "faults", "--days", "0.05", "--initial-vms", "20",
                "--arrival-rate", "2", "--out", blocked_out,
            ]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("repro: faults --out")
    assert blocked_out in last


def test_generate_out_unwritable_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "generate", "--out", str(blocker / "ds"),
                "--scale", "0.01", "--days", "1", "--sampling", "21600",
            ]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("repro: generate --out")


def test_chaos_journal_unwritable_exits_2(blocked_out, capsys):
    err = _run_expecting_exit_2(
        ["chaos", "--days", "0.05", "--json-only", "--journal", blocked_out],
        capsys,
    )
    assert "--journal" in err and blocked_out in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["faults", "--days", "-1"], "duration_days must be positive"),
        (["faults", "--days", "nan"], "duration_days must be finite, got nan"),
        (
            ["faults", "--failure-rate", "inf", "--days", "0.05"],
            "host_failure_rate_per_day must be finite, got inf",
        ),
        (["faults", "--abort-fraction", "1.5"], "migration_abort_fraction must be within"),
        (["chaos", "--days", "0"], "duration_days must be positive"),
        (["chaos", "--days", "inf"], "duration_days must be finite, got inf"),
        (["generate", "--out", "unused", "--scale", "-1"], "scale must be positive"),
        (["generate", "--out", "unused", "--days", "0"], "days must be >= 1"),
        (["generate", "--out", "unused", "--scale", "nan"], "scale must be finite, got nan"),
        (["generate", "--out", "unused", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["faults", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["chaos", "--fault-seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_bad_number_flags_exit_2(argv, message, capsys):
    err = _run_expecting_exit_2(argv, capsys)
    assert err.startswith(f"repro: {argv[0]}: ")
    assert message in err
    assert err.count("\n") == 1


def test_faults_infinite_failure_rate_exits_promptly(tmp_path):
    """An infinite hazard rate used to schedule failures without end."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "faults",
         "--failure-rate", "inf", "--days", "0.05"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "repro: faults: host_failure_rate_per_day must be finite, got inf\n"
    )
