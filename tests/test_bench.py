"""Tests for the bench harness (fast: tiny workloads, no long simulation)."""

import json

import pytest

from repro.bench import (
    CHECK_BOUNDS,
    PRE_PR_BASELINE,
    REQUIRED_KEYS,
    BenchConfig,
    _request_stream,
    bench_ingest,
    bench_schedule,
    check_results,
    run_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def tiny_config() -> BenchConfig:
    """Small enough to run in seconds; sim stage disabled."""
    return BenchConfig(
        scale=0.02, requests=60, ingest_cycles=4, rounds=1, run_sim=False,
        sweep_duration_days=0.02, sweep_initial_vms=6, sweep_workers=2,
    )


@pytest.fixture(scope="module")
def payload(tiny_config):
    return run_bench(tiny_config)


class TestConfig:
    def test_smoke_keeps_full_ingest_cycles(self):
        assert BenchConfig.smoke().ingest_cycles == BenchConfig().ingest_cycles

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BenchConfig().requests = 1

    def test_request_stream_is_seed_deterministic(self):
        a = _request_stream(30, seed=5)
        b = _request_stream(30, seed=5)
        assert [(s.vm_id, s.flavor.name) for s in a] == [
            (s.vm_id, s.flavor.name) for s in b
        ]
        c = _request_stream(30, seed=6)
        assert [s.flavor.name for s in a] != [s.flavor.name for s in c]


class TestStages:
    def test_schedule_stage_paths_agree(self, tiny_config):
        out = bench_schedule(tiny_config)
        assert out["placements_identical"]
        assert out["schedule_requests"] == tiny_config.requests
        assert out["schedule_requests_per_s"] > 0
        assert out["schedule_stats"]["requests"] == tiny_config.requests

    def test_ingest_stage_counts_agree(self, tiny_config):
        out = bench_ingest(tiny_config)
        assert out["ingest_samples"] > 0
        assert out["telemetry_ingest_samples_per_s"] > 0
        assert out["ingest_block_speedup_vs_per_sample"] > 0


class TestPayload:
    def test_required_keys_present(self, payload):
        for key in REQUIRED_KEYS:
            assert key in payload["results"], key
        assert payload["bench"] == "scale"
        assert payload["baseline_pre_pr"] == PRE_PR_BASELINE
        assert payload["config"]["requests"] == 60

    def test_baseline_speedups_derived(self, payload):
        results = payload["results"]
        assert results["schedule_requests_speedup_vs_baseline"] == pytest.approx(
            results["schedule_requests_per_s"]
            / PRE_PR_BASELINE["schedule_requests_per_s"]
        )
        assert "telemetry_ingest_samples_speedup_vs_baseline" in results

    def test_sim_stage_skippable(self, payload):
        assert "sim_wall_s" not in payload["results"]

    def test_write_round_trips(self, payload, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        write_bench_json(payload, str(path))
        assert json.loads(path.read_text()) == payload


class TestCheckResults:
    def test_clean_payload_may_fail_only_on_ratio_bounds(self, payload):
        # Tiny workloads can miss the perf ratios (fixed costs dominate);
        # structural checks must still pass.
        problems = check_results(payload)
        for problem in problems:
            assert "below required" in problem

    def test_missing_key_reported(self):
        problems = check_results({"results": {"placements_identical": True}})
        assert any("missing or non-finite" in p for p in problems)

    def test_divergent_placements_reported(self):
        results = {key: 1.0 for key in REQUIRED_KEYS}
        results.update({key: minimum for key, minimum in CHECK_BOUNDS})
        results["placements_identical"] = False
        problems = check_results({"results": results})
        assert problems == ["indexed and legacy scheduling paths placed differently"]

    def test_ratio_bound_enforced(self):
        results = {key: 1.0 for key in REQUIRED_KEYS}
        results["placements_identical"] = True
        results["schedule_speedup_vs_legacy"] = 1.2
        results["ingest_block_speedup_vs_per_sample"] = 99.0
        problems = check_results({"results": results})
        assert len(problems) == 1
        assert "schedule_speedup_vs_legacy" in problems[0]


class TestScrapePathGates:
    @staticmethod
    def _base_results() -> dict:
        results = {key: 1.0 for key in REQUIRED_KEYS}
        results["placements_identical"] = True
        results.update({key: minimum for key, minimum in CHECK_BOUNDS})
        return results

    def test_sim_bounds_skipped_when_sim_not_run(self):
        results = self._base_results()
        results["sim_scrape_speedup_vs_legacy"] = 0.1  # would fail if enforced
        notes: list[str] = []
        problems = check_results({"results": results}, notes=notes)
        assert problems == []
        assert any("sim_scrape_speedup_vs_legacy" in n for n in notes)

    def test_sim_speedup_bound_enforced_when_sim_ran(self):
        results = self._base_results()
        results["sim_wall_s"] = 10.0
        results["sim_paths_identical"] = True
        results["sim_scrape_speedup_vs_legacy"] = 1.5
        problems = check_results({"results": results})
        assert len(problems) == 1
        assert "sim_scrape_speedup_vs_legacy" in problems[0]
        assert "below required" in problems[0]

    def test_scrape_path_divergence_reported(self):
        results = self._base_results()
        results["sim_wall_s"] = 10.0
        results["sim_paths_identical"] = False
        problems = check_results({"results": results})
        assert problems == ["columnar and legacy scrape paths diverged"]

    def test_sweep_ratio_assert_skipped_on_one_cpu(self):
        results = self._base_results()
        results["sweep_scenarios_per_hour_1w"] = 100.0
        results["sweep_scenarios_per_hour_nw"] = 50.0  # slower with workers
        results["sweep_cpu_count"] = 1
        notes: list[str] = []
        problems = check_results({"results": results}, notes=notes)
        assert problems == []
        assert any("sweep" in n and "skipped" in n for n in notes)

    def test_sweep_ratio_assert_enforced_on_multicore(self):
        results = self._base_results()
        results["sweep_scenarios_per_hour_1w"] = 100.0
        results["sweep_scenarios_per_hour_nw"] = 50.0
        results["sweep_cpu_count"] = 4
        problems = check_results({"results": results})
        assert len(problems) == 1
        assert "below required" in problems[0]
        assert "sweep_scenarios_per_hour_nw" in problems[0]

    def test_notes_optional(self):
        # Callers that don't pass `notes` must not crash on the skip paths.
        results = self._base_results()
        results["sweep_scenarios_per_hour_1w"] = 100.0
        results["sweep_scenarios_per_hour_nw"] = 50.0
        results["sweep_cpu_count"] = 1
        assert check_results({"results": results}) == []


class TestSweepStage:
    def test_sweep_results_in_payload(self, payload):
        results = payload["results"]
        assert results["sweep_cells"] == 8
        assert results["sweep_workers"] == 2
        assert results["sweep_reports_identical"] is True
        assert results["sweep_failed_shards"] == 0
        assert results["sweep_scenarios_per_hour_1w"] > 0
        assert results["sweep_scenarios_per_hour_nw"] > 0
        assert results["sweep_cpu_count"] >= 1

    def test_sweep_divergence_reported(self):
        results = {key: 1.0 for key in REQUIRED_KEYS}
        results["placements_identical"] = True
        results.update({key: minimum for key, minimum in CHECK_BOUNDS})
        results["sweep_reports_identical"] = False
        problems = check_results({"results": results})
        assert problems == ["sweep reports differ between 1 and N workers"]

    def test_sweep_failed_shards_reported(self):
        results = {key: 1.0 for key in REQUIRED_KEYS}
        results["placements_identical"] = True
        results.update({key: minimum for key, minimum in CHECK_BOUNDS})
        results["sweep_failed_shards"] = 2
        problems = check_results({"results": results})
        assert problems == ["sweep bench had 2 failed shards"]


class TestJournalStage:
    def test_journal_throughput_keys(self):
        from repro.bench import BenchConfig, bench_journal

        results = bench_journal(
            BenchConfig(journal_records=50)
        )
        assert results["journal_records"] == 50
        assert results["journal_append_per_s_fsync"] > 0
        assert results["journal_append_per_s_flush"] > 0
        # Skipping the per-record fsync should never make appends slower;
        # the loose bound tolerates hosts where fsync is nearly free
        # (tmpfs, battery-backed caches) without flaking.
        assert results["journal_flush_speedup_vs_fsync"] > 0.5

    def test_fsync_throughput_is_a_required_artifact_key(self):
        assert "journal_append_per_s_fsync" in REQUIRED_KEYS
