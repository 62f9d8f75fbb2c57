"""Unit tests for the fault-injection building blocks (repro.faults)."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultReport,
    MigrationFaultModel,
    TelemetryFaultModel,
)
from repro.faults.report import DeadLetter
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import HOST_FAIL
from tests.conftest import make_node


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        config = FaultConfig()
        assert not config.any_faults

    def test_any_faults_flips_per_class(self):
        assert FaultConfig(host_failure_rate_per_day=1.0).any_faults
        assert FaultConfig(migration_abort_fraction=0.1).any_faults
        assert FaultConfig(scrape_gap_probability=0.1).any_faults
        assert FaultConfig(stale_node_probability=0.1).any_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"host_failure_rate_per_day": -1.0},
            {"repair_time_mean_s": 0.0},
            {"repair_time_min_s": -1.0},
            {"migration_abort_fraction": 1.5},
            {"scrape_gap_probability": -0.1},
            {"stale_node_probability": 2.0},
            {"evac_max_retries": 0},
            {"evac_backoff_factor": 0.5},
            {"evac_backoff_base_s": -1.0},
            {"max_concurrent_evacuations": 0},
            {"evac_batch_spacing_s": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", [f.name for f in fields(FaultConfig) if f.type == "float"]
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            FaultConfig(**{field: value})

    def test_from_dict_rejects_json_infinity(self):
        data = json.loads('{"host_failure_rate_per_day": Infinity}')
        with pytest.raises(
            ValueError, match="host_failure_rate_per_day must be finite, got inf"
        ):
            FaultConfig.from_dict(data)


class TestFaultInjector:
    def _collect_failure_times(self, seed: int) -> list[float]:
        engine = SimulationEngine()
        times: list[float] = []
        engine.on(HOST_FAIL, lambda eng, ev: times.append(eng.now))
        injector = FaultInjector(
            FaultConfig(seed=seed, host_failure_rate_per_day=24.0)
        )
        injector.schedule_host_failures(engine, 0.0, 86_400.0)
        engine.run()
        return times

    def test_same_seed_same_failure_times(self):
        assert self._collect_failure_times(5) == self._collect_failure_times(5)

    def test_different_seed_different_failure_times(self):
        assert self._collect_failure_times(5) != self._collect_failure_times(6)

    def test_zero_rate_schedules_nothing(self):
        engine = SimulationEngine()
        injector = FaultInjector(FaultConfig(host_failure_rate_per_day=0.0))
        assert injector.schedule_host_failures(engine, 0.0, 86_400.0) == 0
        assert engine.pending == 0

    def test_scheduled_count_matches_events(self):
        engine = SimulationEngine()
        engine.on(HOST_FAIL, lambda eng, ev: None)
        injector = FaultInjector(
            FaultConfig(seed=3, host_failure_rate_per_day=48.0)
        )
        n = injector.schedule_host_failures(engine, 0.0, 86_400.0)
        assert n == engine.pending
        assert injector.scheduled_failures == n
        assert n > 0

    def test_pick_victim_only_healthy(self):
        injector = FaultInjector(FaultConfig(seed=1))
        nodes = [make_node(f"n{i}") for i in range(4)]
        nodes[0].failed = True
        nodes[1].maintenance = True
        for _ in range(20):
            victim = injector.pick_victim(nodes)
            assert victim.node_id in {"n2", "n3"}

    def test_pick_victim_none_when_all_down(self):
        injector = FaultInjector(FaultConfig(seed=1))
        nodes = [make_node("n0"), make_node("n1")]
        for n in nodes:
            n.failed = True
        assert injector.pick_victim(nodes) is None

    def test_repair_time_floored_at_minimum(self):
        config = FaultConfig(seed=2, repair_time_mean_s=1.0, repair_time_min_s=600.0)
        injector = FaultInjector(config)
        draws = [injector.draw_repair_time() for _ in range(50)]
        assert all(d >= 600.0 for d in draws)


class TestMigrationFaultModel:
    def test_fraction_zero_never_aborts(self):
        model = MigrationFaultModel(abort_fraction=0.0, seed=1)
        assert all(model.attempt(f"vm{i}", "a", "b") for i in range(20))
        assert model.attempted == 20
        assert model.aborted == 0
        assert model.abort_log == []

    def test_fraction_one_always_aborts_and_logs(self):
        model = MigrationFaultModel(abort_fraction=1.0, seed=1)
        assert not model.attempt("vm0", "src", "dst")
        assert model.aborted == 1
        entry = model.abort_log[0]
        assert (entry.vm_id, entry.source, entry.target) == ("vm0", "src", "dst")

    def test_same_seed_same_decisions(self):
        a = MigrationFaultModel(abort_fraction=0.5, seed=9)
        b = MigrationFaultModel(abort_fraction=0.5, seed=9)
        decisions_a = [a.attempt(f"vm{i}", "s", "t") for i in range(40)]
        decisions_b = [b.attempt(f"vm{i}", "s", "t") for i in range(40)]
        assert decisions_a == decisions_b
        assert a.aborted == b.aborted > 0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            MigrationFaultModel(abort_fraction=1.5)


class TestTelemetryFaultModel:
    def test_zero_probabilities_inject_nothing(self):
        model = TelemetryFaultModel(seed=1)
        assert not any(model.scrape_missed() for _ in range(20))
        assert not any(model.node_is_stale(f"n{i}") for i in range(20))
        assert model.gaps == 0
        assert model.stale_scrapes == 0

    def test_probability_one_always_fires_and_counts(self):
        model = TelemetryFaultModel(gap_probability=1.0, stale_probability=1.0, seed=1)
        assert model.scrape_missed()
        assert model.node_is_stale("n0")
        assert model.gaps == 1
        assert model.stale_scrapes == 1

    def test_same_seed_same_draw_sequence(self):
        a = TelemetryFaultModel(gap_probability=0.4, stale_probability=0.3, seed=4)
        b = TelemetryFaultModel(gap_probability=0.4, stale_probability=0.3, seed=4)
        seq_a = [(a.scrape_missed(), a.node_is_stale("n")) for _ in range(30)]
        seq_b = [(b.scrape_missed(), b.node_is_stale("n")) for _ in range(30)]
        assert seq_a == seq_b

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            TelemetryFaultModel(gap_probability=-0.1)
        with pytest.raises(ValueError):
            TelemetryFaultModel(stale_probability=1.1)


class TestFaultReport:
    def test_record_evacuation_success_builds_histogram(self):
        report = FaultReport(seed=1)
        report.record_evacuation_success(latency_s=10.0, attempts=1)
        report.record_evacuation_success(latency_s=30.0, attempts=2)
        report.record_evacuation_success(latency_s=20.0, attempts=1)
        assert report.evacuations_succeeded == 3
        assert report.retry_histogram == {1: 2, 2: 1}
        summary = report.latency_summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(20.0)
        assert summary["max"] == 30.0

    def test_empty_latency_summary(self):
        summary = FaultReport().latency_summary()
        assert summary == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_dead_letters_tracked_and_sorted_in_json(self):
        report = FaultReport()
        for vm_id in ("vm-b", "vm-a"):
            report.record_dead_letter(
                DeadLetter(
                    vm_id=vm_id,
                    failed_host="n0",
                    attempts=3,
                    failed_at=5.0,
                    dead_lettered_at=100.0,
                )
            )
        assert report.dead_lettered_vms == ["vm-b", "vm-a"]
        payload = json.loads(report.to_json())
        assert [d["vm_id"] for d in payload["dead_lettered"]] == ["vm-a", "vm-b"]

    def test_to_json_is_stable_and_sorted(self):
        report = FaultReport(seed=3)
        report.host_failures = 2
        report.failed_hosts = ["n2", "n1"]
        report.record_evacuation_success(latency_s=12.345678901, attempts=1)
        first = report.to_json()
        second = report.to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["failed_hosts"] == ["n1", "n2"]
        assert list(payload) == sorted(payload)

    def test_render_mentions_every_fault_class(self):
        report = FaultReport()
        text = report.render()
        for needle in ("host failures", "migrations", "telemetry",
                       "evacuations", "dead-lettered"):
            assert needle in text


def test_shared_rng_can_be_injected():
    """Models accept an external generator (for deliberate coupling)."""
    rng = np.random.default_rng(0)
    model = MigrationFaultModel(abort_fraction=0.5, rng=rng)
    telemetry = TelemetryFaultModel(gap_probability=0.5, rng=rng)
    model.attempt("vm", "a", "b")
    telemetry.scrape_missed()  # both draw from the same stream without error
