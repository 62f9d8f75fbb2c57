"""Tests for the unified ScenarioSpec (repro.config)."""

import json
import warnings

import pytest

from repro.config import (
    ScenarioSpec,
    looks_like_legacy_chaos_dict,
    looks_like_legacy_faults_dict,
    scheduler_config_from_dict,
    scheduler_config_to_dict,
)
from repro.faults.config import FaultConfig
from repro.faults.scenario import ScenarioConfig, scenario_topology
from repro.resilience.chaos import ChaosConfig, chaos_topology
from repro.resilience.config import ResilienceConfig
from repro.scheduler.config import SchedulerConfig


class TestRoundTrip:
    def test_defaults_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_full_composition_round_trips(self):
        spec = ScenarioSpec(
            topology="chaos",
            duration_days=0.5,
            seed=11,
            scheduler=SchedulerConfig(max_attempts=2, alternates=1),
            faults=FaultConfig(seed=3, host_failure_rate_per_day=2.0),
            resilience=ResilienceConfig(seed=9),
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.sha256() == spec.sha256()

    def test_to_dict_is_json_serialisable(self):
        spec = ScenarioSpec(faults=FaultConfig(), resilience=ResilienceConfig())
        json.dumps(spec.to_dict())

    def test_sha256_changes_with_any_field(self):
        base = ScenarioSpec()
        assert base.sha256() != ScenarioSpec(seed=8).sha256()
        assert (
            base.sha256()
            != ScenarioSpec(scheduler=SchedulerConfig(alternates=1)).sha256()
        )

    def test_sections_omitted_when_unset(self):
        doc = ScenarioSpec().to_dict()
        assert "faults" not in doc
        assert "resilience" not in doc
        assert "scheduler" not in doc


class TestValidation:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec.from_dict({"topolgy": "lab"})
        assert "topolgy" in str(exc.value)
        assert "known:" in str(exc.value)

    def test_unknown_scheduler_key_rejected(self):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec.from_dict({"scheduler": {"max_attemps": 2}})
        assert "max_attemps" in str(exc.value)

    @pytest.mark.parametrize("key", ["use_index", "track_filter_counts"])
    def test_retired_scheduler_switch_rejected_by_name(self, key):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec.from_dict({"scheduler": {key: False}})
        assert key in str(exc.value)

    def test_nested_section_errors_propagate(self):
        with pytest.raises(ValueError, match="host_failure_rate_per_day"):
            ScenarioSpec.from_dict(
                {"faults": {"host_failure_rate_per_day": -1.0}}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ScenarioSpec.from_dict([1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "mars"},
            {"duration_days": 0.0},
            {"building_blocks": 0},
            {"region_scale": -0.1},
            {"scheduler_factory": "magic"},
            {"initial_vms": -1},
            {"seed": -1},
        ],
    )
    def test_bad_scalars_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field",
        [
            "region_scale",
            "duration_days",
            "arrival_rate_per_hour",
            "scrape_interval_s",
            "drs_interval_s",
        ],
    )
    def test_non_finite_floats_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioSpec.from_dict({"topology": "paper", field: float(value)})

    def test_scheduler_with_live_objects_not_serialisable(self):
        spec = ScenarioSpec(scheduler=SchedulerConfig(filters=()))
        with pytest.raises(ValueError, match="filter"):
            spec.to_dict()

    def test_scheduler_dict_bridge_round_trips(self):
        config = SchedulerConfig(max_attempts=5, alternates=0)
        assert scheduler_config_from_dict(
            scheduler_config_to_dict(config)
        ) == config


class TestTopologies:
    def test_lab_matches_fault_scenario_topology(self):
        # Byte-compat contract: a spec-run fault scenario must place on
        # the exact same region the legacy path built.
        assert (
            ScenarioSpec(building_blocks=3, nodes_per_bb=4).topology_spec()
            == scenario_topology(ScenarioConfig())
        )

    def test_chaos_matches_chaos_topology(self):
        assert (
            ScenarioSpec(topology="chaos").topology_spec()
            == chaos_topology(ChaosConfig())
        )

    def test_paper_topology_scales(self):
        small = ScenarioSpec(topology="paper", region_scale=0.02)
        bigger = ScenarioSpec(topology="paper", region_scale=0.05)
        n_small = sum(
            bb.node_count
            for dc in small.topology_spec().datacenters
            for bb in dc.building_blocks
        )
        n_bigger = sum(
            bb.node_count
            for dc in bigger.topology_spec().datacenters
            for bb in dc.building_blocks
        )
        assert 0 < n_small < n_bigger


class TestRun:
    def test_run_matches_legacy_fault_scenario(self):
        from repro.faults.scenario import run_fault_scenario

        faults = FaultConfig(seed=7, host_failure_rate_per_day=4.0)
        spec = ScenarioSpec(
            duration_days=0.1, initial_vms=20, arrival_rate_per_hour=4.0,
            faults=faults,
        )
        legacy = run_fault_scenario(
            ScenarioConfig(
                duration_days=0.1, initial_vms=20, arrival_rate_per_hour=4.0,
                faults=faults,
            )
        )
        assert (
            spec.run().fault_report.to_json()
            == legacy.fault_report.to_json()
        )


class TestLegacyShims:
    def test_flat_faults_dict_detected(self):
        assert looks_like_legacy_faults_dict(
            {"seed": 1, "host_failure_rate_per_day": 2.0}
        )
        assert not looks_like_legacy_faults_dict({"faults": {}})
        assert not looks_like_legacy_faults_dict({})
        # ``seed`` is a ScenarioSpec field too: alone it is a canonical overlay.
        assert not looks_like_legacy_faults_dict({"seed": 3})

    def test_sections_only_chaos_dict_detected(self):
        assert looks_like_legacy_chaos_dict({"faults": {}, "resilience": {}})
        assert not looks_like_legacy_chaos_dict({"topology": "chaos"})
        assert not looks_like_legacy_chaos_dict({})

    def test_canonical_shape_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ScenarioSpec.from_dict({"faults": {"seed": 3}})
