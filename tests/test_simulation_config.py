"""SimulationConfig validates its numeric fields at construction, and
``drs_interval_s=None`` means "no DRS pass"."""

import math

import pytest

from repro.simulation.runner import RegionSimulation, SimulationConfig
from tests.conftest import build_tiny_region_spec


@pytest.mark.parametrize(
    "name", ["duration_days", "scrape_interval_s", "drs_interval_s"]
)
@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("nan")])
def test_non_positive_interval_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"SimulationConfig.{name} must be > 0"):
        SimulationConfig(**{name: value})


@pytest.mark.parametrize(
    "name",
    [
        "duration_days",
        "scrape_interval_s",
        "drs_interval_s",
        "maintenance_duration_s",
        "arrival_rate_per_hour",
        "resize_rate_per_hour",
        "maintenance_rate_per_day",
        "start_time",
    ],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_value_rejected_by_name(name, value):
    # An infinite rate or duration used to hang the Poisson/recurring
    # schedulers; an infinite start time failed mid-run.
    with pytest.raises(ValueError, match=f"SimulationConfig.{name} must be"):
        SimulationConfig(**{name: value})


@pytest.mark.parametrize(
    "name", ["arrival_rate_per_hour", "resize_rate_per_hour", "maintenance_rate_per_day"]
)
@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_negative_or_nan_rate_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"SimulationConfig.{name} must be >= 0"):
        SimulationConfig(**{name: value})


@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("nan")])
def test_non_positive_maintenance_duration_rejected(value):
    with pytest.raises(
        ValueError, match="SimulationConfig.maintenance_duration_s must be > 0"
    ):
        SimulationConfig(maintenance_duration_s=value)


def test_nan_start_time_rejected():
    with pytest.raises(ValueError, match="SimulationConfig.start_time must be finite"):
        SimulationConfig(start_time=float("nan"))


@pytest.mark.parametrize("value", [2.5, -3, True, "10", None])
def test_initial_vms_must_be_a_non_negative_int(value):
    with pytest.raises(
        ValueError, match="SimulationConfig.initial_vms must be an int >= 0"
    ):
        SimulationConfig(initial_vms=value)


@pytest.mark.parametrize("value", [-1, 2.5, True, "7", None])
def test_seed_must_be_a_non_negative_int(value):
    # A negative seed used to pass here and fail inside numpy's generator.
    with pytest.raises(ValueError, match="SimulationConfig.seed must be an int >= 0"):
        SimulationConfig(seed=value)


def test_zero_rates_and_zero_initial_vms_are_valid():
    config = SimulationConfig(
        arrival_rate_per_hour=0.0,
        resize_rate_per_hour=0,
        maintenance_rate_per_day=0.0,
        initial_vms=0,
        start_time=-3600.0,
        drs_interval_s=None,
    )
    assert config.initial_vms == 0


def test_every_in_repo_constructor_passes_validation():
    from repro.config import TOPOLOGIES, ScenarioSpec
    from repro.faults.scenario import ScenarioConfig, scenario_sim_config
    from repro.resilience.chaos import ChaosConfig
    from repro.sweep import grid_from_dict

    for topology in TOPOLOGIES:
        ScenarioSpec(topology=topology).simulation_config()
    scenario_sim_config(ScenarioConfig())
    chaos = ChaosConfig()
    SimulationConfig(
        duration_days=chaos.duration_days,
        scrape_interval_s=chaos.scrape_interval_s,
        drs_interval_s=chaos.drs_interval_s,
        arrival_rate_per_hour=chaos.arrival_rate_per_hour,
        initial_vms=chaos.initial_vms,
        seed=chaos.seed,
    )
    grid = grid_from_dict(
        {
            "base": {"duration_days": 0.1, "initial_vms": 6},
            "seeds": [1, 2],
            "axes": {"arrival_rate_per_hour": [0.0, 6.0]},
        }
    )
    for cell in grid.cells:
        cell.spec.simulation_config()


def _run(drs_interval_s):
    config = SimulationConfig(
        duration_days=0.25,
        scrape_interval_s=3600.0,
        drs_interval_s=drs_interval_s,
        arrival_rate_per_hour=6.0,
        initial_vms=30,
        seed=5,
    )
    return RegionSimulation(build_tiny_region_spec(), config).run()


def test_drs_interval_none_runs_no_drs_pass():
    off = _run(None)
    # An interval past the end of the run schedules no pass either, so
    # the two runs must agree event for event.
    never = _run(2 * 86_400.0)
    assert off.drs_migrations == 0
    assert off.events_processed == never.events_processed
    assert (off.created, off.deleted, off.rejected) == (
        never.created,
        never.deleted,
        never.rejected,
    )
    assert {v: vm.node_id for v, vm in off.vms.items()} == {
        v: vm.node_id for v, vm in never.vms.items()
    }
