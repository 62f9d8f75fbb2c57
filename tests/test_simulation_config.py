"""SimulationConfig validates its intervals, and ``drs_interval_s=None``
means "no DRS pass"."""

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
