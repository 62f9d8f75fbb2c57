"""Tests for SchedulerConfig and the consolidated scheduler API.

Covers the config value object itself, the rejection of the retired
keyword arguments on ``FilterScheduler`` and of the retired path switches
on ``SchedulerConfig``, the shared stats vocabulary, and — most importantly —
placement equivalence: the scheduler's one path (index, bucket
pre-selection, cheapest-first filters) must place a request stream exactly
as the from-scratch rescan reference of ``repro.verify.oracle`` does.
"""

import pytest

from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import build_region
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.filters import (
    AvailabilityZoneFilter,
    ComputeFilter,
    RetryFilter,
    default_filters,
)
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.scheduler.stats import (
    PLACEMENT_STAT_KEYS,
    SCHEDULER_STAT_KEYS,
    normalize_stats,
    stats_of,
)
from repro.scheduler.weighers import RAMWeigher
from repro.verify.oracle import _RescanScheduler

from tests.conftest import build_tiny_region_spec


def _stream(catalog, n=40, az=True, hana=True):
    """A deterministic mixed request stream for the tiny region.

    ``az`` adds availability-zone constraints to some requests and
    ``hana`` mixes HANA flavors in with the general-purpose ones.
    """
    names = ("g_c1_m1", "g_c4_m16", "g_c16_m64")
    if hana:
        names += ("h_c32_m512", "h_c96_m3072")
    stream = []
    for i in range(n):
        kwargs = {}
        if az and i % 7 == 3:
            kwargs["availability_zone"] = "az1" if i % 2 else "az2"
        stream.append(
            RequestSpec(
                vm_id=f"vm-{i:03d}", flavor=catalog.get(names[i % len(names)]), **kwargs
            )
        )
    return stream


def _replay(config, stream, scheduler_cls=FilterScheduler):
    """``(vm_id -> (host, score, attempts) or None, scheduler, placement)``."""
    region = build_region(build_tiny_region_spec())
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    scheduler = scheduler_cls(region, placement, config)
    placements = {}
    for spec in stream:
        try:
            result = scheduler.schedule(spec)
        except NoValidHost:
            placements[spec.vm_id] = None
        else:
            placements[spec.vm_id] = (
                result.host_id, result.score.hex(), result.attempts
            )
    return placements, scheduler, placement


class TestConfigObject:
    def test_defaults(self):
        config = SchedulerConfig()
        assert config.filters is None and config.weighers is None
        assert config.max_attempts == 3
        assert config.alternates == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SchedulerConfig(alternates=-1)

    @pytest.mark.parametrize("switch", ["use_index", "track_filter_counts"])
    def test_retired_path_switches_are_rejected(self, switch):
        with pytest.raises(TypeError, match=switch):
            SchedulerConfig(**{switch: False})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerConfig().max_attempts = 5


class TestDeprecatedShims:
    @pytest.fixture
    def region_placement(self, tiny_region):
        placement = PlacementService()
        for bb in tiny_region.iter_building_blocks():
            placement.register_building_block(bb)
        return tiny_region, placement

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 2},
            {"alternates": 1},
            {"weighers": [RAMWeigher(1.0)]},
            {"filters": [ComputeFilter()]},
        ],
    )
    def test_retired_kwargs_are_rejected(self, region_placement, kwargs):
        region, placement = region_placement
        with pytest.raises(TypeError, match="unexpected keyword"):
            FilterScheduler(region, placement, **kwargs)

    def test_config_plus_legacy_kwarg_is_an_error(self, region_placement):
        region, placement = region_placement
        with pytest.raises(TypeError, match="unexpected keyword"):
            FilterScheduler(
                region, placement, SchedulerConfig(), max_attempts=2
            )


class TestPlacementEquivalence:
    """The one scheduling path places exactly as the rescan reference."""

    @pytest.mark.parametrize("az", [True, False])
    @pytest.mark.parametrize("hana", [True, False])
    def test_matches_reference_combination(self, az, hana):
        # With AZ-constrained requests the AZ filter runs, without them it
        # is skipped; HANA requests split the region by aggregate.
        stream = _stream(default_catalog(), az=az, hana=hana)
        assert any(spec.availability_zone for spec in stream) == az
        assert any(spec.flavor.name.startswith("h_") for spec in stream) == hana
        reference, _, _ = _replay(SchedulerConfig(), stream, _RescanScheduler)
        got, _, _ = _replay(SchedulerConfig(), stream)
        assert got == reference
        if az and hana:
            # The full mix fills the region until requests are rejected.
            assert None in got.values()

    def test_filtered_counts_name_each_filter_that_ran(self):
        catalog = default_catalog()
        _, scheduler, _ = _replay(SchedulerConfig(), _stream(catalog, n=5))
        probe = RequestSpec(vm_id="probe", flavor=catalog.get("g_c1_m1"))
        ran = [flt.name for flt in scheduler.filters if flt.relevant(probe)]
        counts = scheduler.schedule(probe).filtered_counts
        assert set(counts) == {"initial", *ran}
        assert "AvailabilityZoneFilter" not in counts  # no AZ asked: skipped
        assert counts["AggregateInstanceExtraSpecsFilter"] < counts["initial"]


class TestFilterRelevance:
    def test_az_filter_irrelevant_without_constraint(self, catalog):
        flt = AvailabilityZoneFilter()
        spec = RequestSpec(vm_id="v", flavor=catalog.get("g_c1_m1"))
        assert not flt.relevant(spec)
        assert flt.relevant(
            RequestSpec(
                vm_id="v", flavor=catalog.get("g_c1_m1"), availability_zone="az1"
            )
        )

    def test_retry_filter_relevant_only_after_exclusions(self, catalog):
        flt = RetryFilter()
        spec = RequestSpec(vm_id="v", flavor=catalog.get("g_c1_m1"))
        assert not flt.relevant(spec)
        assert flt.relevant(spec.excluding("some-host"))

    def test_default_filters_are_cost_ordered_stable(self):
        chain = default_filters()
        costs = [getattr(flt, "cost", 1) for flt in chain]
        assert all(isinstance(c, (int, float)) for c in costs)


class TestSharedStats:
    def test_scheduler_snapshot_has_canonical_keys(self):
        catalog = default_catalog()
        _, scheduler, _ = _replay(SchedulerConfig(), _stream(catalog, n=10))
        snapshot = scheduler.stats_snapshot()
        assert set(SCHEDULER_STAT_KEYS) <= set(snapshot)
        assert snapshot["requests"] == 10
        assert snapshot["placed"] + snapshot["failed"] == 10

    def test_placement_stats_canonical(self):
        catalog = default_catalog()
        _, _, placement = _replay(SchedulerConfig(), _stream(catalog, n=10))
        stats = placement.stats()
        assert set(PLACEMENT_STAT_KEYS) <= set(stats)
        assert stats["claims"] >= stats["moves"]

    def test_stats_of_accepts_both_shapes(self):
        catalog = default_catalog()
        _, scheduler, placement = _replay(SchedulerConfig(), _stream(catalog, n=5))
        assert stats_of(scheduler)["requests"] == 5  # mapping attribute
        assert stats_of(placement)["claims"] >= 1  # method

    def test_normalize_fills_canonical_keys(self):
        out = normalize_stats({"failed": 2, "extra": 1}, SCHEDULER_STAT_KEYS)
        assert out == {
            "requests": 0, "placed": 0, "failed": 2, "retries": 0, "extra": 1
        }
