"""Tests for SchedulerConfig and the consolidated scheduler API.

Covers the config value object itself, the rejection of the retired
keyword arguments on ``FilterScheduler``, the shared stats vocabulary, and — most importantly —
placement equivalence: every (use_index, track_filter_counts) combination
must produce byte-identical placements for the same request stream.
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

from tests.conftest import build_tiny_region_spec


def _stream(catalog, n=40):
    """A deterministic mixed request stream for the tiny region."""
    names = ("g_c1_m1", "g_c4_m16", "g_c16_m64", "h_c32_m512", "h_c96_m3072")
    stream = []
    for i in range(n):
        kwargs = {}
        if i % 7 == 3:
            kwargs["availability_zone"] = "az1" if i % 2 else "az2"
        stream.append(
            RequestSpec(
                vm_id=f"vm-{i:03d}", flavor=catalog.get(names[i % len(names)]), **kwargs
            )
        )
    return stream


def _replay(config, stream):
    region = build_region(build_tiny_region_spec())
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    scheduler = FilterScheduler(region, placement, config)
    placements = {}
    for spec in stream:
        try:
            placements[spec.vm_id] = scheduler.schedule(spec).host_id
        except NoValidHost:
            placements[spec.vm_id] = None
    return placements, scheduler, placement


class TestConfigObject:
    def test_defaults(self):
        config = SchedulerConfig()
        assert config.use_index
        assert config.track_filter_counts
        assert config.max_attempts == 3
        assert config.alternates == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SchedulerConfig(alternates=-1)

    def test_fast_disables_trace_only(self):
        config = SchedulerConfig(max_attempts=5)
        fast = config.fast()
        assert not fast.track_filter_counts
        assert fast.max_attempts == 5
        assert config.track_filter_counts  # original untouched (frozen)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerConfig().use_index = False


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
    """All hot-path toggles must yield identical placements."""

    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("track", [True, False])
    def test_matches_reference_combination(self, use_index, track):
        catalog = default_catalog()
        stream = _stream(catalog)
        reference, _, _ = _replay(
            SchedulerConfig(use_index=False, track_filter_counts=True), stream
        )
        got, _, _ = _replay(
            SchedulerConfig(use_index=use_index, track_filter_counts=track), stream
        )
        assert got == reference

    def test_fast_mode_drops_trace_but_counts_survivors(self):
        catalog = default_catalog()
        _, scheduler, _ = _replay(SchedulerConfig().fast(), _stream(catalog, n=5))
        result = scheduler.schedule(
            RequestSpec(vm_id="probe", flavor=catalog.get("g_c1_m1"))
        )
        assert set(result.filtered_counts) == {"initial", "survivors"}


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
