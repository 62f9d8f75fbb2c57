"""Tests for Nova server groups and their scheduler filters."""

import pytest

from repro.infrastructure.flavors import default_catalog
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.filters import default_filters
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.scheduler.server_groups import (
    ServerGroupAffinityFilter,
    ServerGroupAntiAffinityFilter,
    ServerGroupRegistry,
)


@pytest.fixture
def registry():
    return ServerGroupRegistry()


class TestRegistry:
    def test_create_and_membership(self, registry):
        registry.create("ha", "anti-affinity")
        registry.add_member("ha", "vm-1")
        assert registry.group_of("vm-1").group_id == "ha"
        assert registry.group_of("loner") is None

    def test_duplicate_group_rejected(self, registry):
        registry.create("g", "affinity")
        with pytest.raises(ValueError, match="already exists"):
            registry.create("g", "affinity")

    def test_unknown_policy_rejected(self, registry):
        with pytest.raises(ValueError, match="unknown policy"):
            registry.create("g", "repulsion")

    def test_member_in_one_group_only(self, registry):
        registry.create("a", "affinity")
        registry.create("b", "affinity")
        registry.add_member("a", "vm-1")
        with pytest.raises(ValueError, match="already belongs"):
            registry.add_member("b", "vm-1")

    def test_placement_bookkeeping(self, registry):
        registry.create("g", "anti-affinity")
        registry.add_member("g", "vm-1")
        registry.record_placement("vm-1", "host-a")
        assert registry.get("g").hosts == {"host-a": 1}
        registry.record_removal("vm-1", "host-a")
        assert registry.get("g").hosts == {}

    def test_non_member_placements_ignored(self, registry):
        registry.record_placement("loner", "host-a")  # no-op, no error


class TestFiltersEndToEnd:
    def _scheduler(self, tiny_region, registry):
        placement = PlacementService()
        for bb in tiny_region.iter_building_blocks():
            placement.register_building_block(bb)
        filters = default_filters() + [
            ServerGroupAffinityFilter(registry),
            ServerGroupAntiAffinityFilter(registry),
        ]
        return FilterScheduler(
            tiny_region, placement, SchedulerConfig(filters=filters)
        )

    def test_anti_affinity_spreads_members(self, tiny_region, registry):
        registry.create("ha", "anti-affinity")
        scheduler = self._scheduler(tiny_region, registry)
        catalog = default_catalog()
        hosts = []
        for i in range(2):  # only 2 general hosts exist in the tiny region
            vm_id = f"vm-{i}"
            registry.add_member("ha", vm_id)
            result = scheduler.schedule(
                RequestSpec(vm_id=vm_id, flavor=catalog.get("g_c4_m16"))
            )
            registry.record_placement(vm_id, result.host_id)
            hosts.append(result.host_id)
        assert len(set(hosts)) == 2

    def test_anti_affinity_fails_when_hosts_exhausted(self, tiny_region, registry):
        registry.create("ha", "anti-affinity")
        scheduler = self._scheduler(tiny_region, registry)
        catalog = default_catalog()
        for i in range(2):
            vm_id = f"vm-{i}"
            registry.add_member("ha", vm_id)
            result = scheduler.schedule(
                RequestSpec(vm_id=vm_id, flavor=catalog.get("g_c4_m16"))
            )
            registry.record_placement(vm_id, result.host_id)
        registry.add_member("ha", "vm-2")
        with pytest.raises(NoValidHost):
            scheduler.schedule(
                RequestSpec(vm_id="vm-2", flavor=catalog.get("g_c4_m16"))
            )

    def test_affinity_co_locates_members(self, tiny_region, registry):
        registry.create("pair", "affinity")
        scheduler = self._scheduler(tiny_region, registry)
        catalog = default_catalog()
        hosts = []
        for i in range(3):
            vm_id = f"vm-{i}"
            registry.add_member("pair", vm_id)
            result = scheduler.schedule(
                RequestSpec(vm_id=vm_id, flavor=catalog.get("g_c4_m16"))
            )
            registry.record_placement(vm_id, result.host_id)
            hosts.append(result.host_id)
        assert len(set(hosts)) == 1

    def test_non_members_unconstrained(self, tiny_region, registry):
        registry.create("pair", "affinity")
        scheduler = self._scheduler(tiny_region, registry)
        catalog = default_catalog()
        result = scheduler.schedule(
            RequestSpec(vm_id="loner", flavor=catalog.get("g_c4_m16"))
        )
        assert result.host_id
