"""Tests for resize events and maintenance windows in the DES runner."""

import hashlib
import json

import pytest

from repro.scheduler.placement import MEMORY_MB, VCPU
from repro.simulation.runner import RegionSimulation, SimulationConfig
from tests.conftest import build_tiny_region_spec


@pytest.fixture(scope="module")
def churn_result():
    sim = RegionSimulation(
        build_tiny_region_spec(),
        SimulationConfig(
            duration_days=1.0,
            scrape_interval_s=3600,
            drs_interval_s=43_200,
            arrival_rate_per_hour=6.0,
            resize_rate_per_hour=4.0,
            maintenance_rate_per_day=6.0,
            maintenance_duration_s=2 * 3600.0,
            initial_vms=50,
            seed=11,
        ),
    )
    return sim.run()


def churn_outcome_digest(result) -> str:
    """SHA-256 over everything the create/resize/maintenance path decides."""
    doc = {
        "created": result.created,
        "deleted": result.deleted,
        "rejected": result.rejected,
        "resized": result.resized,
        "resize_failed": result.resize_failed,
        "drs_migrations": result.drs_migrations,
        "maintenance_windows": result.maintenance_windows,
        "events": result.events_processed,
        "scheduler_stats": dict(sorted(result.scheduler_stats.items())),
        "placement_stats": result.placement.stats(),
        "placements": sorted(
            (vm_id, vm.node_id, vm.state.value, vm.flavor.name)
            for vm_id, vm in result.vms.items()
        ),
        "store": result.store.content_fingerprint(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Outcome digest of the ``churn_result`` configuration.  Any change to a
#: placement, counter, RNG draw or scraped sample changes it; update it only
#: for an intentional behaviour change, and explain the change.
CHURN_OUTCOME_DIGEST = (
    "2a1b2d9d04abee1b50a7e2a9322b63d2a06e8dfd83951a3de2253c7b76a87a79"
)


def test_churn_outcome_digest_is_pinned(churn_result):
    assert churn_outcome_digest(churn_result) == CHURN_OUTCOME_DIGEST


def test_resizes_happen(churn_result):
    assert churn_result.resized + churn_result.resize_failed > 0
    assert churn_result.resized > 0


def test_allocations_consistent_after_resizes(churn_result):
    """Resize rollbacks and successes must keep placement exact."""
    for bb in churn_result.region.iter_building_blocks():
        provider = churn_result.placement.provider(bb.bb_id)
        resident = bb.vms()
        assert provider.used[VCPU] == pytest.approx(
            sum(vm.flavor.vcpus for vm in resident)
        )
        assert provider.used[MEMORY_MB] == pytest.approx(
            sum(vm.flavor.ram_mb for vm in resident)
        )


def test_no_overcommit_violation_after_churn(churn_result):
    for provider in churn_result.placement.providers():
        for rc in (VCPU, MEMORY_MB):
            assert provider.used[rc] <= provider.capacity(rc) + 1e-6


def test_maintenance_windows_ran_and_cleared(churn_result):
    assert churn_result.maintenance_windows > 0
    # All windows were 2h inside a 24h run: everything is back in service.
    in_maintenance = [
        n for n in churn_result.region.iter_nodes() if n.maintenance
    ]
    assert len(in_maintenance) <= 1  # at most a window still open at t_end


def test_resized_vms_are_active(churn_result):
    for vm in churn_result.vms.values():
        if vm.alive:
            assert vm.node_id is not None


class TestHolisticFactory:
    @pytest.fixture(scope="class")
    def holistic_result(self):
        sim = RegionSimulation(
            build_tiny_region_spec(),
            SimulationConfig(
                duration_days=0.5,
                scrape_interval_s=3600,
                drs_interval_s=43_200,
                arrival_rate_per_hour=8.0,
                initial_vms=40,
                seed=21,
                scheduler_factory="holistic",
            ),
        )
        return sim.run()

    def test_places_vms_via_node_level_scheduler(self, holistic_result):
        assert holistic_result.created > 30
        assert holistic_result.scheduler_stats["placed"] > 30

    def test_allocations_consistent(self, holistic_result):
        for bb in holistic_result.region.iter_building_blocks():
            provider = holistic_result.placement.provider(bb.bb_id)
            assert provider.used[VCPU] == pytest.approx(
                sum(vm.flavor.vcpus for vm in bb.vms())
            )

    def test_unknown_factory_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler_factory"):
            RegionSimulation(
                build_tiny_region_spec(),
                SimulationConfig(scheduler_factory="magic"),
            )
