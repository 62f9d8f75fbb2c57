"""Tests for weighers and the normalising weigher pipeline."""

import pytest

from repro.infrastructure.flavors import Flavor
from repro.scheduler.hoststate import HostState
from repro.scheduler.request import RequestSpec
from repro.scheduler.weighers import (
    CPUWeigher,
    DiskWeigher,
    FitnessWeigher,
    IoOpsWeigher,
    NumInstancesWeigher,
    RAMWeigher,
    WeigherPipeline,
)


def host(host_id, vcpus=0.0, ram=0.0, disk=0.0, instances=0) -> HostState:
    return HostState(
        host_id=host_id,
        free_vcpus=vcpus,
        free_ram_mb=ram,
        free_disk_gb=disk,
        total_vcpus=1000,
        total_ram_mb=1e7,
        total_disk_gb=1e5,
        num_instances=instances,
    )


SPEC = RequestSpec(vm_id="v", flavor=Flavor("f", vcpus=4, ram_gib=16))


class TestRawWeights:
    def test_cpu_ram_disk_prefer_free(self):
        h = host("h", vcpus=10, ram=100, disk=7)
        assert CPUWeigher().raw_weight(h, SPEC) == 10
        assert RAMWeigher().raw_weight(h, SPEC) == 100
        assert DiskWeigher().raw_weight(h, SPEC) == 7

    def test_num_instances_prefers_fewer(self):
        assert NumInstancesWeigher().raw_weight(host("h", instances=5), SPEC) == -5

    def test_io_ops_prefers_idle_provisioning(self):
        busy = host("busy")
        busy.num_io_ops = 7
        calm = host("calm")
        weigher = IoOpsWeigher()
        assert weigher.raw_weight(calm, SPEC) > weigher.raw_weight(busy, SPEC)

    def test_fitness_prefers_tight_fit(self):
        tight = host("tight", vcpus=5, ram=17 * 1024)
        roomy = host("roomy", vcpus=500, ram=1e6)
        weigher = FitnessWeigher()
        assert weigher.raw_weight(tight, SPEC) > weigher.raw_weight(roomy, SPEC)


def _scores(hosts) -> list[float]:
    """One CPU weigher's pipeline scores, in the order of ``hosts``."""
    ranked = WeigherPipeline([CPUWeigher(1.0)]).rank(hosts, SPEC)
    by_id = {h.host_id: score for h, score in ranked}
    return [by_id[h.host_id] for h in hosts]


class TestNormalization:
    def test_min_max_to_unit_interval(self):
        hosts = [host("a", vcpus=10), host("b", vcpus=20), host("c", vcpus=30)]
        assert _scores(hosts) == [0.0, 0.5, 1.0]

    def test_constant_column_is_zero(self):
        assert _scores([host("a", vcpus=5), host("b", vcpus=5)]) == [0.0, 0.0]


class TestPipeline:
    def test_spread_ranks_empustest_first(self):
        hosts = [host("full", vcpus=10), host("empty", vcpus=100)]
        ranked = WeigherPipeline([CPUWeigher(1.0)]).rank(hosts, SPEC)
        assert ranked[0][0].host_id == "empty"

    def test_negative_multiplier_packs(self):
        """Nova semantics: negative multiplier inverts the preference."""
        hosts = [host("full", vcpus=10), host("empty", vcpus=100)]
        ranked = WeigherPipeline([CPUWeigher(-1.0)]).rank(hosts, SPEC)
        assert ranked[0][0].host_id == "full"

    def test_multiplier_magnitude_breaks_conflicts(self):
        # RAM says host a; CPU says host b; RAM has the bigger multiplier.
        hosts = [host("a", vcpus=1, ram=100), host("b", vcpus=100, ram=1)]
        ranked = WeigherPipeline([CPUWeigher(1.0), RAMWeigher(3.0)]).rank(hosts, SPEC)
        assert ranked[0][0].host_id == "a"

    def test_deterministic_tiebreak_by_host_id(self):
        hosts = [host("b", vcpus=5), host("a", vcpus=5)]
        ranked = WeigherPipeline([CPUWeigher(1.0)]).rank(hosts, SPEC)
        assert [h.host_id for h, _ in ranked] == ["a", "b"]

    def test_empty_host_list(self):
        assert WeigherPipeline([CPUWeigher()]).rank([], SPEC) == []

    def test_empty_weigher_list_rejected(self):
        with pytest.raises(ValueError):
            WeigherPipeline([])

    def test_scores_reported(self):
        hosts = [host("a", vcpus=0), host("b", vcpus=10)]
        ranked = WeigherPipeline([CPUWeigher(2.0)]).rank(hosts, SPEC)
        assert ranked[0][1] == pytest.approx(2.0)
        assert ranked[1][1] == pytest.approx(0.0)
