"""Tests for workload profiles, including the Fig 14 calibration targets."""

import numpy as np
import pytest

from repro.infrastructure.flavors import default_catalog
from repro.workloads.profiles import PROFILES, _clamp, profile_for_flavor


@pytest.fixture(scope="module")
def big_rng():
    return np.random.default_rng(7)


def test_all_profiles_named_consistently():
    for name, profile in PROFILES.items():
        assert profile.name == name


def test_profiles_cover_paper_application_classes():
    """§5.5 names dev environments, CI/CD, and Kubernetes infrastructure."""
    assert {"hana_db", "abap_app", "cicd", "devenv", "k8s_infra"} <= set(PROFILES)


class TestSampledMeans:
    def test_cpu_means_mostly_low(self, big_rng):
        """Fig 14a: the population is strongly CPU-overprovisioned."""
        samples = np.asarray(
            [PROFILES["general"].sample_cpu_mean(big_rng) for _ in range(4000)]
        )
        assert np.mean(samples < 0.70) > 0.80

    def test_hana_memory_means_high(self, big_rng):
        samples = np.asarray(
            [PROFILES["hana_db"].sample_mem_mean(big_rng) for _ in range(2000)]
        )
        assert np.mean(samples > 0.85) > 0.80

    def test_mixed_memory_bimodality(self, big_rng):
        """The general mix must produce both low and near-full memory VMs."""
        samples = np.asarray(
            [PROFILES["general"].sample_mem_mean(big_rng) for _ in range(4000)]
        )
        assert np.mean(samples > 0.85) > 0.3
        assert np.mean(samples < 0.70) > 0.25


class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_cpu_pattern_tracks_requested_mean(self, name, big_rng):
        profile = PROFILES[name]
        grid = np.arange(0, 14 * 86_400, 1800.0)
        target = 0.3
        means = []
        for _ in range(8):
            pattern = profile.cpu_pattern(target, big_rng)
            means.append(float(np.mean(np.clip(pattern(grid), 0, 1))))
        assert 0.1 < float(np.mean(means)) < 0.55

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_patterns_stay_in_unit_interval(self, name, big_rng):
        profile = PROFILES[name]
        grid = np.arange(0, 7 * 86_400, 900.0)
        cpu = profile.cpu_pattern(0.5, big_rng)(grid)
        mem = profile.mem_pattern(0.5, big_rng)(grid)
        for values in (cpu, mem):
            assert values.min() >= 0.0
            assert values.max() <= 1.0

    def test_mem_pattern_stable_profiles_flat(self, big_rng):
        profile = PROFILES["k8s_infra"]  # mem_stability = 0.9
        grid = np.arange(0, 30 * 86_400, 3600.0)
        stds = [
            float(np.std(profile.mem_pattern(0.6, big_rng)(grid))) for _ in range(10)
        ]
        assert float(np.median(stds)) < 0.05


class TestProfileAssignment:
    def test_hana_flavors_get_hana_profile(self, big_rng):
        catalog = default_catalog()
        hana = catalog.get("h_c64_m1024")
        for _ in range(20):
            assert profile_for_flavor(hana, big_rng).name == "hana_db"

    def test_general_flavors_get_mix(self, big_rng):
        catalog = default_catalog()
        flavor = catalog.get("g_c4_m16")
        names = {profile_for_flavor(flavor, big_rng).name for _ in range(300)}
        assert len(names) >= 4  # a real mix, not one profile

    def test_gpu_flavor_mapped(self, big_rng):
        catalog = default_catalog()
        assert profile_for_flavor(catalog.get("gpu_c32_m256"), big_rng).name == "k8s_infra"


@pytest.mark.parametrize("bounds", [(0.01, 0.99), (0.02, 0.9), (0.02, 0.98), (0.02, 0.99)])
def test_clamp_equals_np_clip(bounds):
    """The profiles' scalar clamp gives np.clip's result bit for bit."""
    lo, hi = bounds
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi, np.nextafter(lo, 0), np.nextafter(hi, 1)]
    for x in special + list(rng.uniform(-0.5, 1.5, 500)) + [np.float64(0.5), 1]:
        want = float(np.clip(x, lo, hi))
        got = _clamp(x, lo, hi)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
