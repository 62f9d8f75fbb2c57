"""Per-VM demand synthesis: bind a profile to a flavor and emit demand series.

A :class:`VMDemand` holds the sampled average utilisation ratios and pattern
records (:mod:`repro.workloads.patterns`) for one VM;
:meth:`VMDemand.evaluate` turns a timestamp grid into absolute resource
demand (vCPU-seconds-per-second, MiB, kbps, GiB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.infrastructure.flavors import Flavor
from repro.workloads.patterns import DemandPattern
from repro.workloads.profiles import WorkloadProfile, profile_for_flavor


@dataclass(frozen=True)
class DemandSnapshot:
    """Absolute demand of one VM across a timestamp grid."""

    timestamps: np.ndarray
    cpu_cores: np.ndarray  # demanded physical-core-equivalents
    memory_mb: np.ndarray
    network_tx_kbps: np.ndarray
    network_rx_kbps: np.ndarray
    disk_gb: np.ndarray
    cpu_ratio: np.ndarray  # demand / requested (for Fig 14a)
    memory_ratio: np.ndarray  # demand / requested (for Fig 14b)


@dataclass
class VMDemand:
    """Demand generator for a single VM."""

    flavor: Flavor
    profile: WorkloadProfile
    cpu_mean: float
    mem_mean: float
    cpu_pattern: DemandPattern
    mem_pattern: DemandPattern
    network_activity: float  # multiplier on profile network rate
    disk_used_fraction: float

    def evaluate(self, timestamps: np.ndarray) -> DemandSnapshot:
        """Demand across ``timestamps`` (epoch seconds)."""
        ts = np.asarray(timestamps, dtype=float)
        cpu_ratio = np.clip(self.cpu_pattern(ts), 0.0, 1.0)
        mem_ratio = np.clip(self.mem_pattern(ts), 0.0, 1.0)
        net = (
            self.network_activity
            * self.profile.network_kbps_per_vcpu
            * self.flavor.vcpus
            * cpu_ratio
        )
        return DemandSnapshot(
            timestamps=ts,
            cpu_cores=cpu_ratio * self.flavor.vcpus,
            memory_mb=mem_ratio * self.flavor.ram_mb,
            network_tx_kbps=net,
            network_rx_kbps=net * 0.8,
            disk_gb=np.full(len(ts), self.disk_used_fraction * self.flavor.disk_gb),
            cpu_ratio=cpu_ratio,
            memory_ratio=mem_ratio,
        )


class DemandModel:
    """Factory producing :class:`VMDemand` instances for flavors."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def demand_for(
        self, flavor: Flavor, profile: WorkloadProfile | None = None
    ) -> VMDemand:
        """Sample a demand generator for one VM of ``flavor``."""
        rng = self._rng
        if profile is None:
            profile = profile_for_flavor(flavor, rng)
        cpu_mean = profile.sample_cpu_mean(rng)
        mem_mean = profile.sample_mem_mean(rng)
        lo, hi = profile.disk_fill_fraction
        return VMDemand(
            flavor=flavor,
            profile=profile,
            cpu_mean=cpu_mean,
            mem_mean=mem_mean,
            cpu_pattern=profile.cpu_pattern(cpu_mean, rng),
            mem_pattern=profile.mem_pattern(mem_mean, rng),
            network_activity=float(rng.uniform(0.2, 1.0)),
            disk_used_fraction=float(rng.uniform(lo, hi)),
        )
