"""Workload profiles: per-application-class demand characteristics.

Each profile fixes (a) the distribution from which a VM's *average*
utilisation ratio is drawn — calibrated so the population reproduces the
paper's Fig 14 CDFs — and (b) the temporal pattern shaping demand around
that average.

Calibration targets (Fig 14, §5.5):

- CPU: >80% of VMs use <70% of allocated CPU on average (strong
  overprovisioning); only a small set is optimally utilised (70–85%) and a
  smaller one overutilised (>85%).
- Memory: ≈38% of VMs below 70%, ≈10% within 70–85%, the remaining ≈52%
  above 85% — memory requests are much better aligned with usage, driven by
  in-memory databases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.infrastructure.flavors import Flavor
from repro.sampling import categorical_cdf, draw
from repro.workloads import patterns as pat


def _clamp(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` by comparison; NaN passes through."""
    return float(lo if x < lo else hi if x > hi else x)


@dataclass(frozen=True)
class WorkloadProfile:
    """Demand characteristics of one application class.

    ``cpu_mean_beta`` / ``mem_mean_beta`` are (alpha, beta) parameters of the
    Beta distribution from which the VM's lifetime-average utilisation ratio
    is drawn.  ``cpu_pattern_kind`` selects the temporal shape.  Network and
    disk are modelled relative to VM size.
    """

    name: str
    cpu_mean_beta: tuple[float, float]
    mem_mean_beta: tuple[float, float]
    cpu_pattern_kind: str  # "diurnal" | "bursty" | "constant" | "ramp" | "spiky"
    mem_stability: float  # 0..1, higher = flatter memory curve
    network_kbps_per_vcpu: float
    disk_fill_fraction: tuple[float, float]  # uniform range of disk used
    #: Probability this VM runs memory-resident (mean drawn near full) —
    #: Fig 14b: ~52% of all VMs consume >85% of requested memory.
    mem_high_share: float = 0.5
    #: Probability this VM runs CPU-hot (mean drawn in the 0.7..0.95 band) —
    #: Fig 14a: a small optimally-utilised set, a smaller overutilised one.
    cpu_hot_share: float = 0.10

    def sample_cpu_mean(self, rng: np.random.Generator) -> float:
        if rng.random() < self.cpu_hot_share:
            # Hot component straddling the 70%/85% thresholds.
            return float(rng.beta(14.0, 4.0))
        a, b = self.cpu_mean_beta
        return float(rng.beta(a, b))

    def sample_mem_mean(self, rng: np.random.Generator) -> float:
        if rng.random() < self.mem_high_share:
            # Memory-resident component: mean ≈ 0.945, nearly all above 0.85.
            return float(rng.beta(60.0, 3.5))
        a, b = self.mem_mean_beta
        return float(rng.beta(a, b))

    def cpu_pattern(
        self, mean_level: float, rng: np.random.Generator
    ) -> pat.DemandPattern:
        """Temporal CPU pattern oscillating around ``mean_level``."""
        mean_level = _clamp(mean_level, 0.01, 0.99)
        if self.cpu_pattern_kind == "constant":
            base = pat.constant(mean_level)
        elif self.cpu_pattern_kind == "diurnal":
            swing = min(mean_level * 0.8, (1 - mean_level) * 0.9)
            base = pat.composite(
                [
                    pat.diurnal(
                        base=mean_level - swing * 0.5,
                        peak=mean_level + swing,
                        peak_hour=float(rng.uniform(8, 16)),
                        width_hours=float(rng.uniform(2.5, 5.0)),
                    ),
                    pat.weekly(1.0, float(rng.uniform(0.5, 0.8))),
                ],
                mode="product",
            )
        elif self.cpu_pattern_kind == "bursty":
            burst = min(1.0, mean_level * float(rng.uniform(3.0, 6.0)))
            prob = mean_level / burst if burst > 0 else 0.2
            base = pat.bursty(
                base=mean_level * 0.3,
                burst_level=burst,
                burst_probability=_clamp(prob, 0.02, 0.9),
                rng=rng,
                correlation=int(rng.integers(2, 12)),
            )
        elif self.cpu_pattern_kind == "ramp":
            drift = float(rng.uniform(-0.3, 0.5))
            end = _clamp(mean_level + drift, 0.02, 0.98)
            base = pat.ramp(mean_level, end, duration=20 * pat.SECONDS_PER_DAY)
        elif self.cpu_pattern_kind == "spiky":
            base = pat.composite(
                [
                    pat.constant(mean_level * 0.8),
                    pat.spike_train(
                        base=0.0,
                        spike_level=min(1.0, mean_level + 0.4),
                        period=float(rng.uniform(0.5, 2.0)) * pat.SECONDS_PER_DAY,
                        spike_width=float(rng.uniform(600, 7200)),
                        phase=float(rng.uniform(0, pat.SECONDS_PER_DAY)),
                    ),
                ],
                mode="max",
            )
        else:
            raise ValueError(f"unknown pattern kind: {self.cpu_pattern_kind}")
        return pat.with_noise(base, sigma=0.03, rng=rng)

    def mem_pattern(
        self, mean_level: float, rng: np.random.Generator
    ) -> pat.DemandPattern:
        """Temporal memory pattern: mostly flat, optional slow growth."""
        mean_level = _clamp(mean_level, 0.02, 0.99)
        if rng.random() < (1.0 - self.mem_stability):
            # Slow memory growth: caches/heaps filling over days (§5.2).
            start = mean_level * float(rng.uniform(0.85, 0.98))
            end = min(0.99, mean_level * float(rng.uniform(1.0, 1.12)))
            base = pat.ramp(start, end, duration=25 * pat.SECONDS_PER_DAY)
        else:
            base = pat.constant(mean_level)
        return pat.with_noise(base, sigma=0.01, rng=rng)


#: The application classes named in §5.5.
PROFILES: dict[str, WorkloadProfile] = {
    # HANA in-memory DBs: near-full memory residency, moderate CPU.
    "hana_db": WorkloadProfile(
        name="hana_db",
        cpu_mean_beta=(1.5, 10.0),
        mem_mean_beta=(14.0, 1.6),
        cpu_pattern_kind="diurnal",
        mem_stability=0.8,
        network_kbps_per_vcpu=8000.0,
        disk_fill_fraction=(0.3, 0.8),
        mem_high_share=0.95,
        cpu_hot_share=0.03,
    ),
    # ABAP application servers: diurnal CPU, high-ish memory.
    "abap_app": WorkloadProfile(
        name="abap_app",
        cpu_mean_beta=(1.8, 4.0),
        mem_mean_beta=(2.6, 2.0),
        cpu_pattern_kind="diurnal",
        mem_stability=0.6,
        network_kbps_per_vcpu=5000.0,
        disk_fill_fraction=(0.2, 0.6),
        mem_high_share=0.60,
        cpu_hot_share=0.12,
    ),
    # CI/CD runners: bursty, low average CPU, moderate memory.
    "cicd": WorkloadProfile(
        name="cicd",
        cpu_mean_beta=(1.3, 5.5),
        mem_mean_beta=(2.2, 2.2),
        cpu_pattern_kind="bursty",
        mem_stability=0.7,
        network_kbps_per_vcpu=12000.0,
        disk_fill_fraction=(0.1, 0.7),
        mem_high_share=0.48,
        cpu_hot_share=0.10,
    ),
    # Developer environments: mostly idle.
    "devenv": WorkloadProfile(
        name="devenv",
        cpu_mean_beta=(1.2, 8.0),
        mem_mean_beta=(2.0, 2.4),
        cpu_pattern_kind="diurnal",
        mem_stability=0.8,
        network_kbps_per_vcpu=1500.0,
        disk_fill_fraction=(0.05, 0.5),
        mem_high_share=0.42,
        cpu_hot_share=0.05,
    ),
    # Kubernetes infrastructure: steady moderate load.
    "k8s_infra": WorkloadProfile(
        name="k8s_infra",
        cpu_mean_beta=(2.2, 5.0),
        mem_mean_beta=(2.4, 2.0),
        cpu_pattern_kind="constant",
        mem_stability=0.9,
        network_kbps_per_vcpu=20000.0,
        disk_fill_fraction=(0.2, 0.6),
        mem_high_share=0.55,
        cpu_hot_share=0.15,
    ),
    # Catch-all general purpose.
    "general": WorkloadProfile(
        name="general",
        cpu_mean_beta=(1.5, 5.0),
        mem_mean_beta=(2.2, 2.2),
        cpu_pattern_kind="spiky",
        mem_stability=0.75,
        network_kbps_per_vcpu=4000.0,
        disk_fill_fraction=(0.1, 0.8),
        mem_high_share=0.52,
        cpu_hot_share=0.12,
    ),
}

#: Weights for assigning profiles to general-purpose VMs.
_GENERAL_MIX: tuple[tuple[str, float], ...] = (
    ("devenv", 0.30),
    ("cicd", 0.20),
    ("k8s_infra", 0.15),
    ("general", 0.25),
    ("abap_app", 0.10),
)
_GENERAL_PROFILES = tuple(PROFILES[name] for name, _ in _GENERAL_MIX)
_GENERAL_WEIGHTS = np.asarray([w for _, w in _GENERAL_MIX])
_GENERAL_CDF = categorical_cdf(_GENERAL_WEIGHTS / _GENERAL_WEIGHTS.sum())


def profile_for_flavor(flavor: Flavor, rng: np.random.Generator) -> WorkloadProfile:
    """Pick a workload profile appropriate for a flavor.

    HANA-family flavors run in-memory databases; the large general-purpose
    flavors skew towards ABAP application servers; the rest draw from the
    general mix (§5.5: app servers live in small/medium/large classes, HANA
    DBs in extra large).
    """
    if flavor.family == "hana":
        return PROFILES["hana_db"]
    if flavor.family == "gpu":
        return PROFILES["k8s_infra"]
    if flavor.vcpus > 16 and rng.random() < 0.5:
        return PROFILES["abap_app"]
    return _GENERAL_PROFILES[draw(_GENERAL_CDF, rng)]
