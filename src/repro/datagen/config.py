"""Generator configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro._finite import require_finite

#: 2024-07-31 00:00:00 UTC — the start of the paper's observation window.
PAPER_WINDOW_START = 1_722_384_000.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic trace generator.

    Defaults target a laptop-friendly ~10% replica of the studied region;
    ``scale=1.0`` with ``sampling_seconds=300`` reproduces the full ~1,800
    node / ~48,000 VM deployment at the paper's finest host sampling
    granularity (§4: 30–300 s).
    """

    #: Fraction of the studied region's size to build (nodes scale linearly).
    scale: float = 0.1
    #: Observation window length in days (§4: 30 days).
    days: int = 30
    #: Telemetry sampling interval in seconds (paper: 30–300 s).
    sampling_seconds: int = 900
    #: RNG seed — every run with the same config is bit-identical.
    seed: int = 20240731
    #: Target mean VM count per node (paper: 48,000 / 1,800 ≈ 27).
    vms_per_node: float = 27.0
    #: Fraction of the initial population size that additionally arrives
    #: (and mostly departs) during the window — the churn visible in the
    #: dataset's lifecycle events.
    churn_fraction: float = 0.15
    #: Fraction of general-purpose nodes made contention hotspots.  Fig 9
    #: shows several nodes exceeding 40% contention while the daily mean and
    #: p95 stay below 5%; hotspots carry demand multipliers producing that.
    hotspot_fraction: float = 0.03
    #: How many VMs additionally get full time-series stored (all VMs always
    #: get lifetime-average ratios in the inventory frame).
    vm_series_limit: int = 200
    #: Observation window start (epoch seconds).
    window_start: float = PAPER_WINDOW_START

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.sampling_seconds < 30:
            raise ValueError("sampling_seconds must be >= 30 (paper granularity)")
        if self.vms_per_node <= 0:
            raise ValueError("vms_per_node must be positive")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be within [0, 1]")
        if not 0.0 <= self.hotspot_fraction <= 0.5:
            raise ValueError("hotspot_fraction must be within [0, 0.5]")

    @property
    def window_end(self) -> float:
        return self.window_start + self.days * 86_400.0
