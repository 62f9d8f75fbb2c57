"""Configuration for the fault-injection subsystem.

All stochastic behaviour is driven by one seeded generator owned by the
injector, so a :class:`FaultConfig` plus a topology plus a workload seed
fully determines every injected fault — determinism is load-bearing for
the dataset-regeneration pillar (same seed ⇒ byte-identical report).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro._finite import require_finite


@dataclass(frozen=True)
class FaultConfig:
    """Hazard rates and recovery knobs for one simulated region.

    Rates are region-wide expectations; individual victims are drawn
    uniformly from the currently healthy nodes when each event fires.
    """

    #: Seed for the injector's private RNG (independent of the workload RNG
    #: so enabling faults does not perturb the arrival stream).
    seed: int = 23
    #: Expected hard host failures per day across the region (Poisson).
    host_failure_rate_per_day: float = 0.0
    #: Mean time-to-repair for a failed host (exponential draw).
    repair_time_mean_s: float = 6 * 3600.0
    #: Floor on any repair draw (a reboot is never instantaneous).
    repair_time_min_s: float = 600.0
    #: Fraction of live migrations that abort mid-precopy and roll back.
    migration_abort_fraction: float = 0.0
    #: Probability that one whole scrape cycle is missed (exporter gap).
    scrape_gap_probability: float = 0.0
    #: Per-node-per-scrape probability of reporting staleness markers
    #: instead of fresh samples (stuck exporter / stale cache).
    stale_node_probability: float = 0.0
    #: Evacuation attempts per stranded VM before dead-lettering.
    evac_max_retries: int = 5
    #: First retry backoff; later retries multiply by ``evac_backoff_factor``.
    evac_backoff_base_s: float = 30.0
    evac_backoff_factor: float = 2.0
    #: Cap on evacuations launched in one batch; surplus VMs start one
    #: ``evac_batch_spacing_s`` later per batch (bounded recovery bandwidth).
    max_concurrent_evacuations: int = 8
    evac_batch_spacing_s: float = 60.0
    # -- correlated failure domains ---------------------------------------
    #: Expected AZ-scoped outages per day (Poisson): every healthy node in
    #: one availability zone fails at once and recovers as a unit.
    az_outage_rate_per_day: float = 0.0
    #: Expected building-block-scoped (rack) outages per day.
    bb_outage_rate_per_day: float = 0.0
    #: Mean / floor of a domain outage's duration (exponential draw).
    domain_outage_duration_mean_s: float = 1800.0
    domain_outage_duration_min_s: float = 300.0
    #: Expected exporter↔store network partitions per day: every scrape
    #: from the partitioned domain is blackholed until the partition heals.
    partition_rate_per_day: float = 0.0
    partition_duration_mean_s: float = 1800.0
    partition_duration_min_s: float = 120.0
    #: Scope of a partition victim: "bb" (one building block) or "az".
    partition_scope: str = "bb"
    # -- targeted flapping ------------------------------------------------
    #: Number of nodes afflicted with deterministic fail/recover
    #: oscillation (exercises flap detection + quarantine end-to-end).
    flapping_hosts: int = 0
    #: Full fail→recover cycle length for a flapping host; the host is
    #: down for half of each cycle.
    flapping_period_s: float = 1200.0
    #: Fail/recover cycles per flapping host before it settles.
    flapping_cycles: int = 4

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.host_failure_rate_per_day < 0:
            raise ValueError("host_failure_rate_per_day must be >= 0")
        if self.repair_time_mean_s <= 0 or self.repair_time_min_s < 0:
            raise ValueError("repair times must be positive")
        for name in ("migration_abort_fraction", "scrape_gap_probability",
                     "stale_node_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.evac_max_retries < 1:
            raise ValueError("evac_max_retries must be >= 1")
        if self.evac_backoff_base_s < 0 or self.evac_backoff_factor < 1.0:
            raise ValueError("backoff base must be >= 0 and factor >= 1")
        if self.max_concurrent_evacuations < 1:
            raise ValueError("max_concurrent_evacuations must be >= 1")
        if self.evac_batch_spacing_s < 0:
            raise ValueError("evac_batch_spacing_s must be >= 0")
        if self.az_outage_rate_per_day < 0 or self.bb_outage_rate_per_day < 0:
            raise ValueError("domain outage rates must be >= 0")
        if (
            self.domain_outage_duration_mean_s <= 0
            or self.domain_outage_duration_min_s < 0
        ):
            raise ValueError("domain outage durations must be positive")
        if self.partition_rate_per_day < 0:
            raise ValueError("partition_rate_per_day must be >= 0")
        if self.partition_duration_mean_s <= 0 or self.partition_duration_min_s < 0:
            raise ValueError("partition durations must be positive")
        if self.partition_scope not in ("bb", "az"):
            raise ValueError("partition_scope must be 'bb' or 'az'")
        if self.flapping_hosts < 0 or self.flapping_cycles < 1:
            raise ValueError("flapping_hosts must be >= 0 and cycles >= 1")
        if self.flapping_period_s <= 0:
            raise ValueError("flapping_period_s must be positive")

    @classmethod
    def from_dict(cls, data: object) -> "FaultConfig":
        """Build a config from parsed JSON; ``ValueError`` on any problem.

        Unknown keys are rejected by name (a typo must not silently fall
        back to a default hazard rate), and field validation runs as
        usual via ``__post_init__``.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"fault config must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"invalid fault config: {exc}") from exc

    @property
    def any_faults(self) -> bool:
        """Whether this config injects anything at all."""
        return (
            self.host_failure_rate_per_day > 0
            or self.migration_abort_fraction > 0
            or self.scrape_gap_probability > 0
            or self.stale_node_probability > 0
            or self.az_outage_rate_per_day > 0
            or self.bb_outage_rate_per_day > 0
            or self.partition_rate_per_day > 0
            or self.flapping_hosts > 0
        )
