"""Configuration for the control-plane resilience layer.

One frozen dataclass covers the four services the layer wires into the
regional simulation: host health / quarantine, admission control,
inventory reconciliation, and the continuous invariant checker.  Like
:class:`~repro.faults.config.FaultConfig`, all stochastic behaviour
(quarantine jitter, shed-retry jitter) flows from one private seeded RNG
so a resilience trace replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro._finite import require_finite


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the health, admission, reconciler, and invariant services."""

    #: Seed for the layer's private RNG (independent of workload and fault
    #: seeds so enabling resilience perturbs neither stream).
    seed: int = 101

    # -- host health & quarantine -----------------------------------------
    #: Heartbeat evaluation period: how often the health service compares
    #: each node's observed up/down state against its last observation.
    heartbeat_interval_s: float = 300.0
    #: A node is *flapping* when it logs at least ``flap_threshold``
    #: up↔down transitions within ``flap_window_s``.
    flap_window_s: float = 3600.0
    flap_threshold: int = 4
    #: First quarantine duration; each re-quarantine multiplies it by
    #: ``quarantine_backoff`` (capped), plus seeded jitter in
    #: ``[0, quarantine_jitter_s)``.
    quarantine_base_s: float = 2 * 3600.0
    quarantine_backoff: float = 2.0
    quarantine_max_s: float = 24 * 3600.0
    quarantine_jitter_s: float = 120.0
    #: Probation window after re-admission: a failure during probation
    #: re-quarantines immediately with escalated duration.
    probation_s: float = 1800.0
    #: Quarantine a whole building block once this fraction of its nodes
    #: is quarantined (blast-radius containment; the scheduler's
    #: QuarantineFilter then rejects the block outright).
    bb_quarantine_fraction: float = 0.5

    # -- admission control -------------------------------------------------
    #: Token-bucket refill rate for placement requests; 0 disables rate
    #: limiting (every request reaches the scheduler).
    admission_rate_per_s: float = 0.0
    #: Token-bucket burst capacity.
    admission_burst: int = 20
    #: A shed request is retried ``retry_after`` later (plus jitter in
    #: ``[0, admission_retry_jitter_s)``) until its deadline passes.
    admission_retry_jitter_s: float = 30.0
    #: Per-request deadline: submit time + deadline; a request that cannot
    #: be admitted before it is dropped (counted, never queued unboundedly).
    request_deadline_s: float = 1800.0
    #: Global circuit breaker: consecutive NoValidHost outcomes before the
    #: scheduler is declared saturated and requests shed for the cooldown.
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 600.0
    #: Per-building-block breaker: consecutive failed claims on one block
    #: before it is excluded from requests for the cooldown.
    bb_breaker_threshold: int = 3
    bb_breaker_cooldown_s: float = 900.0

    # -- reconciliation & invariants ---------------------------------------
    #: How often the inventory reconciler diffs placement against ground
    #: truth; 0 disables the recurring run (it can still be called once).
    reconcile_interval_s: float = 3600.0
    #: How often the invariant checker sweeps; it always runs once more at
    #: the end of the simulation.
    invariant_interval_s: float = 1800.0
    #: Raise on the first invariant violation instead of only recording it.
    fail_fast: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.flap_window_s <= 0 or self.flap_threshold < 2:
            raise ValueError("flap window must be positive and threshold >= 2")
        if self.quarantine_base_s <= 0 or self.quarantine_max_s <= 0:
            raise ValueError("quarantine durations must be positive")
        if self.quarantine_backoff < 1.0:
            raise ValueError("quarantine_backoff must be >= 1")
        if self.quarantine_jitter_s < 0 or self.probation_s < 0:
            raise ValueError("jitter and probation must be >= 0")
        if not 0.0 < self.bb_quarantine_fraction <= 1.0:
            raise ValueError("bb_quarantine_fraction must be in (0, 1]")
        if self.admission_rate_per_s < 0 or self.admission_burst < 1:
            raise ValueError("admission rate must be >= 0 and burst >= 1")
        if self.admission_retry_jitter_s < 0 or self.request_deadline_s <= 0:
            raise ValueError("retry jitter >= 0 and deadline > 0 required")
        if self.breaker_threshold < 1 or self.bb_breaker_threshold < 1:
            raise ValueError("breaker thresholds must be >= 1")
        if self.breaker_cooldown_s < 0 or self.bb_breaker_cooldown_s < 0:
            raise ValueError("breaker cooldowns must be >= 0")
        if self.reconcile_interval_s < 0 or self.invariant_interval_s < 0:
            raise ValueError("service intervals must be >= 0")

    @classmethod
    def from_dict(cls, data: object) -> "ResilienceConfig":
        """Build a config from parsed JSON; ``ValueError`` on any problem.

        Unknown keys are rejected by name (a typo must not silently fall
        back to a default threshold), and field validation runs as usual
        via ``__post_init__``.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"resilience config must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown resilience config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"invalid resilience config: {exc}") from exc
