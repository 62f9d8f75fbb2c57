"""Temporal demand patterns.

A :class:`DemandPattern` maps an array of epoch-second timestamps to a
utilisation fraction in [0, 1].  Patterns compose multiplicatively or
additively to build realistic shapes: business-hours diurnal cycles with a
weekday/weekend effect (visible in the paper's Fig 8 ready-time series),
CI/CD burstiness, slow ramps (the paper observes nodes with consistently
increasing CPU demand, §5.1), and spike trains.

Every factory attaches a structured ``basis`` attribute to the closure it
returns — a tuple naming the pattern kind and its parameters.  The
simulation's scalar fast path (:mod:`repro.workloads.waveform`) compiles
these descriptions into per-VM scalar evaluators instead of calling the
vectorised closures once per VM per read; closures without a
``basis`` (hand-written lambdas in tests) simply fall back to the closure
call.  The metadata is descriptive only: evaluation behaviour and RNG
consumption of the closures themselves are unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: A demand pattern: timestamps (epoch seconds) -> utilisation fraction.
DemandPattern = Callable[[np.ndarray], np.ndarray]


def constant(level: float) -> DemandPattern:
    """A flat utilisation level."""
    if not 0.0 <= level <= 1.5:
        raise ValueError("level must be within [0, 1.5]")

    def pattern(ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), level)

    pattern.basis = ("constant", level)
    return pattern


def diurnal(
    base: float,
    peak: float,
    peak_hour: float = 13.0,
    width_hours: float = 4.0,
) -> DemandPattern:
    """Business-hours bell curve on top of a base load.

    ``peak_hour`` is the UTC hour of maximum demand; ``width_hours`` the
    Gaussian standard deviation of the bump.
    """
    if peak < base:
        raise ValueError("peak must be >= base")

    def pattern(ts: np.ndarray) -> np.ndarray:
        hour = (ts % SECONDS_PER_DAY) / 3600.0
        # Wrap-around distance to the peak hour.
        dist = np.minimum(np.abs(hour - peak_hour), 24.0 - np.abs(hour - peak_hour))
        bump = np.exp(-0.5 * (dist / width_hours) ** 2)
        return base + (peak - base) * bump

    pattern.basis = ("diurnal", base, peak, peak_hour, width_hours)
    return pattern


def weekly(weekday_scale: float = 1.0, weekend_scale: float = 0.6) -> DemandPattern:
    """Multiplicative weekday/weekend factor.

    Epoch day 0 (1970-01-01) was a Thursday; weekday indices follow that.
    """

    def pattern(ts: np.ndarray) -> np.ndarray:
        day_index = (np.floor(ts / SECONDS_PER_DAY).astype(int) + 3) % 7  # 0 = Monday
        return np.where(day_index >= 5, weekend_scale, weekday_scale)

    pattern.basis = ("weekly", weekday_scale, weekend_scale)
    return pattern


def ramp(start_level: float, end_level: float, duration: float) -> DemandPattern:
    """Linear drift from ``start_level`` to ``end_level`` over ``duration`` s.

    Demand holds at ``end_level`` after the ramp.  Timestamps are interpreted
    relative to the first timestamp passed in.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")

    def pattern(ts: np.ndarray) -> np.ndarray:
        if len(ts) == 0:
            return np.asarray([])
        progress = np.clip((ts - ts[0]) / duration, 0.0, 1.0)
        return start_level + (end_level - start_level) * progress

    pattern.basis = ("ramp", start_level, end_level, duration)
    return pattern


def bursty(
    base: float,
    burst_level: float,
    burst_probability: float,
    rng: np.random.Generator,
    correlation: int = 4,
) -> DemandPattern:
    """Random bursts (CI/CD-like): runs of elevated demand.

    ``correlation`` stretches each Bernoulli draw over that many consecutive
    samples so bursts last multiple sampling intervals.
    """
    if not 0.0 <= burst_probability <= 1.0:
        raise ValueError("burst_probability must be within [0, 1]")

    def pattern(ts: np.ndarray) -> np.ndarray:
        n_draws = int(np.ceil(len(ts) / max(1, correlation)))
        draws = rng.random(n_draws) < burst_probability
        mask = np.repeat(draws, correlation)[: len(ts)]
        return np.where(mask, burst_level, base)

    pattern.basis = ("bursty", base, burst_level, burst_probability, correlation)
    pattern.rng = rng
    return pattern


def spike_train(
    base: float,
    spike_level: float,
    period: float,
    spike_width: float,
    phase: float = 0.0,
) -> DemandPattern:
    """Periodic spikes (batch jobs, backups) of ``spike_width`` seconds."""
    if period <= 0 or spike_width <= 0:
        raise ValueError("period and spike_width must be positive")

    def pattern(ts: np.ndarray) -> np.ndarray:
        in_spike = ((ts + phase) % period) < spike_width
        return np.where(in_spike, spike_level, base)

    pattern.basis = ("spike", base, spike_level, period, spike_width, phase)
    return pattern


def composite(
    patterns: Sequence[DemandPattern],
    mode: str = "max",
) -> DemandPattern:
    """Combine patterns: ``max``, ``sum`` (clipped to 1), or ``product``."""
    if not patterns:
        raise ValueError("need at least one pattern")
    if mode not in ("max", "sum", "product"):
        raise ValueError(f"unknown mode {mode!r}")

    def pattern(ts: np.ndarray) -> np.ndarray:
        stacked = np.stack([p(ts) for p in patterns])
        if mode == "max":
            return stacked.max(axis=0)
        if mode == "sum":
            return np.clip(stacked.sum(axis=0), 0.0, 1.0)
        return stacked.prod(axis=0)

    pattern.basis = (
        "composite",
        mode,
        tuple(getattr(p, "basis", None) for p in patterns),
    )
    pattern.children = tuple(patterns)
    return pattern


def with_noise(
    pattern: DemandPattern, sigma: float, rng: np.random.Generator
) -> DemandPattern:
    """Add clipped Gaussian noise to any pattern."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")

    def noisy(ts: np.ndarray) -> np.ndarray:
        return np.clip(pattern(ts) + rng.normal(0.0, sigma, len(ts)), 0.0, 1.0)

    noisy.inner = pattern
    noisy.sigma = sigma
    noisy.rng = rng
    noisy.basis = ("noise", sigma, getattr(pattern, "basis", None))
    return noisy
