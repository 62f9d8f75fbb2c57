"""Temporal demand patterns.

A :class:`DemandPattern` maps an array of epoch-second timestamps to a
utilisation fraction in [0, 1].  Patterns compose multiplicatively or
additively to build realistic shapes: business-hours diurnal cycles with a
weekday/weekend effect (visible in the paper's Fig 8 ready-time series),
CI/CD burstiness, slow ramps (the paper observes nodes with consistently
increasing CPU demand, §5.1), and spike trains.

Each factory (``constant``, ``diurnal``, ...) is the class of its shape
(:class:`Constant`, :class:`Diurnal`, ...): it validates its arguments
and returns a small record whose ``__slots__`` hold the parameters, the
generator (``rng``) it draws from, and the patterns it wraps (``inner``,
``children``).  Calling a record evaluates it over a timestamp grid.  The simulation's demand
table and datagen's grid evaluator (:mod:`repro.workloads.waveform`)
read these fields, by exact type, into parameter rows instead of
calling the records once per VM per read; any other callable (a
hand-written lambda, a subclass) is evaluated by calling it.  A VM holds
one record set per channel, so the records are kept small: no
``__dict__``, no closure cells.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: A demand pattern: timestamps (epoch seconds) -> utilisation fraction.
DemandPattern = Callable[[np.ndarray], np.ndarray]


class Constant:
    """A flat utilisation level."""

    __slots__ = ("level",)

    def __init__(self, level: float) -> None:
        if not 0.0 <= level <= 1.5:
            raise ValueError("level must be within [0, 1.5]")
        self.level = level

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.level)


class Diurnal:
    """Business-hours bell curve on top of a base load.

    ``peak_hour`` is the UTC hour of maximum demand; ``width_hours`` the
    Gaussian standard deviation of the bump.
    """

    __slots__ = ("base", "peak", "peak_hour", "width_hours")

    def __init__(
        self, base: float, peak: float, peak_hour: float = 13.0, width_hours: float = 4.0
    ) -> None:
        if peak < base:
            raise ValueError("peak must be >= base")
        self.base = base
        self.peak = peak
        self.peak_hour = peak_hour
        self.width_hours = width_hours

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        peak_hour = self.peak_hour
        hour = (ts % SECONDS_PER_DAY) / 3600.0
        # Wrap-around distance to the peak hour.
        dist = np.minimum(np.abs(hour - peak_hour), 24.0 - np.abs(hour - peak_hour))
        bump = np.exp(-0.5 * (dist / self.width_hours) ** 2)
        return self.base + (self.peak - self.base) * bump


class Weekly:
    """Multiplicative weekday/weekend factor.

    Epoch day 0 (1970-01-01) was a Thursday; weekday indices follow that.
    """

    __slots__ = ("weekday_scale", "weekend_scale")

    def __init__(self, weekday_scale: float = 1.0, weekend_scale: float = 0.6) -> None:
        self.weekday_scale = weekday_scale
        self.weekend_scale = weekend_scale

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        day_index = (np.floor(ts / SECONDS_PER_DAY).astype(int) + 3) % 7  # 0 = Monday
        return np.where(day_index >= 5, self.weekend_scale, self.weekday_scale)


class Ramp:
    """Linear drift from ``start_level`` to ``end_level`` over ``duration`` s.

    Demand holds at ``end_level`` after the ramp.  Timestamps are interpreted
    relative to the first timestamp passed in.
    """

    __slots__ = ("start_level", "end_level", "duration")

    def __init__(self, start_level: float, end_level: float, duration: float) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.start_level = start_level
        self.end_level = end_level
        self.duration = duration

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        if len(ts) == 0:
            return np.asarray([])
        progress = np.clip((ts - ts[0]) / self.duration, 0.0, 1.0)
        return self.start_level + (self.end_level - self.start_level) * progress


class Bursty:
    """Random bursts (CI/CD-like): runs of elevated demand.

    ``correlation`` stretches each Bernoulli draw over that many consecutive
    samples so bursts last multiple sampling intervals.
    """

    __slots__ = ("base", "burst_level", "burst_probability", "rng", "correlation")

    def __init__(
        self,
        base: float,
        burst_level: float,
        burst_probability: float,
        rng: np.random.Generator,
        correlation: int = 4,
    ) -> None:
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst_probability must be within [0, 1]")
        self.base = base
        self.burst_level = burst_level
        self.burst_probability = burst_probability
        self.rng = rng
        self.correlation = correlation

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        correlation = self.correlation
        n_draws = int(np.ceil(len(ts) / max(1, correlation)))
        draws = self.rng.random(n_draws) < self.burst_probability
        mask = np.repeat(draws, correlation)[: len(ts)]
        return np.where(mask, self.burst_level, self.base)


class SpikeTrain:
    """Periodic spikes (batch jobs, backups) of ``spike_width`` seconds."""

    __slots__ = ("base", "spike_level", "period", "spike_width", "phase")

    def __init__(
        self,
        base: float,
        spike_level: float,
        period: float,
        spike_width: float,
        phase: float = 0.0,
    ) -> None:
        if period <= 0 or spike_width <= 0:
            raise ValueError("period and spike_width must be positive")
        self.base = base
        self.spike_level = spike_level
        self.period = period
        self.spike_width = spike_width
        self.phase = phase

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        in_spike = ((ts + self.phase) % self.period) < self.spike_width
        return np.where(in_spike, self.spike_level, self.base)


class Composite:
    """Combine patterns: ``max``, ``sum`` (clipped to 1), or ``product``."""

    __slots__ = ("children", "mode")

    def __init__(self, patterns: Sequence[DemandPattern], mode: str = "max") -> None:
        if not patterns:
            raise ValueError("need at least one pattern")
        if mode not in ("max", "sum", "product"):
            raise ValueError(f"unknown mode {mode!r}")
        self.children = tuple(patterns)
        self.mode = mode

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        stacked = np.stack([p(ts) for p in self.children])
        if self.mode == "max":
            return stacked.max(axis=0)
        if self.mode == "sum":
            return np.clip(stacked.sum(axis=0), 0.0, 1.0)
        return stacked.prod(axis=0)


class Noisy:
    """Add clipped Gaussian noise to any pattern (``inner``)."""

    __slots__ = ("inner", "sigma", "rng")

    def __init__(self, pattern: DemandPattern, sigma: float, rng: np.random.Generator) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.inner = pattern
        self.sigma = sigma
        self.rng = rng

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        return np.clip(self.inner(ts) + self.rng.normal(0.0, self.sigma, len(ts)), 0.0, 1.0)


#: The factories the profiles build demand from, one per record class.
constant = Constant
diurnal = Diurnal
weekly = Weekly
ramp = Ramp
bursty = Bursty
spike_train = SpikeTrain
composite = Composite
with_noise = Noisy
