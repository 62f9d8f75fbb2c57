"""Typed, numpy-backed time series.

A :class:`TimeSeries` is a pair of equal-length arrays — epoch-second
timestamps (strictly increasing) and float values — plus convenience math
for the statistics the analyses need (daily means, percentiles, resampling
alignment).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

SECONDS_PER_DAY = 86_400

#: Staleness marker, following Prometheus: a sample whose *timestamp* is
#: real but whose value is explicitly "unknown" (stuck exporter, partial
#: scrape).  Stored as NaN; all statistics skip markers rather than
#: interpolating values that were never observed.
STALE = float("nan")


def is_stale(value: float) -> bool:
    """Whether ``value`` is the staleness marker."""
    return bool(np.isnan(value))


class TimeSeries:
    """An immutable (by convention) timestamped value sequence.

    Series read from a :class:`~repro.telemetry.store.MetricStore` may be
    views over the store's read-only columns; never write into
    ``timestamps`` or ``values``.
    """

    __slots__ = ("timestamps", "values")

    def __init__(self, timestamps: Iterable[float], values: Iterable[float]) -> None:
        ts = np.asarray(list(timestamps) if not isinstance(timestamps, np.ndarray) else timestamps, dtype=float)
        vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ValueError(
                f"timestamps and values must be equal-length 1-D arrays, got {ts.shape} / {vs.shape}"
            )
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.timestamps = ts
        self.values = vs

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:
        if len(self) == 0:
            return "TimeSeries(empty)"
        return (
            f"TimeSeries({len(self)} samples, "
            f"[{self.timestamps[0]:.0f}..{self.timestamps[-1]:.0f}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.timestamps, other.timestamps) and np.array_equal(
            self.values, other.values
        )

    @classmethod
    def empty(cls) -> "TimeSeries":
        """A series with no samples."""
        return cls(np.asarray([]), np.asarray([]))

    @classmethod
    def regular(cls, start: float, step: float, values: Iterable[float]) -> "TimeSeries":
        """A series sampled every ``step`` seconds from ``start``."""
        vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
        if step <= 0:
            raise ValueError("step must be positive")
        ts = start + step * np.arange(len(vs))
        return cls(ts, vs)

    # -- slicing ---------------------------------------------------------------

    def between(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t < end``."""
        mask = (self.timestamps >= start) & (self.timestamps < end)
        return TimeSeries(self.timestamps[mask], self.values[mask])

    def at_or_before(self, t: float) -> float | None:
        """Most recent value at or before ``t`` (Prometheus instant query).

        A staleness marker at that position returns ``None`` — the series
        explicitly does not know its value there, and inventing one by
        looking further back would be silent interpolation.
        """
        idx = np.searchsorted(self.timestamps, t, side="right") - 1
        if idx < 0:
            return None
        value = float(self.values[idx])
        return None if np.isnan(value) else value

    # -- staleness ---------------------------------------------------------------

    @property
    def stale_count(self) -> int:
        """Number of staleness markers in the series."""
        return int(np.isnan(self.values).sum())

    def present(self) -> "TimeSeries":
        """The sub-series of actually observed (non-stale) samples."""
        mask = ~np.isnan(self.values)
        return TimeSeries(self.timestamps[mask], self.values[mask])

    # -- statistics -------------------------------------------------------------

    def _observed(self, what: str) -> np.ndarray:
        """Finite values for statistics; raises when nothing was observed."""
        finite = self.values[~np.isnan(self.values)]
        if finite.size == 0:
            raise ValueError(f"{what} of series with no observed samples")
        return finite

    def mean(self) -> float:
        """Mean of the observed values (staleness markers are skipped)."""
        return float(np.mean(self._observed("mean")))

    def max(self) -> float:
        """Largest observed value (staleness markers are skipped)."""
        return float(np.max(self._observed("max")))

    def min(self) -> float:
        """Smallest observed value (staleness markers are skipped)."""
        return float(np.min(self._observed("min")))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the observed values."""
        return float(np.percentile(self._observed("percentile"), q))

    def integral(self) -> float:
        """Trapezoidal time-integral of the series (value·seconds).

        Only intervals whose *both* endpoints were observed contribute;
        intervals touching a staleness marker add nothing, so the result
        honestly under-counts across gaps instead of interpolating them.
        """
        if len(self) < 2:
            return 0.0
        if self.stale_count == 0:
            return float(np.trapezoid(self.values, self.timestamps))
        observed = ~np.isnan(self.values)
        both_ends = observed[:-1] & observed[1:]
        areas = (self.values[:-1] + self.values[1:]) / 2.0 * np.diff(self.timestamps)
        return float(np.sum(areas[both_ends]))

    # -- transforms ---------------------------------------------------------------

    def map(self, func) -> "TimeSeries":
        """Apply ``func`` to the value array."""
        return TimeSeries(self.timestamps, func(self.values))

    def clip(self, low: float, high: float) -> "TimeSeries":
        """Values clamped into ``[low, high]``."""
        return TimeSeries(self.timestamps, np.clip(self.values, low, high))

    def daily(self, agg: str = "mean", origin: float | None = None) -> "TimeSeries":
        """Aggregate into one sample per UTC day.

        ``agg`` is ``mean``, ``max``, ``min``, ``sum``, or ``p95``.  The
        result's timestamps are day starts.  ``origin`` overrides the epoch
        alignment (defaults to midnight-aligned epoch days).
        """
        return self.resample(SECONDS_PER_DAY, agg=agg, origin=origin)

    def resample(
        self, window: float, agg: str = "mean", origin: float | None = None
    ) -> "TimeSeries":
        """Aggregate into fixed windows of ``window`` seconds.

        Windows are ``[origin + k * window, origin + (k + 1) * window)``;
        only windows holding at least one sample appear in the result, at
        their start time.  ``origin`` defaults to the first timestamp
        floored to a multiple of ``window``.  Staleness markers are skipped;
        a window of nothing but markers gives a marker (``count`` gives 0).

        Timestamps strictly increase, so each window is one contiguous run
        of samples, found once from the changes in the window index.  When
        every window has the same width and no value is stale, the windows
        are reduced together as the rows of a (windows x width) view; a
        reduction along a contiguous row runs the same kernel over the same
        elements as a 1-D call, so the bits equal the per-window loop's.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if len(self) == 0:
            return TimeSeries.empty()
        if origin is None:
            origin = float(np.floor(self.timestamps[0] / window) * window)
        bins = np.floor((self.timestamps - origin) / window).astype(int)
        agg_fn = AGGS.get(agg)
        if agg_fn is None:
            raise ValueError(f"unknown aggregation {agg!r}; known: {sorted(AGGS)}")
        firsts = np.concatenate(([0], np.flatnonzero(np.diff(bins)) + 1))
        ends = np.append(firsts[1:], len(bins))
        out_ts = origin + bins[firsts] * window
        values = np.ascontiguousarray(self.values)
        widths = ends - firsts
        if (widths == widths[0]).all() and not np.isnan(values).any():
            rows = values.reshape(len(firsts), widths[0])
            return TimeSeries(out_ts, ROW_AGGS[agg](rows))
        out_vs = np.empty(len(firsts))
        for k, (lo, hi) in enumerate(zip(firsts, ends)):
            vals = values[lo:hi]
            finite = vals[~np.isnan(vals)]
            if finite.size == 0:
                # A window of pure staleness markers stays marked stale
                # (count honestly reports zero observed samples).
                out_vs[k] = 0.0 if agg == "count" else STALE
            else:
                out_vs[k] = agg_fn(finite)
        return TimeSeries(out_ts, out_vs)

    def align_with(self, other: "TimeSeries") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Intersect timestamps, returning (ts, self_values, other_values)."""
        common, idx_a, idx_b = np.intersect1d(
            self.timestamps, other.timestamps, return_indices=True
        )
        return common, self.values[idx_a], other.values[idx_b]

    def __add__(self, other: "TimeSeries") -> "TimeSeries":
        ts, a, b = self.align_with(other)
        return TimeSeries(ts, a + b)


#: The named aggregations, over a 1-D array of observed values.
AGGS = {
    "mean": lambda a: float(np.mean(a)),
    "max": lambda a: float(np.max(a)),
    "min": lambda a: float(np.min(a)),
    "sum": lambda a: float(np.sum(a)),
    "p95": lambda a: float(np.percentile(a, 95)),
    "count": lambda a: float(len(a)),
}

#: Row-wise forms of :data:`AGGS`: one result per row of a 2-D matrix.
ROW_AGGS = {
    "mean": lambda m: np.mean(m, axis=1),
    "max": lambda m: np.max(m, axis=1),
    "min": lambda m: np.min(m, axis=1),
    "sum": lambda m: np.sum(m, axis=1),
    "p95": lambda m: np.percentile(m, 95, axis=1),
    "count": lambda m: np.full(len(m), float(m.shape[1])),
}
