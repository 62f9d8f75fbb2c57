"""Differential checks of the store's and series' reductions.

``MetricStore.aggregate_across`` reduces gap-free rows in one row-wise
call and ``TimeSeries.resample`` slices each window out of one contiguous
run.  The references below are the plain per-timestamp and per-window
loops those paths replaced; every output must match them bit for bit
(compared as ``uint64`` views, so NaN markers and signed zeros count).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.report import render_experiments_report
from repro.datagen.validation import validate_dataset
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import STALE, TimeSeries

_REF_STORE_AGGS = {
    "mean": np.mean,
    "max": np.max,
    "min": np.min,
    "sum": np.sum,
    "p95": lambda a: np.percentile(a, 95),
    "count": len,
}

_REF_SERIES_AGGS = {
    "mean": lambda a: float(np.mean(a)),
    "max": lambda a: float(np.max(a)),
    "min": lambda a: float(np.min(a)),
    "sum": lambda a: float(np.sum(a)),
    "p95": lambda a: float(np.percentile(a, 95)),
    "count": lambda a: float(len(a)),
}


def reference_aggregate_across(store, metric, matcher=None, agg="mean"):
    """The per-timestamp loop over a series-major matrix."""
    if not callable(agg) and agg not in _REF_STORE_AGGS:
        raise ValueError(f"unknown aggregation {agg!r}")
    agg_fn = agg if callable(agg) else _REF_STORE_AGGS[agg]
    all_series = [s for _, s in store.select(metric, matcher)]
    if not all_series:
        return TimeSeries.empty()
    union = np.unique(np.concatenate([s.timestamps for s in all_series]))
    values = np.full((len(all_series), len(union)), np.nan)
    for i, s in enumerate(all_series):
        idx = np.searchsorted(union, s.timestamps)
        values[i, idx] = s.values
    out = np.empty(len(union))
    for j in range(len(union)):
        col = values[:, j]
        present = col[~np.isnan(col)]
        out[j] = agg_fn(present) if present.size else STALE
    return TimeSeries(union, out)


def reference_resample(series, window, agg="mean", origin=None):
    """The per-window ``bins == b`` mask loop."""
    if window <= 0:
        raise ValueError("window must be positive")
    if len(series) == 0:
        return TimeSeries.empty()
    if origin is None:
        origin = float(np.floor(series.timestamps[0] / window) * window)
    bins = np.floor((series.timestamps - origin) / window).astype(int)
    agg_fn = _REF_SERIES_AGGS[agg]
    out_ts: list[float] = []
    out_vs: list[float] = []
    for b in np.unique(bins):
        vals = series.values[bins == b]
        finite = vals[~np.isnan(vals)]
        out_ts.append(origin + b * window)
        if finite.size == 0:
            out_vs.append(0.0 if agg == "count" else STALE)
        else:
            out_vs.append(agg_fn(finite))
    return TimeSeries(np.asarray(out_ts), np.asarray(out_vs))


def assert_same_bits(got: TimeSeries, want: TimeSeries) -> None:
    assert got.timestamps.shape == want.timestamps.shape
    assert np.array_equal(got.timestamps.view(np.uint64), want.timestamps.view(np.uint64))
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def _values(rng: np.random.Generator, n: int, style: str) -> np.ndarray:
    """Values with ties, signed zeros and wide magnitudes."""
    if style == "ties":
        return rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=n)
    scale = rng.choice([1e-6, 1.0, 1e9], size=n)
    out = rng.normal(size=n) * scale
    if style == "zeros":
        out[::3] = -0.0
    return out


_STRING_AGGS = ["mean", "max", "min", "sum", "p95", "count"]
_AGG_CHOICES = st.sampled_from(_STRING_AGGS + ["callable"])
# Row widths on both sides of numpy's 8-wide unrolled and 128-element
# pairwise-summation blocks.
_WIDTHS = st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 200])
_STYLES = st.sampled_from(["normal", "zeros", "ties"])


def _callable_agg(a: np.ndarray) -> float:
    return float(np.std(a) + a[0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_series=_WIDTHS,
    n_ts=st.integers(1, 60),
    gap_p=st.sampled_from([0.0, 0.0, 0.05, 0.5]),
    stale_p=st.sampled_from([0.0, 0.0, 0.05, 0.6, 1.0]),
    stale_rows=st.booleans(),
    style=_STYLES,
    agg=_AGG_CHOICES,
    with_empty=st.booleans(),
)
def test_aggregate_across_matches_reference(
    seed, n_series, n_ts, gap_p, stale_p, stale_rows, style, agg, with_empty
):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.integers(1, 120, size=n_ts)).astype(float)
    store = MetricStore()
    all_stale = rng.random(n_ts) < 0.2 if stale_rows else np.zeros(n_ts, bool)
    for i in range(n_series):
        keep = rng.random(n_ts) >= gap_p
        if not keep.any():
            keep[rng.integers(n_ts)] = True
        values = _values(rng, n_ts, style)
        values[rng.random(n_ts) < stale_p] = STALE
        values[all_stale] = STALE
        store.append_series(
            "m", {"node": f"n{i}", "bb": f"bb{i % 3}"},
            TimeSeries(grid[keep], values[keep]),
        )
        if with_empty and i == 0:
            store.append_series("m", {"node": "empty", "bb": "bb0"}, TimeSeries.empty())
    store.append("other", {"node": "n0"}, 0.0, 1.0)
    agg_arg = _callable_agg if agg == "callable" else agg
    for matcher in (None, {"bb": "bb1"}, {"node": "absent"}):
        assert_same_bits(
            store.aggregate_across("m", matcher, agg=agg_arg),
            reference_aggregate_across(store, "m", matcher, agg=agg_arg),
        )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=_WIDTHS,
    windows=st.integers(1, 12),
    irregular=st.booleans(),
    stale_p=st.sampled_from([0.0, 0.0, 0.1, 0.7, 1.0]),
    stale_window=st.booleans(),
    origin_kind=st.sampled_from(["none", "offset", "late"]),
    start=st.sampled_from([0.0, 1_700_000_123.0, -5_000.0]),
    style=_STYLES,
    agg=st.sampled_from(_STRING_AGGS),
)
def test_resample_matches_reference(
    seed, width, windows, irregular, stale_p, stale_window, origin_kind, start, style, agg
):
    rng = np.random.default_rng(seed)
    window = 3_600.0
    step = window / width
    if irregular:
        ts = start + np.cumsum(rng.uniform(0.05, 2.5, size=width * windows) * step)
    else:
        ts = start + step * np.arange(width * windows)
    values = _values(rng, len(ts), style)
    values[rng.random(len(ts)) < stale_p] = STALE
    if stale_window:
        lo = int(rng.integers(len(ts)))
        values[lo : lo + width] = STALE
    series = TimeSeries(ts, values)
    origin = {
        "none": None,
        "offset": float(np.floor(ts[0] / window) * window - rng.uniform(0, window)),
        "late": float(ts[0] + rng.uniform(0, 2 * window)),
    }[origin_kind]
    assert_same_bits(
        series.resample(window, agg=agg, origin=origin),
        reference_resample(series, window, agg=agg, origin=origin),
    )


@pytest.mark.parametrize("agg", _STRING_AGGS)
def test_daily_on_a_day_grid_matches_reference(agg):
    rng = np.random.default_rng(7)
    ts = 86_400.0 * 19_000 + 1_800.0 * np.arange(48 * 5)
    series = TimeSeries(ts, rng.gamma(2.0, 3.0, size=len(ts)))
    assert_same_bits(series.daily(agg), reference_resample(series, 86_400, agg=agg))


def test_report_and_validation_identical_with_reference_reductions(
    small_dataset, monkeypatch
):
    report = render_experiments_report(small_dataset)
    checks = validate_dataset(small_dataset).checks
    monkeypatch.setattr(MetricStore, "aggregate_across", reference_aggregate_across)
    monkeypatch.setattr(TimeSeries, "resample", reference_resample)
    assert render_experiments_report(small_dataset) == report
    reference_checks = validate_dataset(small_dataset).checks
    assert [(c.name, float(c.measured).hex()) for c in checks] == [
        (c.name, float(c.measured).hex()) for c in reference_checks
    ]
