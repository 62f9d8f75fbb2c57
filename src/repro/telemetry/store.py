"""Label-indexed metric store with range queries and aggregation.

Models the Prometheus/Thanos role in the paper's pipeline (§4): exporters
append samples for ``(metric, labels)`` pairs; analyses issue range queries
and cross-series aggregations.

Storage is columnar and append-mostly: each series holds one
``array('d')`` buffer per column (timestamps, values) — no per-sample
Python objects — and is finalised into sorted numpy arrays lazily on
first read.  Staleness markers are NaN sentinels
(:data:`~repro.telemetry.timeseries.STALE`) stored inline in the value
column, so they survive every bulk path untouched.  Window reads go
through an LRU cache that is invalidated by appends (the cache key
carries the series' sample count, so a stale entry can never be served).

The PromQL-ish front-end in :mod:`repro.telemetry.query` is the public
query surface.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.telemetry.timeseries import STALE, TimeSeries

Labels = tuple[tuple[str, str], ...]

_FLOAT64 = np.dtype(np.float64)

#: Max entries kept in the window-read LRU cache.
RANGE_CACHE_SIZE = 128


def _normalize_labels(labels: dict[str, str] | Labels | None) -> Labels:
    if labels is None:
        return ()
    if isinstance(labels, dict):
        return tuple(sorted(labels.items()))
    return tuple(sorted(labels))


class Sample(NamedTuple):
    """One observation of one series."""

    metric: str
    labels: Labels
    timestamp: float
    value: float


class SampleBlock(NamedTuple):
    """A contiguous window of one series: columnar exporter output.

    ``timestamps`` / ``values`` are equally sized 1-D float arrays; stale
    scrapes are NaN entries in ``values``.
    """

    metric: str
    labels: Labels
    timestamps: np.ndarray
    values: np.ndarray


class _SeriesBuffer:
    """Columnar append buffer finalised into a TimeSeries on demand."""

    __slots__ = ("_ts", "_vs", "_finalized")

    def __init__(self) -> None:
        self._ts: array = array("d")
        self._vs: array = array("d")
        self._finalized: TimeSeries | None = None

    def append(self, t: float, v: float) -> None:
        self._ts.append(t)
        self._vs.append(v)
        self._finalized = None

    def extend(self, ts: Iterable[float], vs: Iterable[float]) -> None:
        self._ts.extend(ts)
        self._vs.extend(vs)
        self._finalized = None

    def extend_columns(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Bulk append from float64 arrays (zero Python-level loop)."""
        self._ts.frombytes(ts.tobytes())
        self._vs.frombytes(vs.tobytes())
        self._finalized = None

    def series(self) -> TimeSeries:
        if self._finalized is None:
            # np.array(...) copies out of the buffer protocol; a view
            # (np.frombuffer) would pin the array and break later appends.
            ts = np.array(self._ts, dtype=float)
            vs = np.array(self._vs, dtype=float)
            order = np.argsort(ts, kind="stable")
            ts, vs = ts[order], vs[order]
            # Deduplicate identical timestamps, keeping the last write.
            if len(ts) > 1:
                keep = np.append(np.diff(ts) > 0, True)
                ts, vs = ts[keep], vs[keep]
            self._finalized = TimeSeries(ts, vs)
        return self._finalized

    def __len__(self) -> int:
        return len(self._ts)


class SeriesHandle:
    """Pre-resolved append cursor for one series.

    Exporters that emit the same (metric, labels) pair every scrape resolve
    the series once via :meth:`MetricStore.series_handle` and then append
    through the handle — no label normalisation, no dict lookup, no
    :class:`Sample` object per observation.  Appends are indistinguishable
    from :meth:`MetricStore.append` (same buffer, same finalisation
    invalidation).
    """

    __slots__ = ("_buf", "_ts", "_vs")

    def __init__(self, buf: _SeriesBuffer) -> None:
        self._buf = buf
        self._ts = buf._ts
        self._vs = buf._vs

    def append(self, timestamp: float, value: float) -> None:
        self._ts.append(timestamp)
        self._vs.append(value)
        self._buf._finalized = None


class MetricStore:
    """In-memory time-series database keyed by (metric name, labels)."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, Labels], _SeriesBuffer] = {}
        #: Memo of already-normalized label tuples (exporters emit the
        #: same tuples over and over; sorting them each time dominates
        #: per-sample ingest).
        self._label_cache: dict[Labels, Labels] = {}
        #: LRU of window reads keyed by (series key, sample count, start,
        #: end); appends bump the count, so stale entries are unreachable
        #: and age out.
        self._range_cache: OrderedDict[tuple, TimeSeries] = OrderedDict()

    def _normalize_cached(self, labels: dict[str, str] | Labels | None) -> Labels:
        if type(labels) is tuple:
            cached = self._label_cache.get(labels)
            if cached is None:
                cached = self._label_cache[labels] = tuple(sorted(labels))
            return cached
        return _normalize_labels(labels)

    def _buffer(self, metric: str, labels: dict[str, str] | Labels | None) -> _SeriesBuffer:
        key = (metric, self._normalize_cached(labels))
        buf = self._series.get(key)
        if buf is None:
            buf = self._series[key] = _SeriesBuffer()
        return buf

    def series_handle(
        self, metric: str, labels: dict[str, str] | Labels | None
    ) -> SeriesHandle:
        """Intern (metric, labels) into an append cursor.

        Creates the series if absent — callers that must reproduce a
        per-sample ingest byte-for-byte should therefore resolve handles
        in the same order that path would first touch each series, because
        insertion order is observable via :meth:`select` /
        :meth:`aggregate_across` and :meth:`content_fingerprint`.
        """
        return SeriesHandle(self._buffer(metric, labels))

    def content_fingerprint(self) -> str:
        """SHA-256 over every series' identity, order, and raw columns.

        Two stores fingerprint equal iff they hold the same series in the
        same insertion order with bit-identical timestamp/value buffers —
        the equivalence the columnar scrape path promises against the
        legacy per-sample path.
        """
        h = hashlib.sha256()
        for (metric, labels), buf in self._series.items():
            h.update(repr((metric, labels)).encode())
            h.update(len(buf._ts).to_bytes(8, "little"))
            h.update(buf._ts.tobytes())
            h.update(buf._vs.tobytes())
        return h.hexdigest()

    # -- writes ----------------------------------------------------------------

    def append(
        self,
        metric: str,
        labels: dict[str, str] | Labels | None,
        timestamp: float,
        value: float,
    ) -> None:
        """Append one sample."""
        self._buffer(metric, labels).append(timestamp, value)

    def append_series(
        self,
        metric: str,
        labels: dict[str, str] | Labels | None,
        series: TimeSeries,
    ) -> None:
        """Append a whole series at once (bulk ingest)."""
        self._buffer(metric, labels).extend(series.timestamps, series.values)

    def append_columns(
        self,
        metric: str,
        labels: dict[str, str] | Labels | None,
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """Columnar bulk append: one buffer copy, no per-sample work.

        NaN entries in ``values`` are staleness markers and are stored
        verbatim.  Returns the number of samples appended.
        """
        ts = np.ascontiguousarray(timestamps, dtype=float)
        vs = np.ascontiguousarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise ValueError("timestamps/values must be equally sized 1-D arrays")
        self._buffer(metric, labels).extend_columns(ts, vs)
        return len(ts)

    def append_stale(
        self,
        metric: str,
        labels: dict[str, str] | Labels | None,
        timestamp: float,
    ) -> None:
        """Record that the series was scraped but its value is unknown.

        Writes a staleness marker (Prometheus-style): queries and
        downsampling skip it instead of fabricating a value.
        """
        self.append(metric, labels, timestamp, STALE)

    def ingest(self, samples: Iterable[Sample]) -> int:
        """Ingest samples from an exporter scrape; returns the count."""
        series = self._series
        label_cache = self._label_cache
        n = 0
        for metric, labels, timestamp, value in samples:
            if type(labels) is tuple:
                normalized = label_cache.get(labels)
                if normalized is None:
                    normalized = label_cache[labels] = tuple(sorted(labels))
            else:
                normalized = _normalize_labels(labels)
            key = (metric, normalized)
            buf = series.get(key)
            if buf is None:
                buf = series[key] = _SeriesBuffer()
            buf._ts.append(timestamp)
            buf._vs.append(value)
            buf._finalized = None
            n += 1
        return n

    def ingest_blocks(self, blocks: Iterable[SampleBlock]) -> int:
        """Ingest columnar exporter output; returns the sample count.

        Hot path for bulk backfill: exporter windows arrive as float64
        arrays, so conversion and validation are skipped when the columns
        already have the right shape.
        """
        n = 0
        series = self._series
        label_cache = self._label_cache
        ndarray = np.ndarray
        float64 = _FLOAT64
        for metric, labels, ts, vs in blocks:
            if not (
                type(ts) is ndarray
                and type(vs) is ndarray
                and ts.dtype == float64
                and vs.dtype == float64
                and ts.ndim == 1
                and ts.shape == vs.shape
            ):
                ts = np.ascontiguousarray(ts, dtype=float)
                vs = np.ascontiguousarray(vs, dtype=float)
                if ts.ndim != 1 or ts.shape != vs.shape:
                    raise ValueError(
                        "timestamps/values must be equally sized 1-D arrays"
                    )
            if type(labels) is tuple:
                normalized = label_cache.get(labels)
                if normalized is None:
                    normalized = label_cache[labels] = tuple(sorted(labels))
            else:
                normalized = _normalize_labels(labels)
            key = (metric, normalized)
            buf = series.get(key)
            if buf is None:
                buf = series[key] = _SeriesBuffer()
            buf._ts.frombytes(ts.tobytes())
            buf._vs.frombytes(vs.tobytes())
            buf._finalized = None
            n += len(ts)
        return n

    # -- reads ----------------------------------------------------------------

    def metrics(self) -> list[str]:
        """Distinct metric names, sorted."""
        return sorted({metric for metric, _ in self._series})

    def series_count(self, metric: str | None = None) -> int:
        """Number of stored series, optionally for one metric."""
        if metric is None:
            return len(self._series)
        return sum(1 for m, _ in self._series if m == metric)

    def sample_count(self) -> int:
        """Total samples across every series."""
        return sum(len(buf) for buf in self._series.values())

    def labelsets(self, metric: str) -> list[dict[str, str]]:
        """All label sets stored for ``metric``."""
        return [dict(labels) for m, labels in self._series if m == metric]

    def query(
        self, metric: str, labels: dict[str, str] | Labels | None = None
    ) -> TimeSeries:
        """The exact series for (metric, labels); empty if absent."""
        key = (metric, self._normalize_cached(labels))
        buf = self._series.get(key)
        return buf.series() if buf is not None else TimeSeries.empty()

    def window(
        self,
        metric: str,
        labels: dict[str, str] | Labels | None,
        start: float,
        end: float,
    ) -> TimeSeries:
        """Samples of one series within [start, end), LRU-cached.

        The cache key includes the series' current sample count, so any
        append invalidates every cached window of that series.
        """
        key = (metric, self._normalize_cached(labels))
        buf = self._series.get(key)
        if buf is None:
            return TimeSeries.empty()
        cache = self._range_cache
        cache_key = (key, len(buf), start, end)
        hit = cache.get(cache_key)
        if hit is not None:
            cache.move_to_end(cache_key)
            return hit
        result = buf.series().between(start, end)
        cache[cache_key] = result
        if len(cache) > RANGE_CACHE_SIZE:
            cache.popitem(last=False)
        return result

    def select(
        self, metric: str, matcher: dict[str, str] | None = None
    ) -> Iterator[tuple[dict[str, str], TimeSeries]]:
        """All series of ``metric`` whose labels include ``matcher``.

        Mirrors a PromQL selector ``metric{k="v", ...}``.
        """
        wanted = (matcher or {}).items()
        for (m, labels), buf in self._series.items():
            if m != metric:
                continue
            label_dict = dict(labels)
            if all(label_dict.get(k) == v for k, v in wanted):
                yield label_dict, buf.series()

    def aggregate_across(
        self,
        metric: str,
        matcher: dict[str, str] | None = None,
        agg: str | Callable[[np.ndarray], float] = "mean",
    ) -> TimeSeries:
        """Cross-series aggregation at each timestamp (PromQL ``agg(metric)``).

        Timestamps are the union of all matched series; at each timestamp the
        aggregation runs over the series that have a sample there.
        """
        agg_fn = _resolve_agg(agg)
        all_series = [s for _, s in self.select(metric, matcher)]
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
            # All matched series stale/absent here: propagate the marker
            # rather than aggregating an empty set.
            out[j] = agg_fn(present) if present.size else STALE
        return TimeSeries(union, out)


def _resolve_agg(agg: str | Callable[[np.ndarray], float]):
    if callable(agg):
        return agg
    table = {
        "mean": np.mean,
        "max": np.max,
        "min": np.min,
        "sum": np.sum,
        "p95": lambda a: np.percentile(a, 95),
        "count": len,
    }
    try:
        return table[agg]
    except KeyError:
        raise ValueError(f"unknown aggregation {agg!r}; known: {sorted(table)}") from None
