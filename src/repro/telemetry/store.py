"""Label-indexed metric store with range queries and aggregation.

Models the Prometheus/Thanos role in the paper's pipeline (§4): exporters
append samples for ``(metric, labels)`` pairs; analyses issue range queries
and cross-series aggregations.

Storage is columnar, with no per-sample Python objects, and the write
pattern picks each series' representation:

- A series whose first write is a bulk write (``append_series``,
  ``append_columns``, ``ingest_blocks``) holds two read-only float64
  columns: a timestamps column interned by the store, matched by exact
  bytes, so every series written with the same grid holds the same array
  object (Prometheus stores a regular grid almost for free the same way,
  with delta-of-delta encoding); and its own copy of the values.  When
  the grid strictly increases (checked once per interned grid), reads
  return a :class:`~repro.telemetry.timeseries.TimeSeries` over those two
  arrays with no copy.
- Every other series, and a bulk-written one from its first later write
  of any kind (copy-on-write), holds one ``array('d')`` per column.  The
  per-sample paths (``append``, ``ingest``, :class:`SeriesHandle`) append
  to those, and a read finalises them lazily into sorted, deduplicated
  numpy copies.

Series returned by reads are read-only: the arrays of a grid-backed
series are shared with the store (the timestamps with other series too),
and writing into them raises.  Besides the flat ``(metric, labels)`` map,
the store keeps a per-metric list of series in creation order, each with
its label dict built once, so a selector scans only its own metric's
series.  Staleness markers are NaN sentinels
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
from collections import OrderedDict, deque
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.telemetry.timeseries import AGGS, ROW_AGGS, STALE, TimeSeries

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
    """A contiguous window of one series, for :meth:`MetricStore.ingest_blocks`.

    ``timestamps`` / ``values`` are equally sized 1-D float arrays; stale
    scrapes are NaN entries in ``values``.
    """

    metric: str
    labels: Labels
    timestamps: np.ndarray
    values: np.ndarray


class _SeriesBuffer:
    """One series' columns, finalised into a TimeSeries on demand.

    ``_ts``/``_vs`` are either two ``array('d')`` append buffers or, for
    a series created by a bulk write, the store's interned read-only
    timestamps grid and a read-only values copy; the first later write
    converts those to ``array('d')`` (:meth:`_thaw`).
    """

    __slots__ = ("_ts", "_vs", "_finalized")

    def __init__(self) -> None:
        self._ts: array | np.ndarray = array("d")
        self._vs: array | np.ndarray = array("d")
        self._finalized: TimeSeries | None = None

    @classmethod
    def on_grid(cls, grid: np.ndarray, ascending: bool, vs: np.ndarray) -> "_SeriesBuffer":
        """A series over the interned ``grid`` and its own values ``vs``;
        ``ascending`` (the grid strictly increases) makes it its own
        finalised view."""
        buf = cls.__new__(cls)
        buf._ts = grid
        buf._vs = vs
        buf._finalized = None
        if ascending:
            # A view over the two columns, without the constructor's
            # per-series order check: the grid was checked once.
            view = buf._finalized = object.__new__(TimeSeries)
            view.timestamps, view.values = grid, vs
        return buf

    def _thaw(self) -> None:
        """Copy read-only columns into ``array('d')`` buffers (copy-on-write)."""
        if type(self._ts) is not array:
            ts, vs = array("d"), array("d")
            ts.frombytes(memoryview(self._ts).cast("B"))
            vs.frombytes(memoryview(self._vs).cast("B"))
            self._ts, self._vs = ts, vs

    def append(self, t: float, v: float) -> None:
        self._thaw()
        self._ts.append(t)
        self._vs.append(v)
        self._finalized = None

    def extend_columns(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Bulk append from float64 arrays (zero Python-level loop)."""
        self._thaw()
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
        buf._thaw()
        self._buf = buf
        self._ts = buf._ts
        self._vs = buf._vs

    def append(self, timestamp: float, value: float) -> None:
        self._ts.append(timestamp)
        self._vs.append(value)
        self._buf._finalized = None


class SeriesHandleGroup:
    """Several series handles appended to together, one sample each.

    ``group.append(t, values)`` leaves every series as
    ``handle.append(t, value)`` over the handles and values in order
    would, with the column appends run by ``map`` in C rather than one
    Python call per series.  The scrape tick appends every scraped node's
    host metrics through one group.
    """

    __slots__ = ("_ts", "_vs", "_bufs")

    def __init__(self, handles: Iterable[SeriesHandle]) -> None:
        handles = list(handles)
        self._ts = [h._ts for h in handles]
        self._vs = [h._vs for h in handles]
        self._bufs = [h._buf for h in handles]

    def __len__(self) -> int:
        return len(self._bufs)

    def append(self, timestamp: float, values: list[float]) -> None:
        if len(values) != len(self._vs):
            raise ValueError(f"{len(values)} values for {len(self._vs)} series")
        deque(map(array.append, self._ts, repeat(timestamp)), maxlen=0)
        deque(map(array.append, self._vs, values), maxlen=0)
        for buf in self._bufs:
            buf._finalized = None


class MetricStore:
    """In-memory time-series database keyed by (metric name, labels)."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, Labels], _SeriesBuffer] = {}
        #: The same buffers per metric, in series-creation order, each
        #: with its labels as a dict (built once, read by selectors).
        self._by_metric: dict[str, list[tuple[dict[str, str], _SeriesBuffer]]] = {}
        #: Memo of already-normalized label tuples (exporters emit the
        #: same tuples over and over; sorting them each time dominates
        #: per-sample ingest).
        self._label_cache: dict[Labels, Labels] = {}
        #: LRU of window reads keyed by (series key, sample count, start,
        #: end); appends bump the count, so stale entries are unreachable
        #: and age out.
        self._range_cache: OrderedDict[tuple, TimeSeries] = OrderedDict()
        #: Interned timestamps columns of bulk-written series, keyed by
        #: their bytes: (read-only float64 view over the key, whether it
        #: strictly increases).
        self._grids: dict[bytes, tuple[np.ndarray, bool]] = {}

    def _normalize_cached(self, labels: dict[str, str] | Labels | None) -> Labels:
        if type(labels) is tuple:
            cached = self._label_cache.get(labels)
            if cached is None:
                cached = self._label_cache[labels] = tuple(sorted(labels))
            return cached
        return _normalize_labels(labels)

    def _new_series(
        self, key: tuple[str, Labels], buf: _SeriesBuffer | None = None
    ) -> _SeriesBuffer:
        """Create the series ``key`` (empty, or ``buf``) in both the flat
        map and the metric index."""
        if buf is None:
            buf = _SeriesBuffer()
        self._series[key] = buf
        self._by_metric.setdefault(key[0], []).append((dict(key[1]), buf))
        return buf

    def _write_columns(self, key: tuple[str, Labels], ts: np.ndarray, vs: np.ndarray) -> None:
        """Bulk-write equally sized float64 columns to series ``key``.

        A new series goes on the interned copy of ``ts``, with its own
        read-only copy of ``vs``; an existing one appends.
        """
        buf = self._series.get(key)
        if buf is not None:
            buf.extend_columns(ts, vs)
            return
        raw = ts.tobytes()
        grid = self._grids.get(raw)
        if grid is None:
            column = np.frombuffer(raw, dtype=_FLOAT64)
            ascending = len(column) < 2 or bool(np.all(np.diff(column) > 0))
            grid = self._grids[raw] = (column, ascending)
        values = np.frombuffer(vs.tobytes(), dtype=_FLOAT64)
        self._new_series(key, _SeriesBuffer.on_grid(*grid, values))

    def _buffer(self, metric: str, labels: dict[str, str] | Labels | None) -> _SeriesBuffer:
        key = (metric, self._normalize_cached(labels))
        buf = self._series.get(key)
        if buf is None:
            buf = self._new_series(key)
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
        the equivalence the ``repro verify`` ``scrape_path`` check demands
        between the simulator's series-handle scrape and the per-sample
        reference.
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
        """Append a whole series at once (bulk ingest, one buffer copy)."""
        self._write_columns(
            (metric, self._normalize_cached(labels)),
            np.asarray(series.timestamps, dtype=float),
            np.asarray(series.values, dtype=float),
        )

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
        self._write_columns((metric, self._normalize_cached(labels)), ts, vs)
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
                buf = self._new_series(key)
            buf._thaw()
            buf._ts.append(timestamp)
            buf._vs.append(value)
            buf._finalized = None
            n += 1
        return n

    def ingest_blocks(self, blocks: Iterable[SampleBlock]) -> int:
        """Ingest columnar sample blocks; returns the sample count.

        Hot path for bulk backfill: windows arrive as float64 arrays, so
        conversion and validation are skipped when the columns already
        have the right shape.
        """
        n = 0
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
            self._write_columns((metric, normalized), ts, vs)
            n += len(ts)
        return n

    # -- reads ----------------------------------------------------------------

    def metrics(self) -> list[str]:
        """Distinct metric names, sorted."""
        return sorted(self._by_metric)

    def series_count(self, metric: str | None = None) -> int:
        """Number of stored series, optionally for one metric."""
        if metric is None:
            return len(self._series)
        return len(self._by_metric.get(metric, ()))

    def sample_count(self) -> int:
        """Total samples across every series."""
        return sum(len(buf) for buf in self._series.values())

    def labelsets(self, metric: str) -> list[dict[str, str]]:
        """All label sets stored for ``metric``."""
        return [dict(labels) for labels, _ in self._by_metric.get(metric, ())]

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
        """All series of ``metric`` whose labels include ``matcher``, in
        creation order.

        Mirrors a PromQL selector ``metric{k="v", ...}``: a series matches
        when ``labels.get(k) == v`` for every pair.
        """
        wanted = (matcher or {}).items()
        for label_dict, buf in self._by_metric.get(metric, ()):
            if all(label_dict.get(k) == v for k, v in wanted):
                yield dict(label_dict), buf.series()

    def aggregate_across(
        self,
        metric: str,
        matcher: dict[str, str] | None = None,
        agg: str | Callable[[np.ndarray], float] = "mean",
    ) -> TimeSeries:
        """Cross-series aggregation at each timestamp (PromQL ``agg(metric)``).

        Timestamps are the union of all matched series; at each timestamp the
        aggregation runs over the series that have a sample there.

        The matrix is built timestamp-major, one contiguous row per union
        timestamp.  A string agg reduces every gap-free row (every series
        sampled, no staleness marker) in one call along axis 1: the
        reduction of a contiguous row runs the same kernel over the same
        elements as a 1-D call on that row (pairwise sum for mean/sum,
        partition and lerp for p95), so the bits equal the per-row loop's.
        Rows with a gap, and callable aggs, take the per-row loop.

        When every matched series holds the same timestamps object (series
        bulk-written on one interned, strictly increasing grid), that
        array is the union and each series fills one column in order.
        """
        agg_fn = _resolve_agg(agg)
        # An empty series adds no sample anywhere, only a gap in every row.
        all_series = [s for _, s in self.select(metric, matcher) if len(s)]
        if not all_series:
            return TimeSeries.empty()
        axis = all_series[0].timestamps
        if all(s.timestamps is axis for s in all_series):
            union = axis
            values = np.column_stack([s.values for s in all_series])
        else:
            union = np.unique(np.concatenate([s.timestamps for s in all_series]))
            values = np.full((len(union), len(all_series)), np.nan)
            for i, s in enumerate(all_series):
                values[np.searchsorted(union, s.timestamps), i] = s.values
        out = np.empty(len(union))
        loop_rows = range(len(union))
        if not callable(agg):
            gaps = np.isnan(values).any(axis=1)
            if not gaps.any():
                return TimeSeries(union, ROW_AGGS[agg](values))
            full = ~gaps
            if full.any():
                out[full] = ROW_AGGS[agg](values[full])
            loop_rows = np.flatnonzero(gaps)
        for j in loop_rows:
            row = values[j]
            present = row[~np.isnan(row)]
            # All matched series stale/absent here: propagate the marker
            # rather than aggregating an empty set.
            out[j] = agg_fn(present) if present.size else STALE
        return TimeSeries(union, out)


def _resolve_agg(agg: str | Callable[[np.ndarray], float]):
    if callable(agg):
        return agg
    try:
        return AGGS[agg]
    except KeyError:
        raise ValueError(f"unknown aggregation {agg!r}; known: {sorted(AGGS)}") from None
