"""Tests for the MetricStore: label indexing, range queries, aggregation."""

import hashlib
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.telemetry.store import MetricStore, Sample, SampleBlock
from repro.telemetry.timeseries import TimeSeries


@pytest.fixture
def store() -> MetricStore:
    s = MetricStore()
    for node in ("n1", "n2"):
        for t, v in [(0, 1.0), (60, 2.0), (120, 3.0)]:
            s.append("cpu", {"host": node, "dc": "a"}, t, v if node == "n1" else v * 10)
    return s


class TestWrites:
    def test_append_and_query(self, store):
        series = store.query("cpu", {"host": "n1", "dc": "a"})
        assert list(series.values) == [1.0, 2.0, 3.0]

    def test_label_order_irrelevant(self, store):
        a = store.query("cpu", {"dc": "a", "host": "n1"})
        b = store.query("cpu", {"host": "n1", "dc": "a"})
        assert a == b

    def test_out_of_order_appends_sorted_on_read(self):
        store = MetricStore()
        store.append("m", None, 100, 2.0)
        store.append("m", None, 50, 1.0)
        assert list(store.query("m", None).timestamps) == [50, 100]

    def test_duplicate_timestamp_keeps_last_write(self):
        store = MetricStore()
        store.append("m", None, 10, 1.0)
        store.append("m", None, 10, 9.0)
        series = store.query("m", None)
        assert len(series) == 1
        assert series.values[0] == 9.0

    def test_append_series_bulk(self):
        store = MetricStore()
        store.append_series("m", {"x": "1"}, TimeSeries([1, 2], [5, 6]))
        assert store.sample_count() == 2

    def test_ingest_samples(self):
        store = MetricStore()
        n = store.ingest(
            [Sample("m", (("a", "b"),), 0, 1.0), Sample("m", (("a", "b"),), 1, 2.0)]
        )
        assert n == 2
        assert len(store.query("m", {"a": "b"})) == 2

    def test_append_after_read_invalidates_cache(self):
        store = MetricStore()
        store.append("m", None, 0, 1.0)
        assert len(store.query("m", None)) == 1
        store.append("m", None, 10, 2.0)
        assert len(store.query("m", None)) == 2

    def test_append_columns(self):
        store = MetricStore()
        n = store.append_columns(
            "m", {"x": "1"}, np.array([0.0, 10.0]), np.array([1.0, 2.0])
        )
        assert n == 2
        assert list(store.query("m", {"x": "1"}).values) == [1.0, 2.0]

    def test_append_columns_rejects_shape_mismatch(self):
        store = MetricStore()
        with pytest.raises(ValueError):
            store.append_columns("m", None, np.array([0.0, 1.0]), np.array([1.0]))

    def test_ingest_blocks_matches_per_sample_ingest(self):
        ts = np.array([0.0, 10.0, 20.0])
        vs = np.array([1.0, np.nan, 3.0])  # NaN staleness must survive
        columnar = MetricStore()
        n = columnar.ingest_blocks([SampleBlock("m", (("a", "b"),), ts, vs)])
        assert n == 3
        row_wise = MetricStore()
        row_wise.ingest(
            [Sample("m", (("a", "b"),), t, v) for t, v in zip(ts, vs)]
        )
        a = columnar.query("m", {"a": "b"})
        b = row_wise.query("m", {"a": "b"})
        assert list(a.timestamps) == list(b.timestamps)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.isnan(a.values[1])

    def test_ingest_blocks_rejects_shape_mismatch(self):
        store = MetricStore()
        with pytest.raises(ValueError):
            store.ingest_blocks(
                [SampleBlock("m", (), np.array([0.0, 1.0]), np.array([1.0]))]
            )

    def test_ingest_blocks_converts_plain_lists(self):
        store = MetricStore()
        n = store.ingest_blocks([SampleBlock("m", (), [0, 10], [1, 2])])
        assert n == 2
        assert list(store.query("m", None).values) == [1.0, 2.0]

    def test_block_append_then_row_append_interleave(self):
        # A row append after a bulk block append must not be lost or
        # corrupt the buffer (the finalised array is a copy, not a view).
        store = MetricStore()
        store.ingest_blocks(
            [SampleBlock("m", (), np.array([0.0, 10.0]), np.array([1.0, 2.0]))]
        )
        assert len(store.query("m", None)) == 2
        store.append("m", None, 20.0, 3.0)
        assert list(store.query("m", None).values) == [1.0, 2.0, 3.0]


class TestReads:
    def test_missing_series_is_empty(self, store):
        assert len(store.query("cpu", {"host": "ghost"})) == 0
        assert len(store.query("nope", None)) == 0

    def test_metrics_listing(self, store):
        assert store.metrics() == ["cpu"]

    def test_series_count(self, store):
        assert store.series_count() == 2
        assert store.series_count("cpu") == 2
        assert store.series_count("nope") == 0

    def test_labelsets(self, store):
        sets = store.labelsets("cpu")
        assert {d["host"] for d in sets} == {"n1", "n2"}

    def test_window(self, store):
        out = store.window("cpu", {"host": "n1", "dc": "a"}, 60, 121)
        assert list(out.timestamps) == [60, 120]

    def test_window_cache_serves_repeat_reads(self, store):
        first = store.window("cpu", {"host": "n1", "dc": "a"}, 0, 121)
        again = store.window("cpu", {"host": "n1", "dc": "a"}, 0, 121)
        assert again is first  # LRU hit: identical object

    def test_window_cache_invalidated_by_append(self, store):
        first = store.window("cpu", {"host": "n1", "dc": "a"}, 0, 500)
        store.append("cpu", {"host": "n1", "dc": "a"}, 180, 4.0)
        fresh = store.window("cpu", {"host": "n1", "dc": "a"}, 0, 500)
        assert fresh is not first
        assert list(fresh.timestamps) == [0, 60, 120, 180]

    def test_select_with_matcher(self, store):
        matched = list(store.select("cpu", {"host": "n1"}))
        assert len(matched) == 1
        everything = list(store.select("cpu", {"dc": "a"}))
        assert len(everything) == 2

    def test_select_no_matcher_returns_all(self, store):
        assert len(list(store.select("cpu"))) == 2


class TestAggregation:
    def test_mean_across_series(self, store):
        out = store.aggregate_across("cpu", agg="mean")
        assert list(out.values) == [5.5, 11.0, 16.5]

    def test_max_across_series(self, store):
        out = store.aggregate_across("cpu", agg="max")
        assert list(out.values) == [10.0, 20.0, 30.0]

    def test_aggregate_handles_missing_timestamps(self):
        store = MetricStore()
        store.append("m", {"h": "a"}, 0, 1.0)
        store.append("m", {"h": "b"}, 60, 3.0)
        out = store.aggregate_across("m", agg="mean")
        assert list(out.values) == [1.0, 3.0]  # singletons at each timestamp

    def test_aggregate_empty_metric(self):
        assert len(MetricStore().aggregate_across("nope")) == 0

    def test_aggregate_custom_callable(self, store):
        out = store.aggregate_across("cpu", agg=lambda a: float(np.sum(a)))
        assert list(out.values) == [11.0, 22.0, 33.0]

    def test_unknown_agg_raises(self, store):
        with pytest.raises(ValueError, match="unknown aggregation"):
            store.aggregate_across("cpu", agg="bogus")


@given(
    points=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_property_store_read_is_sorted_dedup(points):
    """Whatever the write order, reads are sorted and timestamp-unique."""
    store = MetricStore()
    for t, v in points:
        store.append("m", None, t, v)
    series = store.query("m", None)
    assert np.all(np.diff(series.timestamps) > 0)
    # Last write per timestamp wins.
    last = {}
    for t, v in points:
        last[t] = v
    assert len(series) == len(last)
    for t, v in zip(series.timestamps, series.values):
        assert last[int(t)] == v


def _interleaved_store():
    """A store whose series every write path creates, interleaved by metric.

    Returns the store and its ``(metric, labels)`` keys in creation order.
    """
    store = MetricStore()
    created = []

    def write(metric, host, fn, *args):
        key = (metric, (("host", host),))
        if key not in created:
            created.append(key)
        fn(metric, {"host": host}, *args)

    write("cpu", "n2", lambda m, l, t, v: store.series_handle(m, l).append(t, v), 0.0, 1.5)
    write("mem", "n1", store.append, 0.0, 2.0)
    write("cpu", "n1", lambda m, l: store.ingest([Sample(m, tuple(l.items()), 0.0, 0.5)]))
    write("disk", "n1", lambda m, l: store.ingest([Sample(m, tuple(l.items()), 0.0, float("nan"))]))
    write("cpu", "n2", lambda m, l: store.ingest([Sample(m, tuple(l.items()), 60.0, -0.0)]))
    write(
        "mem", "n3",
        lambda m, l: store.ingest_blocks(
            [SampleBlock(m, tuple(l.items()), np.array([0.0, 60.0]), np.array([1.0, 3.0]))]
        ),
    )
    write(
        "cpu", "n3",
        lambda m, l: store.ingest_blocks(
            [SampleBlock(m, tuple(l.items()), np.array([0.0]), np.array([7.0]))]
        ),
    )
    write("disk", "n0", store.append_series, TimeSeries([0, 60, 120], [1.0, float("nan"), 2.0]))
    write("cpu", "n0", store.append_columns, np.array([0.0, 60.0]), np.array([0.25, 0.75]))
    write("mem", "n1", store.append_series, TimeSeries([60, 120], [2.5, 3.5]))
    write("cpu", "n4", store.append, 0.0, 9.0)
    return store, created


class TestSeriesIndex:
    def test_select_order_is_creation_order_per_metric(self):
        store, created = _interleaved_store()
        for metric in ("cpu", "mem", "disk"):
            expected = [dict(labels) for m, labels in created if m == metric]
            assert [labels for labels, _ in store.select(metric)] == expected
            assert store.labelsets(metric) == expected
            assert store.series_count(metric) == len(expected)
        assert store.metrics() == ["cpu", "disk", "mem"]
        assert store.series_count() == len(created)
        assert list(store.select("absent")) == []

    def test_select_matcher_filters_within_the_metric(self):
        store, _ = _interleaved_store()
        assert [labels for labels, _ in store.select("cpu", {"host": "n3"})] == [
            {"host": "n3"}
        ]
        assert list(store.select("mem", {"host": "n2"})) == []

    def test_content_fingerprint_unchanged(self):
        store, created = _interleaved_store()
        # Recomputed from the creation order, and pinned to the digest the
        # store gave before the per-metric index existed.
        h = hashlib.sha256()
        for key in created:
            buf = store._series[key]
            h.update(repr(key).encode())
            h.update(len(buf._ts).to_bytes(8, "little"))
            h.update(buf._ts.tobytes())
            h.update(buf._vs.tobytes())
        assert store.content_fingerprint() == h.hexdigest()
        assert store.content_fingerprint() == (
            "0c3b093940a0c783e780c10048a5ab499355d828bbb3c3e872346aa4bf509a01"
        )


_LABEL_NAMES = ("host", "bb", "dc")
_LABEL_VALUES = ("a", "b", "c")
#: A label set: any subset of the names, each with a value.
_labelset = st.dictionaries(st.sampled_from(_LABEL_NAMES), st.sampled_from(_LABEL_VALUES))
#: A matcher: names that series may lack, values they may not hold, and
#: None (which a missing label matches).
_matcher = st.dictionaries(
    st.sampled_from((*_LABEL_NAMES, "missing")),
    st.sampled_from((*_LABEL_VALUES, "z", None)),
    max_size=3,
)


def _linear_select(created, metric, matcher):
    """The selector as a scan: every series of ``metric``, in creation
    order, whose labels satisfy ``labels.get(k) == v`` for every pair."""
    return [
        labels
        for m, labels in created
        if m == metric and all(labels.get(k) == v for k, v in (matcher or {}).items())
    ]


class TestSelectMatchers:
    @given(
        batches=st.lists(
            st.lists(st.tuples(st.sampled_from(("cpu", "mem")), _labelset), max_size=8),
            min_size=1,
            max_size=4,
        ),
        matchers=st.lists(_matcher, min_size=1, max_size=4),
    )
    def test_select_equals_a_linear_scan(self, batches, matchers):
        """Series are created in batches and every matcher is selected
        between batches, so selects see series created after earlier
        selects."""
        store = MetricStore()
        created = []
        for batch in batches:
            for metric, labels in batch:
                if (metric, labels) not in created:
                    created.append((metric, labels))
                store.append(metric, labels, float(len(created)), 1.0)
            for matcher in [None, {}, *matchers]:
                for metric in ("cpu", "mem", "absent"):
                    got = [labels for labels, _ in store.select(metric, matcher)]
                    assert got == _linear_select(created, metric, matcher), (metric, matcher)

    def test_selected_labels_are_fresh_dicts(self):
        store = MetricStore()
        store.append("cpu", {"host": "a"}, 0.0, 1.0)
        labels, _ = next(store.select("cpu", {"host": "a"}))
        labels["host"] = "changed"
        assert [labels for labels, _ in store.select("cpu", {"host": "a"})] == [{"host": "a"}]
        assert store.labelsets("cpu") == [{"host": "a"}]


def _extended(items) -> bytes:
    buf = array("d")
    buf.extend(items)
    return buf.tobytes()


class TestAppendSeriesBytes:
    """``append_series`` stores what an element-wise ``array.extend`` stored."""

    @staticmethod
    def _raw_series(ts, vs):
        # A series holding its columns as given (TimeSeries itself would
        # convert them to float64 first).
        series = object.__new__(TimeSeries)
        series.timestamps, series.values = ts, vs
        return series

    @pytest.mark.parametrize(
        "ts, vs",
        [
            (np.arange(0, 600, 60, dtype=np.int64), np.linspace(-1, 1, 10)),
            (
                np.arange(10, dtype=float) * 30.0,
                np.array([0.1, -0.0, np.nan, 1e-40, 3.3, 7, 8, 9, 1e30, -2.5], np.float32),
            ),
            (np.arange(40, dtype=float)[::4], np.arange(40, dtype=float)[1::4] * -0.5),
            (np.arange(20, dtype=np.int32)[::-2], np.full(10, np.nan)),
        ],
        ids=["int-timestamps", "float32-values", "strided-views", "reversed-int32"],
    )
    def test_bytes_match_elementwise_extend(self, ts, vs):
        for series in (self._raw_series(ts, vs), TimeSeries(np.sort(ts), vs)):
            store = MetricStore()
            store.append_series("m", {"k": "v"}, series)
            buf = store._series[("m", (("k", "v"),))]
            assert buf._ts.tobytes() == _extended(series.timestamps)
            assert buf._vs.tobytes() == _extended(series.values)

    def test_appends_accumulate(self):
        store = MetricStore()
        store.append_series("m", None, TimeSeries([0, 60], [1.0, 2.0]))
        store.append("m", None, 120.0, 3.0)
        store.append_series("m", None, TimeSeries([180, 240], [4.0, np.nan]))
        buf = store._series[("m", ())]
        assert buf._ts.tobytes() == _extended([0.0, 60.0, 120.0, 180.0, 240.0])
        assert buf._vs.tobytes() == _extended([1.0, 2.0, 3.0, 4.0, np.nan])
        assert np.isnan(store.query("m").values[-1])


_GRID = np.arange(0.0, 600.0, 60.0)


def _write_kinds():
    """One later write of each kind, all appending the sample (600, 7)."""
    return {
        "append": lambda s: s.append("m", {"k": "v"}, 600.0, 7.0),
        "ingest": lambda s: s.ingest([Sample("m", (("k", "v"),), 600.0, 7.0)]),
        "handle": lambda s: s.series_handle("m", {"k": "v"}).append(600.0, 7.0),
        "bulk": lambda s: s.append_columns("m", {"k": "v"}, [600.0], [7.0]),
    }


class TestSharedTimeAxis:
    """Bulk-written series sit on interned, read-only timestamps columns."""

    def test_equal_grids_share_one_read_only_timestamps_column(self):
        store = MetricStore()
        grid = _GRID.copy()
        store.append_columns("cpu", {"h": "a"}, grid, np.ones(10))
        store.append_series("mem", {"h": "a"}, TimeSeries(_GRID.copy(), np.zeros(10)))
        store.ingest_blocks([SampleBlock("cpu", (("h", "b"),), _GRID + 0.0, np.arange(10.0))])
        store.append_columns("cpu", {"h": "c"}, _GRID[:5], np.ones(5))
        a, mem, b, c = store._series.values()
        assert a._ts is mem._ts is b._ts
        assert c._ts is not a._ts
        # The store holds its own bytes: the caller's arrays stay theirs.
        grid[0] = -1.0
        assert a._ts[0] == 0.0

        series = store.query("cpu", {"h": "a"})
        assert series.timestamps is a._ts and series.values is a._vs
        with pytest.raises(ValueError, match="read-only"):
            series.values[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            series.timestamps[0] = 5.0

    @pytest.mark.parametrize("write", list(_write_kinds()))
    def test_a_later_write_copies_on_write(self, write):
        store = MetricStore()
        store.append_columns("m", {"k": "v"}, _GRID, np.arange(10.0))
        store.append_columns("m", {"k": "w"}, _GRID, -np.arange(10.0))
        before = store.query("m", {"k": "v"})
        _write_kinds()[write](store)

        buf, other = store._series.values()
        assert type(buf._ts) is array and type(buf._vs) is array
        assert buf._ts.tobytes() == _extended([*_GRID, 600.0])
        assert buf._vs.tobytes() == _extended([*range(10), 7.0])
        assert store.query("m", {"k": "v"}).values[-1] == 7.0
        assert len(before) == 10
        # The shared grid, and the series still on it, are untouched.
        assert other._ts.tobytes() == _GRID.tobytes()
        assert store.query("m", {"k": "w"}).timestamps is other._ts

    def test_unordered_grid_reads_sorted_and_deduplicated(self):
        store = MetricStore()
        store.append_columns("m", None, [120.0, 0.0, 60.0, 0.0], [3.0, 1.0, 2.0, 9.0])
        series = store.query("m")
        assert series.timestamps.tolist() == [0.0, 60.0, 120.0]
        assert series.values.tolist() == [9.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "agg", ["mean", "sum", "max", "min", "p95", "count", lambda a: float(np.median(a))]
    )
    def test_aggregate_on_the_shared_axis_equals_the_union_path(self, agg):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, len(_GRID)))
        values[1, 2] = np.nan  # a gap row
        values[:, 5] = np.nan  # a row with no sample at all
        bulk, per_sample = MetricStore(), MetricStore()
        for i, column in enumerate(values):
            bulk.append_columns("m", {"i": str(i)}, _GRID, column)
            for t, v in zip(_GRID, column):
                per_sample.append("m", {"i": str(i)}, t, v)
        bulk.append_columns("m", {"i": "empty"}, [], [])

        shared = bulk.aggregate_across("m", agg=agg)
        union = per_sample.aggregate_across("m", agg=agg)
        assert shared.timestamps is bulk._series[("m", (("i", "0"),))]._ts
        assert shared.timestamps.tobytes() == union.timestamps.tobytes()
        assert shared.values.tobytes() == union.values.tobytes()
        assert np.isnan(shared.values[5])


def test_generated_node_series_share_one_timestamps_column():
    from repro.datagen import GeneratorConfig, generate_dataset

    store = generate_dataset(GeneratorConfig(scale=0.02, days=3, vm_series_limit=5)).store
    host_metrics = [m for m in store.metrics() if m.startswith("vrops_hostsystem_")]
    columns = {
        id(series.timestamps) for m in host_metrics for _, series in store.select(m)
    }
    assert len(host_metrics) == 7
    assert len(columns) == 1
