"""Tests for the MetricStore: label indexing, range queries, aggregation."""

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
