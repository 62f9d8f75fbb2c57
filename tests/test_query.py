"""Tests for the PromQL-flavoured query language."""

import numpy as np
import pytest

from repro.telemetry.query import QueryError, evaluate, instant, query, query_range
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries


@pytest.fixture
def store() -> MetricStore:
    s = MetricStore()
    s.append_series(
        "cpu_pct", {"host": "a", "dc": "one"},
        TimeSeries.regular(0, 60, [10, 20, 30, 40]),
    )
    s.append_series(
        "cpu_pct", {"host": "b", "dc": "one"},
        TimeSeries.regular(0, 60, [50, 60, 70, 80]),
    )
    s.append_series(
        "cpu_pct", {"host": "c", "dc": "two"},
        TimeSeries.regular(0, 60, [1, 1, 1, 1]),
    )
    return s


class TestSelectors:
    def test_bare_metric_returns_all_series(self, store):
        result = evaluate(store, "cpu_pct")
        assert len(result) == 3
        assert not result.aggregated

    def test_label_matcher(self, store):
        result = evaluate(store, 'cpu_pct{host="a"}')
        assert len(result) == 1
        assert result.series[0][0]["host"] == "a"

    def test_multi_label_matcher(self, store):
        result = evaluate(store, 'cpu_pct{dc="one", host="b"}')
        assert result.single().values[0] == 50

    def test_no_match_is_empty(self, store):
        assert len(evaluate(store, 'cpu_pct{host="zzz"}')) == 0

    def test_unknown_metric_is_empty(self, store):
        assert len(evaluate(store, "nope")) == 0


class TestAggregation:
    def test_mean_across_series(self, store):
        result = evaluate(store, "mean(cpu_pct)")
        assert result.aggregated
        series = result.single()
        assert series.values[0] == pytest.approx((10 + 50 + 1) / 3)

    def test_max_with_matcher(self, store):
        series = evaluate(store, 'max(cpu_pct{dc="one"})').single()
        assert list(series.values) == [50, 60, 70, 80]

    def test_count(self, store):
        series = evaluate(store, "count(cpu_pct)").single()
        assert np.all(series.values == 3)


class TestRange:
    def test_range_restricts_samples(self, store):
        series = evaluate(store, 'cpu_pct{host="a"}[60, 180]').single()
        assert list(series.timestamps) == [60, 120]

    def test_range_on_aggregate(self, store):
        series = evaluate(store, "sum(cpu_pct)[0, 61]").single()
        assert len(series) == 2

    def test_bad_range_rejected(self, store):
        with pytest.raises(QueryError, match="range end"):
            evaluate(store, "cpu_pct[100, 50]")


class TestAggOverTime:
    def test_resamples_each_series(self, store):
        result = evaluate(store, 'agg_over_time(cpu_pct{host="a"}, 120, mean)')
        series = result.single()
        assert list(series.values) == [15.0, 35.0]

    def test_unknown_inner_agg(self, store):
        with pytest.raises(QueryError, match="unknown aggregation"):
            evaluate(store, "agg_over_time(cpu_pct, 120, median99)")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "mean(",
            "mean()",
            "cpu_pct{host=}",
            'cpu_pct{host="a"',
            "cpu_pct extra",
            "cpu_pct[100]",
            "{}",
            "42",
        ],
    )
    def test_malformed_queries_raise(self, store, bad):
        with pytest.raises(QueryError):
            evaluate(store, bad)

    def test_single_requires_one_series(self, store):
        result = evaluate(store, "cpu_pct")
        with pytest.raises(QueryError, match="exactly one"):
            result.single()


class TestProgrammaticFrontEnd:
    """The module-level functions are the supported store-read surface."""

    def test_query_returns_exact_series(self, store):
        series = query(store, "cpu_pct", {"host": "a", "dc": "one"})
        assert list(series.values) == [10, 20, 30, 40]

    def test_query_range_half_open_window(self, store):
        series = query_range(store, "cpu_pct", {"host": "a", "dc": "one"}, 60, 180)
        assert list(series.timestamps) == [60, 120]

    def test_instant_reads_latest_at_or_before(self, store):
        assert instant(store, "cpu_pct", {"host": "a", "dc": "one"}, 70.0) == 20
        assert instant(store, "cpu_pct", {"host": "a", "dc": "one"}, -1.0) is None


def test_real_metric_names_work(small_dataset):
    """The Table 4 names (with underscores) parse and evaluate."""
    result = evaluate(
        small_dataset.store, "max(vrops_hostsystem_cpu_contention_percentage)"
    )
    assert result.single().values.max() > 10.0
