"""Tests for the host CPU scheduler model (ready time & contention)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.hostsched import HostCpuModel


class TestResolveWindow:
    def test_no_contention_below_capacity(self):
        model = HostCpuModel(physical_cores=64)
        usage = model.resolve_window(demand_cores=32, window_seconds=300)
        assert usage.cpu_ready_ms == 0.0
        assert usage.cpu_contention_fraction == 0.0
        assert usage.cpu_used_fraction == pytest.approx(0.5)

    def test_contention_definition(self):
        """§5.1: contention = time ready-but-not-scheduled / demanded time."""
        model = HostCpuModel(physical_cores=100, efficiency=1.0)
        usage = model.resolve_window(demand_cores=125, window_seconds=300)
        assert usage.cpu_contention_fraction == pytest.approx(0.2)
        assert usage.delivered_cores == 100

    def test_ready_time_per_core_normalised(self):
        """25% excess demand over a 300 s window -> 75 s of ready time."""
        model = HostCpuModel(physical_cores=100, efficiency=1.0)
        usage = model.resolve_window(demand_cores=125, window_seconds=300)
        assert usage.cpu_ready_ms == pytest.approx(75_000)

    def test_saturated_node_can_exceed_window(self):
        """Fig 8's ~30-minute outliers in a 300 s window are possible."""
        model = HostCpuModel(physical_cores=100, efficiency=1.0)
        usage = model.resolve_window(demand_cores=800, window_seconds=300)
        assert usage.cpu_ready_ms == pytest.approx(7 * 300 * 1000)

    def test_efficiency_discounts_capacity(self):
        model = HostCpuModel(physical_cores=100, efficiency=0.9)
        usage = model.resolve_window(demand_cores=95, window_seconds=300)
        assert usage.cpu_contention_fraction > 0

    def test_zero_demand(self):
        usage = HostCpuModel(10).resolve_window(0.0, 300)
        assert usage.cpu_used_fraction == 0.0
        assert usage.cpu_contention_fraction == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            HostCpuModel(0)
        with pytest.raises(ValueError):
            HostCpuModel(10, efficiency=0)
        with pytest.raises(ValueError):
            HostCpuModel(10).resolve_window(-1, 300)
        with pytest.raises(ValueError):
            HostCpuModel(10).resolve_window(1, 0)


class TestResolveSeries:
    def test_matches_scalar_path(self):
        model = HostCpuModel(64, efficiency=0.97)
        demands = np.asarray([0.0, 30.0, 64.0, 100.0, 200.0])
        used, ready, contention = model.resolve_series(demands, 300)
        for i, d in enumerate(demands):
            single = model.resolve_window(float(d), 300)
            assert used[i] == pytest.approx(single.cpu_used_fraction)
            assert ready[i] == pytest.approx(single.cpu_ready_ms)
            assert contention[i] == pytest.approx(single.cpu_contention_fraction)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            HostCpuModel(10).resolve_series(np.asarray([-1.0]), 300)

    def test_node_vector_rejects_a_non_positive_core_count(self):
        with pytest.raises(ValueError):
            HostCpuModel(np.asarray([64.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=512),
            st.floats(min_value=0, max_value=2_000) | st.just(0.0),
        ),
        min_size=1,
        max_size=40,
    ),
    window=st.floats(min_value=1, max_value=3600),
)
def test_node_vector_equals_per_node_windows_bit_for_bit(nodes, window):
    """The scrape resolves every node's window with one model over the
    node vector; each element must be that node's own scalar window."""
    cores = np.asarray([c for c, _ in nodes], dtype=float)
    demand = np.asarray([d for _, d in nodes])
    used, ready, contention = HostCpuModel(cores, efficiency=0.97).resolve_series(
        demand, window
    )
    for i, (c, d) in enumerate(nodes):
        usage = HostCpuModel(c, efficiency=0.97).resolve_window(d, window)
        assert used[i] == usage.cpu_used_fraction
        assert ready[i] == usage.cpu_ready_ms
        assert contention[i] == usage.cpu_contention_fraction


class TestFairShare:
    def test_no_throttle_below_capacity(self):
        model = HostCpuModel(10, efficiency=1.0)
        demands = np.asarray([2.0, 3.0])
        np.testing.assert_array_equal(model.fair_share(demands), demands)

    def test_proportional_throttle(self):
        """Noisy neighbour: everyone shrinks proportionally when saturated."""
        model = HostCpuModel(10, efficiency=1.0)
        out = model.fair_share(np.asarray([10.0, 10.0]))
        np.testing.assert_allclose(out, [5.0, 5.0])

    def test_total_never_exceeds_capacity(self):
        model = HostCpuModel(10, efficiency=1.0)
        out = model.fair_share(np.asarray([7.0, 8.0, 9.0]))
        assert out.sum() == pytest.approx(10.0)


@given(
    demand=st.floats(min_value=0, max_value=1e5),
    cores=st.floats(min_value=0.5, max_value=512),
    window=st.floats(min_value=1, max_value=3600),
)
def test_property_invariants(demand, cores, window):
    usage = HostCpuModel(cores).resolve_window(demand, window)
    assert 0.0 <= usage.cpu_used_fraction <= 1.0 + 1e-12
    assert 0.0 <= usage.cpu_contention_fraction < 1.0
    assert usage.cpu_ready_ms >= 0.0
    assert usage.delivered_cores <= min(demand, cores) + 1e-9
    # Conservation: delivered + unsatisfied = demand.
    unsatisfied = usage.cpu_ready_ms / 1000.0 / window * usage.delivered_cores
    # (ready is per-core normalised; recompute directly instead)
    assert usage.delivered_cores + max(0.0, demand - cores) == pytest.approx(
        demand, rel=1e-6, abs=1e-6
    )


@given(
    demands=st.lists(
        st.floats(min_value=0, max_value=1e4), min_size=1, max_size=30
    ),
    cores=st.floats(min_value=1, max_value=256),
)
def test_property_fair_share_bounded_and_proportional(demands, cores):
    model = HostCpuModel(cores, efficiency=1.0)
    arr = np.asarray(demands)
    out = model.fair_share(arr)
    assert np.all(out <= arr + 1e-9)
    assert out.sum() <= cores * (1 + 1e-9) or out.sum() == pytest.approx(arr.sum())
