"""Tests for temporal demand patterns."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.workloads import patterns as pat
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES


@pytest.fixture
def week_grid() -> np.ndarray:
    return np.arange(0, 7 * pat.SECONDS_PER_DAY, 900.0)


class TestConstant:
    def test_level(self, week_grid):
        assert np.all(pat.constant(0.4)(week_grid) == 0.4)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            pat.constant(-0.1)


class TestDiurnal:
    def test_peaks_at_peak_hour(self):
        pattern = pat.diurnal(base=0.1, peak=0.9, peak_hour=12.0)
        hours = np.arange(0, 24) * 3600.0
        values = pattern(hours)
        assert np.argmax(values) == 12
        assert values.max() == pytest.approx(0.9)
        assert values.min() >= 0.1 - 1e-9

    def test_wraps_around_midnight(self):
        pattern = pat.diurnal(base=0.0, peak=1.0, peak_hour=0.0, width_hours=2.0)
        values = pattern(np.asarray([0.0, 23 * 3600.0, 1 * 3600.0]))
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(values[2])

    def test_peak_below_base_raises(self):
        with pytest.raises(ValueError):
            pat.diurnal(base=0.5, peak=0.1)


class TestWeekly:
    def test_weekend_scaled(self, week_grid):
        # Epoch day 0 is Thursday; days 2-3 (Sat/Sun) are the weekend.
        values = pat.weekly(1.0, 0.5)(week_grid)
        saturday = week_grid[
            (week_grid >= 2 * pat.SECONDS_PER_DAY)
            & (week_grid < 3 * pat.SECONDS_PER_DAY)
        ]
        assert np.all(pat.weekly(1.0, 0.5)(saturday) == 0.5)
        assert values[0] == 1.0  # Thursday

    def test_five_weekdays_two_weekend_days(self, week_grid):
        values = pat.weekly(1.0, 0.0)(week_grid)
        weekend_share = float(np.mean(values == 0.0))
        assert weekend_share == pytest.approx(2 / 7, abs=0.01)


class TestRamp:
    def test_linear_progression(self):
        pattern = pat.ramp(0.0, 1.0, duration=100.0)
        values = pattern(np.asarray([0.0, 50.0, 100.0, 200.0]))
        assert values == pytest.approx([0.0, 0.5, 1.0, 1.0])

    def test_relative_to_first_timestamp(self):
        pattern = pat.ramp(0.0, 1.0, duration=100.0)
        values = pattern(np.asarray([1000.0, 1100.0]))
        assert values == pytest.approx([0.0, 1.0])

    def test_decreasing_ramp(self):
        pattern = pat.ramp(0.8, 0.2, duration=10.0)
        values = pattern(np.asarray([0.0, 10.0]))
        assert values == pytest.approx([0.8, 0.2])

    def test_empty_input(self):
        assert len(pat.ramp(0, 1, 10)(np.asarray([]))) == 0


class TestBursty:
    def test_levels_are_base_or_burst(self, week_grid, rng):
        pattern = pat.bursty(0.1, 0.9, burst_probability=0.3, rng=rng)
        values = pattern(week_grid)
        assert set(np.unique(values)) <= {0.1, 0.9}

    def test_burst_share_tracks_probability(self, week_grid, rng):
        pattern = pat.bursty(0.0, 1.0, burst_probability=0.25, rng=rng, correlation=1)
        share = float(np.mean(pattern(week_grid)))
        assert 0.2 < share < 0.3

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            pat.bursty(0.1, 0.9, burst_probability=1.5, rng=rng)


class TestSpikeTrain:
    def test_period_and_width(self):
        pattern = pat.spike_train(0.0, 1.0, period=100.0, spike_width=10.0)
        grid = np.arange(0, 300, 1.0)
        values = pattern(grid)
        assert float(np.mean(values)) == pytest.approx(0.1, abs=0.02)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            pat.spike_train(0, 1, period=0, spike_width=1)


class TestComposite:
    def test_max_mode(self, week_grid):
        combo = pat.composite([pat.constant(0.2), pat.constant(0.6)], "max")
        assert np.all(combo(week_grid) == 0.6)

    def test_sum_clipped(self, week_grid):
        combo = pat.composite([pat.constant(0.8), pat.constant(0.8)], "sum")
        assert np.all(combo(week_grid) == 1.0)

    def test_product(self, week_grid):
        combo = pat.composite([pat.constant(0.5), pat.constant(0.5)], "product")
        assert np.all(combo(week_grid) == 0.25)

    def test_empty_and_bad_mode(self):
        with pytest.raises(ValueError):
            pat.composite([], "max")
        with pytest.raises(ValueError):
            pat.composite([pat.constant(0.1)], "avg")


class TestNoise:
    def test_noise_clipped_to_unit_interval(self, week_grid, rng):
        noisy = pat.with_noise(pat.constant(0.02), sigma=0.5, rng=rng)
        values = noisy(week_grid)
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_negative_sigma_raises(self, rng):
        with pytest.raises(ValueError):
            pat.with_noise(pat.constant(0.5), sigma=-1, rng=rng)


# -- records against the closures they replaced ---------------------------------
#
# Each factory used to return a closure; it now returns a slotted record.
# These test-local copies are the closure bodies, expression for
# expression: a record must return their bits and leave its generator
# where they leave theirs, because every demand value and every later
# draw of the simulation and of datagen follows from them.


def _closure_constant(level):
    def pattern(ts):
        return np.full(len(ts), level)

    return pattern


def _closure_diurnal(base, peak, peak_hour=13.0, width_hours=4.0):
    def pattern(ts):
        hour = (ts % pat.SECONDS_PER_DAY) / 3600.0
        dist = np.minimum(np.abs(hour - peak_hour), 24.0 - np.abs(hour - peak_hour))
        bump = np.exp(-0.5 * (dist / width_hours) ** 2)
        return base + (peak - base) * bump

    return pattern


def _closure_weekly(weekday_scale=1.0, weekend_scale=0.6):
    def pattern(ts):
        day_index = (np.floor(ts / pat.SECONDS_PER_DAY).astype(int) + 3) % 7
        return np.where(day_index >= 5, weekend_scale, weekday_scale)

    return pattern


def _closure_ramp(start_level, end_level, duration):
    def pattern(ts):
        if len(ts) == 0:
            return np.asarray([])
        progress = np.clip((ts - ts[0]) / duration, 0.0, 1.0)
        return start_level + (end_level - start_level) * progress

    return pattern


def _closure_bursty(base, burst_level, burst_probability, rng, correlation=4):
    def pattern(ts):
        n_draws = int(np.ceil(len(ts) / max(1, correlation)))
        draws = rng.random(n_draws) < burst_probability
        mask = np.repeat(draws, correlation)[: len(ts)]
        return np.where(mask, burst_level, base)

    return pattern


def _closure_spike_train(base, spike_level, period, spike_width, phase=0.0):
    def pattern(ts):
        in_spike = ((ts + phase) % period) < spike_width
        return np.where(in_spike, spike_level, base)

    return pattern


def _closure_composite(patterns, mode="max"):
    def pattern(ts):
        stacked = np.stack([p(ts) for p in patterns])
        if mode == "max":
            return stacked.max(axis=0)
        if mode == "sum":
            return np.clip(stacked.sum(axis=0), 0.0, 1.0)
        return stacked.prod(axis=0)

    return pattern


def _closure_with_noise(pattern, sigma, rng):
    def noisy(ts):
        return np.clip(pattern(ts) + rng.normal(0.0, sigma, len(ts)), 0.0, 1.0)

    return noisy


_CLOSURES = SimpleNamespace(
    constant=_closure_constant,
    diurnal=_closure_diurnal,
    weekly=_closure_weekly,
    ramp=_closure_ramp,
    bursty=_closure_bursty,
    spike_train=_closure_spike_train,
    composite=_closure_composite,
    with_noise=_closure_with_noise,
)


def _build(spec, rng, factories):
    """The pattern ``spec`` describes, from ``factories`` (the module or
    the closure copies), drawing from ``rng``."""
    kind, *args = spec
    if kind == "composite":
        mode, children = args
        return factories.composite([_build(c, rng, factories) for c in children], mode)
    if kind == "with_noise":
        sigma, child = args
        return factories.with_noise(_build(child, rng, factories), sigma, rng)
    if kind == "bursty":
        base, level, probability, correlation = args
        return factories.bursty(base, level, probability, rng, correlation=correlation)
    return getattr(factories, kind)(*args)


_level = st.floats(min_value=0.0, max_value=1.0)
_leaf = st.one_of(
    st.tuples(st.just("constant"), _level),
    st.tuples(_level, _level, st.floats(0.0, 24.0), st.floats(0.5, 6.0)).map(
        lambda t: ("diurnal", min(t[:2]), max(t[:2]), t[2], t[3])
    ),
    st.tuples(st.just("weekly"), _level, _level),
    st.tuples(st.just("ramp"), _level, _level, st.floats(1.0, 40 * 86_400.0)),
    # Correlation 1 draws a uniform per sample.
    st.tuples(st.just("bursty"), _level, _level, _level, st.integers(1, 12)),
    st.tuples(
        st.just("spike_train"),
        _level,
        _level,
        st.floats(60.0, 2 * 86_400.0),
        st.floats(1.0, 7200.0),
        st.floats(0.0, 86_400.0),
    ),
)
#: Leaves, composites of any depth, and noise at any level.
_spec = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(
            st.just("composite"),
            st.sampled_from(["max", "sum", "product"]),
            st.lists(inner, min_size=1, max_size=3),
        ),
        st.tuples(st.just("with_noise"), st.floats(0.0, 0.2), inner),
    ),
    max_leaves=6,
)
_epoch = 1_722_384_000.0
_grid = st.one_of(
    # Unsorted timestamps over two months, the empty grid among them.
    st.lists(st.floats(_epoch - 86_400.0, _epoch + 60 * 86_400.0), max_size=40),
    # A regular grid from a random start.
    st.tuples(
        st.floats(_epoch, _epoch + 7 * 86_400.0),
        st.sampled_from([300.0, 900.0, 1800.0]),
        st.integers(0, 200),
    ).map(lambda t: t[0] + t[1] * np.arange(t[2])),
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(spec=_spec, grids=st.lists(_grid, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_records_equal_the_closures_bit_for_bit(spec, grids, seed):
    record_rng = np.random.default_rng(seed)
    closure_rng = np.random.default_rng(seed)
    record = _build(spec, record_rng, pat)
    closure = _build(spec, closure_rng, _CLOSURES)
    for grid in grids:
        ts = np.asarray(grid, dtype=float)
        assert _same_bits(record(ts), closure(ts)), spec
    assert record_rng.bit_generator.state == closure_rng.bit_generator.state


def test_ramp_of_an_empty_grid_equals_the_closure():
    empty = np.asarray([], dtype=float)
    assert _same_bits(pat.ramp(0.2, 0.9, 100.0)(empty), _closure_ramp(0.2, 0.9, 100.0)(empty))


def _records(pattern):
    """``pattern`` and every record it wraps."""
    yield pattern
    for child in getattr(pattern, "children", ()):
        yield from _records(child)
    inner = getattr(pattern, "inner", None)
    if inner is not None:
        yield from _records(inner)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_records_have_no_dict(name, rng):
    """Every record a profile builds, and one of each factory, is slotted."""
    flavor = default_catalog().get("g_c8_m32")
    built = [
        pat.constant(0.5),
        pat.diurnal(0.1, 0.9),
        pat.weekly(),
        pat.ramp(0.0, 1.0, 10.0),
        pat.bursty(0.1, 0.9, 0.3, rng),
        pat.spike_train(0.0, 1.0, 100.0, 10.0),
        pat.composite([pat.constant(0.1)]),
        pat.with_noise(pat.constant(0.1), 0.1, rng),
    ]
    for _ in range(20):
        demand = DemandModel(rng).demand_for(flavor, PROFILES[name])
        built += [demand.cpu_pattern, demand.mem_pattern]
    for pattern in built:
        for record in _records(pattern):
            assert not hasattr(record, "__dict__"), type(record).__name__


def test_demand_for_memory_per_vm():
    """A VM's demand model stays small: at most 1.5 KB a VM, traced over
    2,000 VMs (closures took about 3.6 KB)."""
    flavors = list(default_catalog())
    model = DemandModel(np.random.default_rng(1))
    model.demand_for(flavors[0])  # first-call caches outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        demands = [model.demand_for(flavors[i % len(flavors)]) for i in range(2000)]
        per_vm = (tracemalloc.get_traced_memory()[0] - before) / len(demands)
    finally:
        tracemalloc.stop()
    assert per_vm <= 1536, f"{per_vm:.0f} bytes per VM"
