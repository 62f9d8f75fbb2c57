"""Exactness of the table's reads, one VM at a time
(repro.workloads.waveform.DemandTable).

The table turns each VM's demand into a parameter row (its compiled
form) and reads it with array ops; a VM without a row is read by its own
``VMDemand.evaluate`` on a one-element grid.  That call is also the
reference: every read must equal it *bitwise*, not approximately, or the
simulation's telemetry fingerprint moves.  These properties pin the
contract one shape at a time, at the inputs where a rounding or
day-boundary slip would first show: a dense diurnal grid, weekly day
boundaries, repeated and non-monotonic reads, a replaced demand, and the
opaque fallbacks.  ``tests/test_demand_batch.py`` holds the same contract
for mixed batches.

The table and the reference consume the shared pattern RNG in the same
draw order, so each comparison builds two demand objects from
identically seeded generators and walks them through the same tick
sequence in lockstep.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.workloads import patterns, waveform
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES

_FLAVOR_NAMES = ("g_c2_m8", "g_c8_m32", "g_c16_m128")
_PROFILE_NAMES = tuple(PROFILES)


def _legacy_tuple(demand, t):
    """One tick through the reference numpy path, as the 5-tuple."""
    snap = demand.evaluate(np.asarray([t], dtype=float))
    return (
        float(snap.cpu_cores[0]),
        float(snap.memory_mb[0]),
        float(snap.network_tx_kbps[0]),
        float(snap.network_rx_kbps[0]),
        float(snap.disk_gb[0]),
    )


class _OneVM:
    """A :class:`~repro.workloads.waveform.DemandTable` holding one VM,
    read one timestamp at a time."""

    def __init__(self, demand):
        rng = getattr(demand.cpu_pattern, "rng", None)
        self.table = waveform.DemandTable(rng or np.random.default_rng(0))
        self.slot = self.table.put("vm", demand)

    def put(self, demand):
        assert self.table.put("vm", demand) == self.slot

    def evaluate(self, t):
        return tuple(self.table.evaluate([self.slot], t)[:, 0].tolist())


def _demand_pair(seed, flavor_name, profile_name, cpu_pattern=None):
    """Two identical demand objects on independent, identically-seeded
    RNGs; ``cpu_pattern(rng)``, when given, replaces the profile's."""
    flavor = default_catalog().get(flavor_name)
    profile = PROFILES[profile_name]
    out = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        demand = DemandModel(rng).demand_for(flavor, profile)
        if cpu_pattern is not None:
            demand = dataclasses.replace(demand, cpu_pattern=cpu_pattern(rng))
        out.append(demand)
    return out


def _noisy_diurnal(base, swing, peak_hour, width_hours, weekend_scale=1.0):
    """A profile-shaped cpu channel: diurnal × weekly under noise."""

    def build(rng):
        shape = patterns.composite(
            [
                patterns.diurnal(
                    base=base, peak=base + swing, peak_hour=peak_hour, width_hours=width_hours
                ),
                patterns.weekly(weekday_scale=1.0, weekend_scale=weekend_scale),
            ],
            mode="product",
        )
        return patterns.with_noise(shape, 0.02, rng)

    return build


def _assert_lockstep(reference, subject, times):
    """The table's reads of ``subject`` equal the reference reads of
    ``reference`` at each of ``times``, and the generators stay level."""
    one = _OneVM(subject)
    assert waveform._demand_row(subject, one.table.rng) is not None
    for t in times:
        # Plain == is bitwise for floats except NaN (never produced here).
        assert one.evaluate(t) == _legacy_tuple(reference, t), t
    assert reference.cpu_pattern.rng.random() == one.table.rng.random()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    flavor_name=st.sampled_from(_FLAVOR_NAMES),
    profile_name=st.sampled_from(_PROFILE_NAMES),
    start=st.floats(min_value=0.0, max_value=30 * 86_400.0),
    interval=st.floats(min_value=1.0, max_value=7200.0),
    ticks=st.integers(min_value=1, max_value=48),
)
def test_compiled_demand_bitwise_equal_at_every_tick(
    seed, flavor_name, profile_name, start, interval, ticks
):
    reference, subject = _demand_pair(seed, flavor_name, profile_name)
    one = _OneVM(subject)
    for i in range(ticks):
        t = start + i * interval
        expected = _legacy_tuple(reference, t)
        got = one.evaluate(t)
        assert got == expected, (t, got, expected)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    profile_name=st.sampled_from(_PROFILE_NAMES),
    switch_at=st.integers(min_value=1, max_value=20),
)
def test_compiled_demand_exact_across_recompile_boundary(
    seed, profile_name, switch_at
):
    """Resize: the new demand object is put in the VM's slot and must stay
    exact from its first read; the table is identity-keyed, so the swap
    point is where a stale row would first diverge."""
    catalog = default_catalog()
    worlds = []
    for _ in range(2):
        # Both demands from one generator per world, as a resize draws them.
        model = DemandModel(np.random.default_rng(seed))
        worlds.append(
            [
                model.demand_for(catalog.get(flavor), PROFILES[profile_name])
                for flavor in ("g_c2_m8", "g_c16_m128")
            ]
        )
    (ref_old, ref_new), (sub_old, sub_new) = worlds

    one = _OneVM(sub_old)
    reference, subject = ref_old, sub_old
    for i in range(switch_at + 10):
        if i == switch_at:
            reference, subject = ref_new, sub_new
        t = 1800.0 * i
        if one.table.get("vm") is not subject:
            one.put(subject)
        assert one.evaluate(t) == _legacy_tuple(reference, t)


@settings(max_examples=60, deadline=None)
@given(
    base=st.floats(min_value=0.0, max_value=0.8),
    swing=st.floats(min_value=0.0, max_value=0.7),
    peak_hour=st.floats(min_value=0.0, max_value=24.0),
    width_hours=st.floats(min_value=0.25, max_value=12.0),
    times=st.lists(
        st.floats(min_value=0.0, max_value=400 * 86_400.0), min_size=1, max_size=40
    ),
)
def test_scalar_diurnal_equals_closure(base, swing, peak_hour, width_hours, times):
    """The table's diurnal (``z * z`` for ``** 2``, array ``np.exp``) read
    at single timestamps must match the numpy closure bit for bit."""
    build = _noisy_diurnal(base, swing, peak_hour, width_hours)
    reference, subject = _demand_pair(0, "g_c8_m32", "general", build)
    _assert_lockstep(reference, subject, times)


def test_scalar_diurnal_exact_on_a_dense_day_grid():
    """A phase every 5 s across one day, for profile-like parameters:
    every phase the simulation's 900 s ticks land on, and many more."""
    build = _noisy_diurnal(0.21, 0.66, 11.3, 3.7)
    reference, subject = _demand_pair(1, "g_c8_m32", "general", build)
    _assert_lockstep(reference, subject, np.arange(0.0, 86_400.0, 5.0).tolist())


@pytest.mark.parametrize("profile_name", _PROFILE_NAMES)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=0.0, max_value=30 * 86_400.0),
    t2=st.floats(min_value=0.0, max_value=30 * 86_400.0),
)
def test_repeated_and_non_monotonic_reads_stay_exact(profile_name, seed, t, t2):
    """Reads at (t, t, t2, t), as a DRS pass and the next scrape make them:
    every repeated read must draw fresh noise exactly like the numpy path,
    and nothing of one timestamp's read may leak into another's."""
    reference, subject = _demand_pair(seed, "g_c8_m32", profile_name)
    _assert_lockstep(reference, subject, (t, t, t2, t, t2, t2))


def test_weekly_exact_on_day_boundaries():
    """Day-boundary ticks are where a floor-division discrepancy in the
    weekend test would bite."""
    build = _noisy_diurnal(0.3, 0.4, 10.0, 4.0, weekend_scale=0.3)
    reference, subject = _demand_pair(2, "g_c8_m32", "general", build)
    times = [
        day * 86_400.0 + nudge
        for day in range(21)
        for nudge in (-0.001, 0.0, 0.001)
        if day * 86_400.0 + nudge >= 0
    ]
    one = _OneVM(subject)
    assert waveform._demand_row(subject, one.table.rng) is not None
    for t in times:
        got = one.evaluate(t)
        assert got == _legacy_tuple(reference, t), t
        assert all(math.isfinite(v) for v in got)


def test_unknown_pattern_falls_back_to_closure():
    """A closure without ``basis`` gets no row: the table reads the VM
    through its own ``evaluate``."""

    def custom(ts):
        return np.full(len(np.asarray(ts)), 0.5)

    (_, subject) = _demand_pair(3, "g_c2_m8", "general", lambda rng: custom)
    one = _OneVM(subject)
    assert waveform._demand_row(subject, one.table.rng) is None
    assert one.evaluate(123.0)[0] == 0.5 * subject.flavor.vcpus


def test_nested_noise_falls_back_exactly():
    """Only a channel's top-level noise has a row; a noise pattern inside
    a composite is read through the VM's own ``evaluate``, and must still
    draw and round exactly like the closure."""

    def build(rng):
        return patterns.composite(
            [patterns.with_noise(patterns.diurnal(0.2, 0.8), 0.05, rng),
             patterns.weekly(1.0, 0.6)],
            mode="product",
        )

    reference, subject = _demand_pair(5, "g_c2_m8", "general", build)
    table = waveform.DemandTable(subject.mem_pattern.rng)
    slot = table.put("vm", subject)
    assert waveform._demand_row(subject, table.rng) is None
    for t in (0.0, 900.0, 900.0, 40_000.0, 900.0):
        got = tuple(table.evaluate([slot], t)[:, 0].tolist())
        assert got == _legacy_tuple(reference, t), t


@pytest.mark.parametrize("profile_name", _PROFILE_NAMES)
def test_every_builtin_profile_compiles_exactly(profile_name):
    """Every profile's pattern mix gets a row, and reads exactly."""
    reference, subject = _demand_pair(42, "g_c8_m32", profile_name)
    _assert_lockstep(reference, subject, [900.0 * i for i in range(96)])
