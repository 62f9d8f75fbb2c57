"""Exactness of the compiled scalar waveform path (repro.workloads.waveform).

The columnar scrape fast-path replaces per-VM ``VMDemand.evaluate`` (numpy
array in, Sample list out) with :class:`CompiledDemand` scalar closures.
The contract is *bitwise* equality, not approximate: the simulation's
telemetry fingerprint must not move by a single byte when the fast path is
enabled.  These properties pin that contract directly, including across
recompilation (resize) boundaries.

Both paths consume the shared pattern RNG in the same draw order, so the
comparison builds two demand objects from identically seeded generators and
walks them through the same tick sequence in lockstep.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.workloads import patterns
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES
from repro.workloads.waveform import (
    CompiledDemand,
    compile_demand,
    compile_pattern,
)

_FLAVOR_NAMES = ("g_c2_m8", "g_c8_m32", "g_c16_m128")
_PROFILE_NAMES = tuple(PROFILES)


def _legacy_tuple(demand, t):
    """One tick through the original numpy path, as the scalar 5-tuple."""
    snap = demand.evaluate(np.asarray([t], dtype=float))
    return (
        float(snap.cpu_cores[0]),
        float(snap.memory_mb[0]),
        float(snap.network_tx_kbps[0]),
        float(snap.network_rx_kbps[0]),
        float(snap.disk_gb[0]),
    )


def _demand_pair(seed, flavor_name, profile_name):
    """Two identical demand objects on independent, identically-seeded RNGs."""
    flavor = default_catalog().get(flavor_name)
    profile = PROFILES[profile_name]
    out = []
    for _ in range(2):
        model = DemandModel(np.random.default_rng(seed))
        out.append(model.demand_for(flavor, profile))
    return out


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
    compiled = compile_demand(subject)
    for i in range(ticks):
        t = start + i * interval
        expected = _legacy_tuple(reference, t)
        got = compiled.evaluate(t)
        # Plain == is bitwise for floats except NaN (never produced here);
        # any rounding difference between the numpy and scalar paths is a
        # real fingerprint break, not test noise.
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
    """Resize invalidation: a fresh demand object must be recompiled and
    stay exact — the registry pattern is identity-keyed, so the swap point
    is where stale caches would first diverge."""
    ref_old, sub_old = _demand_pair(seed, "g_c2_m8", profile_name)
    ref_new, sub_new = _demand_pair(seed + 1, "g_c16_m128", profile_name)

    compiled = {"vm": compile_demand(sub_old)}
    reference, subject = ref_old, sub_old
    for i in range(switch_at + 10):
        if i == switch_at:
            reference, subject = ref_new, sub_new
        t = 1800.0 * i
        cd = compiled["vm"]
        if cd.demand is not subject:
            cd = compiled["vm"] = compile_demand(subject)
        assert cd.evaluate(t) == _legacy_tuple(reference, t)


def test_compile_demand_returns_compiled_type():
    _, subject = _demand_pair(3, "g_c8_m32", "general")
    compiled = compile_demand(subject)
    assert isinstance(compiled, CompiledDemand)
    assert compiled.demand is subject


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
    """The diurnal is re-derived on Python floats (z * z for ``** 2``, a
    branch for ``np.minimum``, scalar ``np.exp``); every value must match
    the numpy closure bit for bit."""
    pattern = patterns.diurnal(
        base=base, peak=base + swing, peak_hour=peak_hour, width_hours=width_hours
    )
    fn = compile_pattern(pattern)
    for t in times:
        assert fn(t) == float(pattern(np.asarray([t], dtype=float))[0]), t


def test_scalar_diurnal_exact_on_a_dense_day_grid():
    """A phase every 5 s across one day, for profile-like parameters:
    every phase the simulation's 900 s ticks land on, and many more."""
    pattern = patterns.diurnal(base=0.21, peak=0.87, peak_hour=11.3, width_hours=3.7)
    fn = compile_pattern(pattern)
    ts = np.arange(0.0, 86_400.0, 5.0)
    expected = [float(pattern(np.asarray([t]))[0]) for t in ts]
    assert [fn(t) for t in ts.tolist()] == expected


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
    compiled = compile_demand(subject)
    for when in (t, t, t2, t, t2, t2):
        assert compiled.evaluate(when) == _legacy_tuple(reference, when), when


def test_weekly_exact_on_day_boundaries():
    """Weekly is computed scalar-side; day-boundary ticks are where a
    floor-division discrepancy would bite."""
    pattern = patterns.weekly(weekday_scale=1.0, weekend_scale=0.3)
    fn = compile_pattern(pattern)
    for day in range(0, 21):
        for nudge in (-0.001, 0.0, 0.001):
            t = day * 86_400.0 + nudge
            if t < 0:
                continue
            expected = float(pattern(np.asarray([t], dtype=float))[0])
            assert fn(t) == expected
            assert math.isfinite(fn(t))


def test_unknown_pattern_falls_back_to_closure():
    def custom(ts):
        return np.full(len(np.asarray(ts)), 0.5)

    fn = compile_pattern(custom)
    assert fn(123.0) == 0.5


def test_nested_noise_falls_back_exactly():
    """Only a channel's top-level noise is flattened; a noise pattern
    inside a composite takes the one-element fallback and must still
    draw and round exactly like the closure."""
    rngs = [np.random.default_rng(5), np.random.default_rng(5)]
    pair = [
        patterns.composite(
            [patterns.with_noise(patterns.diurnal(0.2, 0.8), 0.05, rng),
             patterns.weekly(1.0, 0.6)],
            mode="product",
        )
        for rng in rngs
    ]
    fn = compile_pattern(pair[1])
    for t in (0.0, 900.0, 900.0, 40_000.0, 900.0):
        assert fn(t) == float(pair[0](np.asarray([t], dtype=float))[0]), t


@pytest.mark.parametrize("profile_name", _PROFILE_NAMES)
def test_every_builtin_profile_compiles_exactly(profile_name):
    """No profile's pattern mix silently hits the slow fallback wrong."""
    reference, subject = _demand_pair(42, "g_c8_m32", profile_name)
    compiled = compile_demand(subject)
    for i in range(96):
        t = 900.0 * i
        assert compiled.evaluate(t) == _legacy_tuple(reference, t)
