"""Scalar fast-path evaluation of per-VM demand waveforms.

The simulation's scrape loop evaluates every VM's demand at a single
timestamp, once per 900 s tick.  The vectorised pattern closures in
:mod:`repro.workloads.patterns` are built for timestamp *grids*; calling
them with one-element arrays allocates half a dozen temporaries plus a
:class:`~repro.workloads.demand.DemandSnapshot` per VM per tick, which
dominated the cost of a long simulation.

:func:`compile_demand` turns one :class:`~repro.workloads.demand.VMDemand`
into a :class:`CompiledDemand` whose ``evaluate(t)`` returns plain floats
and is bit-identical to ``demand.evaluate(np.asarray([t]))`` — including
RNG stream consumption, so a simulation run stays byte-identical to the
per-sample reference in :mod:`repro.verify.reference`.  The compiler
reads the ``basis`` metadata the pattern factories attach:

- phase-free shapes (``constant``; ``ramp``, which always reports its
  start level at single-timestamp evaluation because progress is measured
  from ``ts[0]``) collapse to a precomputed constant;
- shapes built from exact IEEE ops (``weekly``, ``spike``: fmod, floor,
  comparisons, multiply/add) are re-derived as scalar expressions —
  Python floats and float64 share the same operations bit for bit;
- ``diurnal`` depends on ``np.exp``, which does **not** round identically
  to ``math.exp`` on every host, so it is served from a per-pattern
  waveform table keyed by day phase (``t % 86400``, exact for positive
  operands); misses call the original numpy closure and memoise the
  result.  The closure reads nothing but the day phase, so equal phases
  give equal bits for *any* timestamp;
- ``bursty`` draws one uniform per evaluation (``ceil(1/correlation)`` is
  1), replicated as a scalar draw — scalar and size-1 Generator draws
  advance the stream identically;
- ``noise`` adds a scalar Gaussian and clips with branches, which matches
  ``np.clip`` bitwise (including the ``-0.0`` corner: np.clip keeps it);
- anything without usable metadata (hand-written closures in tests) falls
  back to calling the closure with a one-element array, which is always
  correct, just not fast.

Invalidation is by identity: the simulation keeps one ``CompiledDemand``
per VM and recompiles whenever the registered :class:`VMDemand` object is
replaced (create, resize) and drops the entry on delete, so a stale table
can never serve a new waveform.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.workloads.demand import VMDemand
from repro.workloads.patterns import SECONDS_PER_DAY

_DAY = float(SECONDS_PER_DAY)

#: Hard cap on one waveform table.  Simulation timestamps land on the
#: scrape/DRS grids, so a day-periodic pattern sees at most
#: 86400/gcd(intervals) distinct phases (96 at the default 900 s); the cap
#: only guards pathological callers that sweep arbitrary timestamps.
TABLE_CAP = 1024

ScalarPattern = Callable[[float], float]


def _fallback(pattern) -> ScalarPattern:
    """Call the vectorised closure with a one-element grid (always exact)."""

    def fn(t: float) -> float:
        return float(pattern(np.asarray([t], dtype=float))[0])

    return fn


def _memoized_by_day_phase(pattern) -> ScalarPattern:
    """Waveform table for day-periodic transcendental patterns.

    The value must come from the original numpy closure: ``np.exp`` and
    ``math.exp`` differ in the last ulp on some hosts, and the fast path
    promises byte-identical telemetry.  ``%`` is exact for positive
    operands, so the phase key loses no information.
    """
    table: dict[float, float] = {}

    def fn(t: float) -> float:
        phase = t % _DAY
        v = table.get(phase)
        if v is None:
            if len(table) >= TABLE_CAP:
                table.clear()
            v = table[phase] = float(pattern(np.asarray([t], dtype=float))[0])
        return v

    return fn


def compile_pattern(pattern) -> ScalarPattern:
    """A scalar evaluator bit-identical to ``pattern(np.asarray([t]))[0]``."""
    basis = getattr(pattern, "basis", None)
    if basis is None:
        return _fallback(pattern)
    kind = basis[0]

    if kind == "constant":
        level = float(basis[1])
        return lambda t: level

    if kind == "ramp":
        # Single-timestamp grids measure progress from ts[0], i.e. zero:
        # the closure always answers its start level.
        start = float(basis[1])
        return lambda t: start

    if kind == "weekly":
        weekday_scale = float(basis[1])
        weekend_scale = float(basis[2])

        def weekly_fn(t: float) -> float:
            day_index = (int(math.floor(t / _DAY)) + 3) % 7  # 0 = Monday
            return weekend_scale if day_index >= 5 else weekday_scale

        return weekly_fn

    if kind == "spike":
        base, spike_level, period, spike_width, phase = (
            float(x) for x in basis[1:]
        )

        def spike_fn(t: float) -> float:
            return spike_level if ((t + phase) % period) < spike_width else base

        return spike_fn

    if kind == "diurnal":
        return _memoized_by_day_phase(pattern)

    if kind == "bursty":
        rng = getattr(pattern, "rng", None)
        if rng is None:
            return _fallback(pattern)
        base = float(basis[1])
        burst_level = float(basis[2])
        burst_probability = float(basis[3])

        def bursty_fn(t: float) -> float:
            # One Bernoulli per evaluation: ceil(1/correlation) == 1, and
            # a scalar uniform advances the stream exactly like random(1).
            return burst_level if rng.random() < burst_probability else base

        return bursty_fn

    if kind == "composite":
        children = getattr(pattern, "children", None)
        if children is None:
            return _fallback(pattern)
        mode = basis[1]
        fns = tuple(compile_pattern(p) for p in children)

        if mode == "max":

            def max_fn(t: float) -> float:
                v = fns[0](t)
                for f in fns[1:]:
                    w = f(t)
                    if w > v:
                        v = w
                return v

            return max_fn

        if mode == "sum":

            def sum_fn(t: float) -> float:
                v = fns[0](t)
                for f in fns[1:]:
                    v = v + f(t)
                if v < 0.0:
                    return 0.0
                if v > 1.0:
                    return 1.0
                return v

            return sum_fn

        def prod_fn(t: float) -> float:
            v = fns[0](t)
            for f in fns[1:]:
                v = v * f(t)
            return v

        return prod_fn

    if kind == "noise":
        inner = getattr(pattern, "inner", None)
        rng = getattr(pattern, "rng", None)
        if inner is None or rng is None:
            return _fallback(pattern)
        sigma = pattern.sigma
        inner_fn = compile_pattern(inner)

        def noise_fn(t: float) -> float:
            v = inner_fn(t) + rng.normal(0.0, sigma)
            if v < 0.0:
                return 0.0
            if v > 1.0:
                return 1.0
            return v

        return noise_fn

    return _fallback(pattern)


class CompiledDemand:
    """Scalar twin of one VM's :class:`VMDemand`.

    ``evaluate(t)`` returns ``(cpu_cores, memory_mb, network_tx_kbps,
    network_rx_kbps, disk_gb)`` as plain floats, bit-identical to the
    corresponding columns of ``demand.evaluate(np.asarray([t]))`` and
    consuming the shared RNG stream in the same order (cpu base draws,
    cpu noise, mem base draws, mem noise).
    """

    __slots__ = (
        "demand",
        "_cpu_fn",
        "_mem_fn",
        "_vcpus",
        "_ram_mb",
        "_net_rate",
        "_disk_gb",
    )

    def __init__(self, demand: VMDemand) -> None:
        self.demand = demand
        self._cpu_fn = compile_pattern(demand.cpu_pattern)
        self._mem_fn = compile_pattern(demand.mem_pattern)
        self._vcpus = demand.flavor.vcpus
        self._ram_mb = demand.flavor.ram_mb
        # Same association order as VMDemand.evaluate's product.
        self._net_rate = (
            demand.network_activity
            * demand.profile.network_kbps_per_vcpu
            * demand.flavor.vcpus
        )
        self._disk_gb = demand.disk_used_fraction * demand.flavor.disk_gb

    def evaluate(self, t: float) -> tuple[float, float, float, float, float]:
        cpu = self._cpu_fn(t)
        if cpu < 0.0:
            cpu = 0.0
        elif cpu > 1.0:
            cpu = 1.0
        mem = self._mem_fn(t)
        if mem < 0.0:
            mem = 0.0
        elif mem > 1.0:
            mem = 1.0
        net = self._net_rate * cpu
        return (
            cpu * self._vcpus,
            mem * self._ram_mb,
            net,
            net * 0.8,
            self._disk_gb,
        )


def compile_demand(demand: VMDemand) -> CompiledDemand:
    """Compile one VM's demand model for scalar single-timestamp evaluation."""
    return CompiledDemand(demand)
