"""Scalar fast-path evaluation of per-VM demand waveforms.

The simulation reads every VM's demand at a single timestamp: once per
900 s scrape tick, and again for every DRS ``load_fn`` call at the pass's
``now``.  The vectorised pattern closures in
:mod:`repro.workloads.patterns` are built for timestamp *grids*; calling
them with one-element arrays allocates half a dozen temporaries plus a
:class:`~repro.workloads.demand.DemandSnapshot` per VM per read.

:func:`compile_demand` turns one :class:`~repro.workloads.demand.VMDemand`
into a :class:`CompiledDemand` whose ``evaluate(t)`` returns plain floats
and is bit-identical to ``demand.evaluate(np.asarray([t]))`` — including
RNG stream consumption, so a simulation run stays byte-identical to the
per-sample reference in :mod:`repro.verify.reference`.  The compiler
reads the ``basis`` metadata the pattern factories attach:

- phase-free shapes (``constant``; ``ramp``, which always reports its
  start level at single-timestamp evaluation because progress is measured
  from ``ts[0]``) collapse to a precomputed constant;
- ``weekly`` and ``spike`` (fmod, floor, comparisons) and ``diurnal``
  are re-derived as scalar expressions on Python floats, which share
  float64's operations bit for bit.  The diurnal's ``** 2`` becomes
  ``z * z`` (what numpy's square fast path computes), ``np.minimum`` a
  branch, and its ``exp`` stays ``np.exp`` on a Python float: the
  scalar ufunc rounds like the one-element array call, whereas
  ``math.exp`` differs from it in the last ulp on some inputs;
- ``bursty`` draws one uniform per evaluation (``ceil(1/correlation)`` is
  1), replicated as a scalar draw — scalar and size-1 Generator draws
  advance the stream identically;
- anything without usable metadata (hand-written closures in tests) falls
  back to calling the closure with a one-element array, which is always
  correct, just not fast.

:class:`CompiledDemand` handles each channel's top-level ``noise`` itself:
it keeps the inner pattern's scalar function, the noise sigma and the
bound ``rng.normal``, so a read is the base call, one scalar Gaussian and
two clip branches.  The branches match ``np.clip`` bitwise, including the
``-0.0`` corner (np.clip keeps it).  A nested ``noise``, which no profile
builds, takes the one-element fallback.  Bases and noise run on every
read, so the count and order of shared-RNG draws are exactly those of the
numpy path.

Invalidation is by identity: the simulation keeps one ``CompiledDemand``
per VM and recompiles whenever the registered :class:`VMDemand` object is
replaced (create, resize) and drops the entry when the VM leaves.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.workloads.demand import VMDemand
from repro.workloads.patterns import SECONDS_PER_DAY

_DAY = float(SECONDS_PER_DAY)

ScalarPattern = Callable[[float], float]

def _fallback(pattern) -> ScalarPattern:
    """Call the vectorised closure with a one-element grid (always exact)."""

    def fn(t: float) -> float:
        return float(pattern(np.asarray([t], dtype=float))[0])

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
        base, peak, peak_hour, width_hours = (float(x) for x in basis[1:])
        swing = peak - base

        def diurnal_fn(t: float) -> float:
            # The closure's expression, operation for operation.
            hour = (t % _DAY) / 3600.0
            a = abs(hour - peak_hour)
            b = 24.0 - a
            z = (a if a <= b else b) / width_hours
            return base + swing * float(np.exp(-0.5 * (z * z)))

        return diurnal_fn

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

    return _fallback(pattern)


def _split_noise(pattern) -> tuple[object, float, Callable | None]:
    """``(base, sigma, normal)`` for one demand channel.

    A top-level ``noise`` pattern splits into its inner pattern and the
    bound ``rng.normal`` that perturbs it; any other pattern is its own
    base with no noise (``normal`` is None).
    """
    basis = getattr(pattern, "basis", None)
    inner = getattr(pattern, "inner", None)
    rng = getattr(pattern, "rng", None)
    if basis is not None and basis[0] == "noise" and inner is not None and rng is not None:
        return inner, pattern.sigma, rng.normal
    return pattern, 0.0, None


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
        "_cpu_base",
        "_cpu_sigma",
        "_cpu_normal",
        "_mem_base",
        "_mem_sigma",
        "_mem_normal",
        "_vcpus",
        "_ram_mb",
        "_net_rate",
        "_disk_gb",
    )

    def __init__(self, demand: VMDemand) -> None:
        self.demand = demand
        cpu_base, self._cpu_sigma, self._cpu_normal = _split_noise(demand.cpu_pattern)
        self._cpu_base = compile_pattern(cpu_base)
        mem_base, self._mem_sigma, self._mem_normal = _split_noise(demand.mem_pattern)
        self._mem_base = compile_pattern(mem_base)
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
        cpu = self._cpu_base(t)
        if self._cpu_normal is not None:
            cpu = cpu + self._cpu_normal(0.0, self._cpu_sigma)
        if cpu < 0.0:
            cpu = 0.0
        elif cpu > 1.0:
            cpu = 1.0
        mem = self._mem_base(t)
        if self._mem_normal is not None:
            mem = mem + self._mem_normal(0.0, self._mem_sigma)
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
