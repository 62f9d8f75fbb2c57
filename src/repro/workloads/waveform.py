"""Per-VM demand waveforms, read as a batch at one timestamp or over a grid.

The simulation reads every VM's demand at a single timestamp: once per
900 s scrape tick, and again for every DRS load read at the pass's
``now``.  The vectorised pattern records in
:mod:`repro.workloads.patterns` are built for timestamp *grids*; calling
them with one-element arrays allocates half a dozen temporaries plus a
:class:`~repro.workloads.demand.DemandSnapshot` per VM per read.

So the simulation reads demand through one :class:`DemandTable`.
``put(vm_id, demand)`` reads the fields of the pattern records (by
exact type) and writes a parameter *row* for the four base shapes
the profiles build (constant or ramp, diurnal × weekly, bursty,
max(constant, spike)), each under a top-level noise; the table keeps one
row per VM in numpy columns, and :meth:`DemandTable.evaluate` computes a
whole batch's bases, noise, clips and scaling as array ops.  The
scrape tick reads every resident VM in one batch, and DRS reads each
node-load pass and each source scan the same way
(``repro.simulation.runner.DrsLoad``).

A batch equals, bit for bit, ``VMDemand.evaluate`` on the one-element
grid ``[now]`` called VM by VM in slot order, and leaves the shared
generator where those calls would.  That call is the table's only
fallback and the reference the ``scrape_path`` gate compares the
simulation against (:mod:`repro.verify.reference`).  The rows rely on
what a one-element grid makes of each record:

- a ramp measures progress from ``ts[0]``, so it reads as its start
  level;
- a bursty shape draws ``ceil(1 / correlation)`` uniforms, i.e. one;
- the diurnal's ``** 2`` is what numpy's square fast path computes,
  ``z * z``; array ``np.exp`` and ``np.remainder`` equal the one-element
  calls bit for bit.

The draws keep the records' stream order (cpu shape draws, cpu noise,
mem shape draws, mem noise): each maximal run of Gaussians is one
``standard_normal`` call, scaled as ``0.0 + sigma * gauss`` (which is
what ``rng.normal(0.0, sigma)`` computes, draw for draw), a bursty
channel's uniform breaks the run, and a VM without a row (*opaque*: any
other shape, a channel without noise or on another generator, a nested
noise, a hand-written stand-in or a subclass) breaks it by calling its
own ``evaluate`` in place.  ``tests/test_demand_batch.py`` guards the numpy
facts by name, and that the batch equals the sequence of reference
reads.

Datagen evaluates every VM over its window of one sampling grid through
:func:`evaluate_windows`, from the same fields: :func:`_read_channel`
is the one reader of a channel's shape (kind, parameters, generators),
shared by the table rows and the grid blocks.  It keeps a ramp's end
level and duration and a bursty shape's correlation, which a
single-timestamp read does not use.

The simulation puts a VM's demand in its table at the VM's first read.
Every write to a VM's registered :class:`VMDemand` (create, resize,
departure) pops the entry first and frees its slot for the next VM, so
an entry present in the table is current
(``repro.simulation.runner.DemandRegistry``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.demand import VMDemand
from repro.workloads.patterns import (
    SECONDS_PER_DAY,
    Bursty,
    Composite,
    Constant,
    Diurnal,
    Noisy,
    Ramp,
    SpikeTrain,
    Weekly,
)

_DAY = float(SECONDS_PER_DAY)


def _is_weekend(t: float) -> bool:
    """The weekly pattern's day test: epoch day 0 was a Thursday."""
    return (int(math.floor(t / _DAY)) + 3) % 7 >= 5  # 0 = Monday


# -- batch rows ---------------------------------------------------------------

#: The base shapes a row holds, and the kind of a VM without a row.  A
#: single-timestamp read treats a ramp as a constant at its start level.
_CONST, _DIURNAL, _BURSTY, _SPIKE, _RAMP, _OPAQUE = 0.0, 1.0, 2.0, 3.0, 4.0, -1.0
#: Row layout: (vcpus, ram_mb, net_rate, disk_gb), then one block of
#: (kind, sigma, six shape parameters) for cpu and one for memory.
_CPU = 4
_MEM = _CPU + 8
_WIDTH = _MEM + 8


def _shape_row(base) -> tuple[float, tuple, object] | None:
    """``(kind, params, rng)`` of a base shape a row can hold, else None.

    The one reader of the pattern records' fields, shared by the table
    rows and the grid blocks (:func:`_read_channel`); it matches records
    by exact type, so any other callable (a subclass among them) stays
    opaque.  ``rng`` is the generator the shape itself draws from (bursty
    only).  Parameters: constant ``(level,)``; ramp ``(start_level,
    end_level, duration)``; diurnal × weekly ``(base, swing, peak_hour,
    width_hours, weekday_scale, weekend_scale)``; bursty ``(base,
    burst_level, burst_probability, correlation)``; max(constant, spike)
    ``(level, base, spike_level, period, spike_width, phase)``.  A
    single-timestamp read uses only the first parameter of a ramp (its
    start level, since progress is measured from ``ts[0]``) and the first
    three of a bursty.
    """
    kind = type(base)
    if kind is Constant:
        return _CONST, (float(base.level),), None
    if kind is Ramp:
        return _RAMP, (float(base.start_level), float(base.end_level), float(base.duration)), None
    if kind is Bursty and base.rng is not None:
        params = (base.base, base.burst_level, base.burst_probability, base.correlation)
        return _BURSTY, tuple(float(x) for x in params), base.rng
    if kind is Composite:
        children = base.children
        kinds = tuple(type(c) for c in children)
        if base.mode == "product" and kinds == (Diurnal, Weekly):
            day, week = children
            low = float(day.base)
            params = (
                low,
                float(day.peak) - low,
                float(day.peak_hour),
                float(day.width_hours),
                float(week.weekday_scale),
                float(week.weekend_scale),
            )
            return _DIURNAL, params, None
        if base.mode == "max" and kinds == (Constant, SpikeTrain):
            level, spike = children
            params = (
                level.level,
                spike.base,
                spike.spike_level,
                spike.period,
                spike.spike_width,
                spike.phase,
            )
            return _SPIKE, tuple(float(x) for x in params), None
    return None


def _read_channel(pattern) -> tuple[float, tuple, object, float, object] | None:
    """``(kind, params, shape_rng, sigma, noise_rng)`` of one demand
    channel that is a row shape (:func:`_shape_row`) under a top-level
    noise, else None.

    ``shape_rng`` is the generator the shape draws from (bursty only,
    else None); ``noise_rng`` the one its Gaussian noise draws from.
    """
    if type(pattern) is not Noisy:
        return None
    shape = _shape_row(pattern.inner)
    if shape is None:
        return None
    return (*shape, float(pattern.sigma), pattern.rng)


def _channel_row(pattern, rng) -> tuple | None:
    """One channel's ``(kind, sigma, *params)`` block when it is a row
    shape under a top-level noise, all drawing from ``rng``; else None."""
    channel = _read_channel(pattern)
    if channel is None:
        return None
    kind, params, shape_rng, sigma, noise_rng = channel
    if noise_rng is not rng or shape_rng is not None and shape_rng is not rng:
        return None
    return _padded(kind, sigma, params)


def _padded(kind: float, sigma: float, params: tuple) -> tuple:
    """A channel block: ``(kind, sigma)`` and six shape parameters."""
    return (kind, sigma, *params, *(0.0,) * (6 - len(params)))


def _scale(demand: VMDemand) -> tuple[float, float, float, float]:
    """``(vcpus, ram_mb, net_rate, disk_gb)``: what a VM's clipped ratios
    are multiplied by, in the association order of ``VMDemand.evaluate``'s
    products."""
    flavor = demand.flavor
    net_rate = demand.network_activity * demand.profile.network_kbps_per_vcpu * flavor.vcpus
    return flavor.vcpus, flavor.ram_mb, net_rate, demand.disk_used_fraction * flavor.disk_gb


def _demand_row(demand, rng: np.random.Generator) -> tuple | None:
    """``demand``'s :class:`DemandTable` row, read from the fields of
    its pattern records, or None (*opaque*) unless it is a
    :class:`VMDemand` whose two channels are row shapes drawing only from
    ``rng``."""
    if type(demand) is not VMDemand:
        return None
    cpu = _channel_row(demand.cpu_pattern, rng)
    mem = _channel_row(demand.mem_pattern, rng)
    if cpu is None or mem is None:
        return None
    return (*_scale(demand), *cpu, *mem)


def _columns(snapshot) -> list[np.ndarray]:
    """A snapshot's five resource columns, in the table's row order."""
    return [
        snapshot.cpu_cores,
        snapshot.memory_mb,
        snapshot.network_tx_kbps,
        snapshot.network_rx_kbps,
        snapshot.disk_gb,
    ]


def _evaluate_one(demand, t: float) -> list:
    """How the table reads an opaque VM: ``demand.evaluate`` on the
    one-element grid ``[t]``, as five values."""
    return [c[0] for c in _columns(demand.evaluate(np.asarray([t], dtype=float)))]


def _channel_values(block, noise, uniforms, t: float, hour: float, weekend: bool):
    """Clipped ratios of channel blocks (cpu and mem alike) at one
    timestamp: each record's expression on a one-element grid, as array
    ops over the blocks."""
    kind = block[:, 0]
    p = block[:, 2:]
    base = p[:, 0].copy()  # constant and ramp: the (start) level
    sel = (kind == _DIURNAL).nonzero()[0]
    if sel.size:
        q = p[sel]
        a = np.abs(hour - q[:, 2])
        z = np.minimum(a, 24.0 - a) / q[:, 3]
        bump = np.exp(-0.5 * (z * z))
        base[sel] = (q[:, 0] + q[:, 1] * bump) * q[:, 5 if weekend else 4]
    sel = (kind == _BURSTY).nonzero()[0]
    if sel.size:
        q = p[sel]
        base[sel] = np.where(uniforms[sel] < q[:, 2], q[:, 1], q[:, 0])
    sel = (kind == _SPIKE).nonzero()[0]
    if sel.size:
        q = p[sel]
        in_spike = np.remainder(t + q[:, 5], q[:, 3]) < q[:, 4]
        spike = np.where(in_spike, q[:, 2], q[:, 1])
        base[sel] = np.where(spike > q[:, 0], spike, q[:, 0])
    x = base + noise
    x = np.where(x < 0.0, 0.0, x)
    return np.where(x > 1.0, 1.0, x)


# -- grid blocks --------------------------------------------------------------

#: Byte budget of a block's largest temporary in :func:`evaluate_windows`,
#: its float64 resource rows (five per demand, each as wide as the block's
#: windows).  The block size follows the grid: 36 demands over a 30-day
#: grid at 1800 s sampling, 6 at the paper's 300 s, and at least one.
_GRID_BLOCK_BYTES = 2 << 20


def _block_demands(n_points: int) -> int:
    """Demands per block over a grid of ``n_points`` timestamps."""
    return max(1, _GRID_BLOCK_BYTES // (5 * 8 * max(1, n_points)))


def evaluate_windows(demands, windows, grid):
    """Yield ``(cpu_ratio, memory_ratio, columns)`` for each of ``demands``
    over its window of ``grid``, in order.

    A window is ``(i0, i1)`` with ``i0 < i1``, the slice ``grid[i0:i1]``;
    an array of timestamps instead is evaluated by the demand's own
    ``evaluate`` at its place in the walk.  ``columns`` are the five
    resource rows ``(cpu_cores, memory_mb, network_tx_kbps,
    network_rx_kbps, disk_gb)``, writable: a view of the block, or the
    list of a snapshot's own arrays (so in-place scaling keeps their
    dtype).  Everything equals, bit for bit, ``demand.evaluate`` called on
    each window in turn, and leaves every generator where those calls
    would.

    Demands go in blocks of :func:`_block_demands`, each drawn when its
    first result is asked for; the blocks only group the second pass, so
    they do not move a draw.  A first pass walks the block drawing each
    demand's randomness exactly as its pattern records do: per channel
    (cpu, then memory) a bursty shape's uniforms, then the noise
    Gaussians, straight into the channel's row of the block.  A demand :func:`_grid_channels`
    cannot read calls its own ``evaluate`` at that point of the walk.  A
    second pass evaluates each base shape for all of its rows in one
    broadcast op (:func:`_grid_bases`), and one noise add, one clip and
    one scaling cover the block.
    """
    grid = np.asarray(grid, dtype=float)
    # The diurnal and weekly records' hour of day and weekend flag.
    hour = (grid % SECONDS_PER_DAY) / 3600.0
    weekend = (np.floor(grid / SECONDS_PER_DAY).astype(int) + 3) % 7 >= 5
    block = _block_demands(len(grid))
    for c0 in range(0, len(demands), block):
        c1 = c0 + block
        yield from _evaluate_block(demands[c0:c1], windows[c0:c1], grid, hour, weekend)


def _grid_channels(demand) -> tuple | None:
    """Both channels' :func:`_read_channel` tuples when a grid block can
    reproduce them, else None."""
    if type(demand) is not VMDemand:
        return None
    channels = (_read_channel(demand.cpu_pattern), _read_channel(demand.mem_pattern))
    for channel in channels:
        if channel is None:
            return None
        kind, params, shape_rng, _sigma, noise_rng = channel
        if not isinstance(noise_rng, np.random.Generator):
            return None
        if kind == _BURSTY and not (
            isinstance(shape_rng, np.random.Generator)
            and params[3] >= 1.0
            and params[3].is_integer()
        ):
            # np.repeat truncates a fractional correlation; leave it to
            # the record.
            return None
    return channels


def _evaluate_block(demands, windows, grid, hour, weekend):
    """:func:`evaluate_windows` for one block."""
    n = len(demands)
    spans = [w for w in windows if not isinstance(w, np.ndarray)]
    lo = min((i0 for i0, _ in spans), default=0)
    width = max((i1 for _, i1 in spans), default=lo) - lo
    gauss = np.zeros((2 * n, width))
    uniforms = None
    # Per channel row: its channel block (:func:`_padded`), then the
    # window's first block column and first timestamp.  Rows not
    # evaluated here stay constant zero.
    table = [(*_padded(_CONST, 0.0, ()), 0, 0.0)] * (2 * n)
    scale = [(0.0, 0.0, 0.0, 0.0)] * n
    own = {}  # position -> snapshot of a demand evaluated by itself
    for r, (demand, window) in enumerate(zip(demands, windows)):
        if isinstance(window, np.ndarray):
            own[r] = demand.evaluate(window)
            continue
        i0, i1 = window
        channels = _grid_channels(demand)
        if channels is None:
            own[r] = demand.evaluate(grid[i0:i1])
            continue
        a, b = i0 - lo, i1 - lo
        for j, (kind, params, shape_rng, sigma, noise_rng) in zip((2 * r, 2 * r + 1), channels):
            if kind == _BURSTY:
                if uniforms is None:
                    uniforms = np.zeros((2 * n, width))
                # ceil(window / correlation) draws, as the record takes.
                shape_rng.random(out=uniforms[j, : -(-(b - a) // int(params[3]))])
            noise_rng.standard_normal(out=gauss[j, a:b])
            table[j] = (*_padded(kind, sigma, params), a, float(grid[i0]))
        scale[r] = _scale(demand)

    if len(own) < n:
        rows = np.array(table)
        span = slice(lo, lo + width)
        ratio = _grid_bases(rows, grid[span], hour[span], weekend[span], uniforms)
        # ``rng.normal(0.0, sigma, n)`` is ``0.0 + sigma * gauss``, draw
        # for draw; the noisy record then adds and clips.
        np.multiply(rows[:, 1:2], gauss, out=gauss)
        gauss += 0.0
        ratio += gauss
        np.clip(ratio, 0.0, 1.0, out=ratio)
        cpu = ratio[0::2]
        vcpus, ram_mb, net_rate, disk_gb = (c[:, None] for c in np.array(scale).T)
        resources = np.empty((n, 5, width))
        np.multiply(cpu, vcpus, out=resources[:, 0])
        np.multiply(ratio[1::2], ram_mb, out=resources[:, 1])
        np.multiply(net_rate, cpu, out=resources[:, 2])
        np.multiply(resources[:, 2], 0.8, out=resources[:, 3])
        resources[:, 4] = disk_gb

    for r, window in enumerate(windows):
        snapshot = own.get(r)
        if snapshot is not None:
            yield snapshot.cpu_ratio, snapshot.memory_ratio, _columns(snapshot)
            continue
        w = slice(window[0] - lo, window[1] - lo)
        yield ratio[2 * r, w], ratio[2 * r + 1, w], resources[r, :, w]


def _grid_bases(rows, ts, hour, weekend, uniforms) -> np.ndarray:
    """Base shape of every block row over ``ts`` (at hours of day ``hour``,
    weekend flags ``weekend``), one broadcast op per kind, each the
    record's expression operation for operation."""
    kind = rows[:, 0]
    p = rows[:, 2:8]
    base = np.empty((len(rows), len(ts)))
    sel = np.flatnonzero(kind == _CONST)
    if sel.size:
        base[sel] = p[sel, 0:1]
    sel = np.flatnonzero(kind == _RAMP)
    if sel.size:
        q = p[sel]
        # Progress from the window's first timestamp (the record's ts[0]).
        progress = np.clip((ts - rows[sel, 9:10]) / q[:, 2:3], 0.0, 1.0)
        base[sel] = q[:, 0:1] + (q[:, 1:2] - q[:, 0:1]) * progress
    sel = np.flatnonzero(kind == _DIURNAL)
    if sel.size:
        q = p[sel]
        a = np.abs(hour - q[:, 2:3])
        z = np.minimum(a, 24.0 - a) / q[:, 3:4]
        diurnal = q[:, 0:1] + q[:, 1:2] * np.exp(-0.5 * (z * z))
        base[sel] = diurnal * np.where(weekend, q[:, 5:6], q[:, 4:5])
    sel = np.flatnonzero(kind == _BURSTY)
    if sel.size:
        q = p[sel]
        # Sample k of a window reads uniform k // correlation.
        k = np.arange(len(ts)) - rows[sel, 8:9].astype(int)
        pick = np.clip(k // q[:, 3:4].astype(int), 0, len(ts) - 1)
        burst = np.take_along_axis(uniforms[sel], pick, axis=1) < q[:, 2:3]
        base[sel] = np.where(burst, q[:, 1:2], q[:, 0:1])
    sel = np.flatnonzero(kind == _SPIKE)
    if sel.size:
        q = p[sel]
        in_spike = np.remainder(ts + q[:, 5:6], q[:, 3:4]) < q[:, 4:5]
        spike = np.where(in_spike, q[:, 2:3], q[:, 1:2])
        base[sel] = np.maximum(q[:, 0:1], spike)
    return base


class DemandTable:
    """Every read VM's :class:`VMDemand`, and its row in one numpy table.

    A registry ``vm_id -> demand`` (``get``, ``in``, iteration, ``pop``)
    that also gives each VM a *slot*, a row of :attr:`rows`; a popped
    VM's slot goes to a free list for the next VM.  A demand without a
    row for the table's generator (:func:`_demand_row`) is *opaque*:
    :meth:`evaluate` reads it through its own ``evaluate``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._demands: dict[str, object] = {}
        #: vm_id -> slot.
        self.slots: dict[str, int] = {}
        self._by_slot: list = []  # slot -> demand, None when free
        self._free: list[int] = []
        self.rows = np.zeros((64, _WIDTH))
        self.get = self._demands.get

    def __contains__(self, vm_id) -> bool:
        return vm_id in self._demands

    def __iter__(self):
        return iter(self._demands)

    def __len__(self) -> int:
        return len(self._demands)

    def put(self, vm_id: str, demand) -> int:
        """Register ``demand`` for ``vm_id`` (replacing any earlier one),
        write its row, and return its slot."""
        slot = self.slots.get(vm_id)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = len(self._by_slot)
                self._by_slot.append(None)
                if slot == len(self.rows):
                    self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
            self.slots[vm_id] = slot
        self._demands[vm_id] = demand
        self._by_slot[slot] = demand
        row = _demand_row(demand, self.rng)
        if row is not None:
            self.rows[slot] = row
        else:
            self.rows[slot] = 0.0
            self.rows[slot, _CPU] = self.rows[slot, _MEM] = _OPAQUE
        return slot

    def pop(self, vm_id: str, default=None):
        """Forget ``vm_id``'s demand and free its slot."""
        demand = self._demands.pop(vm_id, None)
        if demand is None:
            return default
        slot = self.slots.pop(vm_id)
        self._by_slot[slot] = None
        self._free.append(slot)
        return demand

    def evaluate(self, slots: list[int], now: float) -> np.ndarray:
        """Demand of the VMs in ``slots`` at ``now``, as a (5, n) array of
        ``(cpu_cores, memory_mb, network_tx_kbps, network_rx_kbps,
        disk_gb)`` rows.

        Equal, bit for bit, to each VM's ``VMDemand.evaluate`` on the grid
        ``[now]``, called in ``slots`` order, and leaves the generator where
        those calls would.
        DRS calls it for batches of tens of VMs, so the fixed cost per
        call counts: both channels go through one :func:`_channel_values`.
        """
        n = len(slots)
        rows = self.rows[slots]
        cpu_kind = rows[:, _CPU]
        mem_kind = rows[:, _MEM]
        # The Gaussians in stream order, each VM's cpu draw then its mem
        # draw, taken as standard normals run by run.
        gauss = np.zeros(2 * n)
        uniforms = np.zeros(2 * n)
        standard_normal = self.rng.standard_normal
        random = self.rng.random
        opaque = []
        done = 0  # Gaussians [0, done) are drawn

        def draw_to(stop: int) -> None:
            nonlocal done
            if done < stop:
                standard_normal(out=gauss[done:stop])
            done = stop

        breaks = (
            (cpu_kind == _BURSTY) | (cpu_kind == _OPAQUE) | (mem_kind == _BURSTY)
        ).nonzero()[0]
        for i, cpu_k, mem_k in zip(
            breaks.tolist(), cpu_kind[breaks].tolist(), mem_kind[breaks].tolist()
        ):
            if cpu_k == _OPAQUE:
                draw_to(2 * i)
                opaque.append((i, _evaluate_one(self._by_slot[slots[i]], now)))
                done = 2 * i + 2  # its Gaussians were its own
                continue
            for k, kind in ((2 * i, cpu_k), (2 * i + 1, mem_k)):
                if kind == _BURSTY:
                    draw_to(k)
                    uniforms[k] = random()
        draw_to(2 * n)
        # One channel block per Gaussian: VM i's cpu block is block 2i, its
        # mem block 2i + 1, so both channels take one pass.
        blocks = rows[:, _CPU:].reshape(2 * n, _MEM - _CPU)
        # ``rng.normal(0.0, sigma)`` is ``0.0 + sigma * gauss``; the
        # ``+ 0.0`` turns a -0.0 product (sigma 0) into +0.0 the same way.
        noise = blocks[:, 1] * gauss + 0.0

        t = float(now)
        hour = (t % _DAY) / 3600.0
        ratios = _channel_values(blocks, noise, uniforms, t, hour, _is_weekend(t))
        cpu = ratios[0::2]
        mem = ratios[1::2]
        out = np.empty((5, n))
        out[0] = cpu * rows[:, 0]
        out[1] = mem * rows[:, 1]
        out[2] = rows[:, 2] * cpu
        out[3] = out[2] * 0.8
        out[4] = rows[:, 3]
        for i, values in opaque:
            out[:, i] = values
        return out
