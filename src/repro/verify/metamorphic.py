"""Metamorphic properties for the telemetry store and the scheduler.

Differential oracles need a second implementation; metamorphic checks
need only a *relation*: transform the input in a way whose effect on the
output is known exactly, run the real code on both, and compare.  Each
check here returns a list of :class:`~repro.verify.oracle.Mismatch`
(empty means the property held), so the runner and CLI can report every
violation with the series / VM / field it concerns.

Telemetry relations (all seeded, no wall clock):

* **block-split invariance** — ingesting one exporter window as a single
  ``SampleBlock`` or as any partition of it must yield identical
  ``query_range`` results for every probe window;
* **downsample idempotence** — downsampling the mean-reconstruction of a
  downsampled series changes nothing: same window starts, same means
  (stale-only windows stay NaN, never laundered into numbers);
* **staleness monotonicity** — appending staleness markers never changes
  the observed sub-series, monotonically grows ``stale_count``, and
  instant queries at a marker report "unknown", not a stale value.

Scheduler relations (replayed through the oracle's RNG-free harness):

* **host-permutation invariance** — reversing building-block / DC
  registration order moves no placement (tie-breaks are by host id, so
  iteration order must not leak into decisions);
* **capacity-growth monotonicity** — adding one node to every building
  block must not shrink the *number* of admitted VMs.  Deliberately the
  count, not the per-VM set: online greedy placement has sequence
  effects, so under saturation an individual VM can legitimately be
  admitted in the base region and rejected in the grown one (a larger
  earlier VM now fits and takes its room) — the set-superset form fails
  on real seeds while the count form held across 100 seeds of the
  saturated ``dense`` scenario.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.query import instant, query_range
from repro.telemetry.store import MetricStore, SampleBlock
from repro.telemetry.timeseries import STALE, TimeSeries
from repro.verify.oracle import Mismatch, replay_workload, workload_ops
from repro.verify.scenarios import VerifyScenario

_METRIC = "verify_metamorphic_metric"


# -- seeded synthetic series -----------------------------------------------------


def _synthetic_series(seed: int, n_series: int = 4) -> list[tuple[dict, np.ndarray, np.ndarray]]:
    """Irregular seeded series with NaN (stale) runs and dead gaps."""
    rng = np.random.default_rng(seed)
    out = []
    for s in range(n_series):
        n = int(rng.integers(40, 160))
        # Irregular scrape cadence with occasional long gaps.
        deltas = rng.exponential(30.0, size=n)
        deltas[rng.random(n) < 0.05] += 1800.0
        ts = np.cumsum(deltas) + 1000.0 * s
        vs = rng.normal(50.0, 15.0, size=n)
        # Stale runs: a few contiguous stretches of markers.
        for _ in range(int(rng.integers(0, 3))):
            start = int(rng.integers(0, max(1, n - 5)))
            vs[start : start + int(rng.integers(1, 5))] = STALE
        out.append(({"series": f"s{s}"}, ts.astype(float), vs.astype(float)))
    return out


def _series_equal(a: TimeSeries, b: TimeSeries) -> bool:
    return np.array_equal(a.timestamps, b.timestamps) and np.array_equal(
        a.values, b.values, equal_nan=True
    )


def check_block_split_invariance(seed: int) -> list[Mismatch]:
    """query_range must not see how samples were batched at ingest."""
    rng = np.random.default_rng(seed + 1)
    whole = MetricStore()
    split = MetricStore()
    mismatches: list[Mismatch] = []
    for labels, ts, vs in _synthetic_series(seed):
        whole.ingest_blocks([SampleBlock(_METRIC, tuple(sorted(labels.items())), ts, vs)])
        # Partition the window at random cut points (empty parts allowed).
        cuts = np.sort(rng.integers(0, len(ts) + 1, size=int(rng.integers(1, 5))))
        blocks = []
        prev = 0
        for cut in [*cuts.tolist(), len(ts)]:
            blocks.append(
                SampleBlock(
                    _METRIC,
                    tuple(sorted(labels.items())),
                    ts[prev:cut],
                    vs[prev:cut],
                )
            )
            prev = cut
        split.ingest_blocks(blocks)
        lo, hi = float(ts[0]), float(ts[-1])
        probes = [
            (lo, hi + 1.0),
            (lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.75),
            (hi + 10.0, hi + 20.0),  # empty window
        ]
        for start, end in probes:
            got_whole = query_range(whole, _METRIC, labels, start, end)
            got_split = query_range(split, _METRIC, labels, start, end)
            if not _series_equal(got_whole, got_split):
                mismatches.append(
                    Mismatch(
                        check="metamorphic/block_split",
                        variant="whole-vs-split",
                        subject=labels["series"],
                        field=f"query_range[{start:.1f},{end:.1f})",
                        expected=len(got_whole),
                        actual=len(got_split),
                    )
                )
    return mismatches


def check_downsample_idempotence(seed: int, window: float = 300.0) -> list[Mismatch]:
    """Downsampling a mean-reconstruction is a fixed point (starts+means)."""
    from repro.telemetry.downsample import downsample, reconstruct

    mismatches: list[Mismatch] = []
    for labels, ts, vs in _synthetic_series(seed + 2):
        series = TimeSeries(ts, vs)
        once = downsample(series, window)
        again = downsample(reconstruct(once, "mean"), window)
        subject = labels["series"]
        if len(once) != len(again):
            mismatches.append(
                Mismatch(
                    check="metamorphic/downsample_idempotence",
                    variant="once-vs-twice",
                    subject=subject,
                    field="chunks",
                    expected=len(once),
                    actual=len(again),
                )
            )
            continue
        for a, b in zip(once, again):
            if a.start != b.start:
                mismatches.append(
                    Mismatch(
                        check="metamorphic/downsample_idempotence",
                        variant="once-vs-twice",
                        subject=subject,
                        field="start",
                        expected=a.start,
                        actual=b.start,
                    )
                )
            same_mean = (a.mean == b.mean) or (
                np.isnan(a.mean) and np.isnan(b.mean)
            )
            if not same_mean:
                mismatches.append(
                    Mismatch(
                        check="metamorphic/downsample_idempotence",
                        variant="once-vs-twice",
                        subject=subject,
                        field=f"mean@{a.start:.0f}",
                        expected=a.mean,
                        actual=b.mean,
                    )
                )
    return mismatches


def check_staleness_monotonicity(seed: int) -> list[Mismatch]:
    """Markers accumulate monotonically and never leak into observations."""
    mismatches: list[Mismatch] = []
    for labels, ts, vs in _synthetic_series(seed + 3, n_series=2):
        store = MetricStore()
        store.ingest_blocks(
            [SampleBlock(_METRIC, tuple(sorted(labels.items())), ts, vs)]
        )
        subject = labels["series"]
        baseline = store.query(_METRIC, labels).present()
        last_stale = store.query(_METRIC, labels).stale_count
        t = float(ts[-1])
        for k in range(4):
            t += 60.0
            store.append_stale(_METRIC, labels, t)
            series = store.query(_METRIC, labels)
            if series.stale_count != last_stale + 1:
                mismatches.append(
                    Mismatch(
                        check="metamorphic/staleness",
                        variant="append_stale",
                        subject=subject,
                        field=f"stale_count@{k}",
                        expected=last_stale + 1,
                        actual=series.stale_count,
                    )
                )
            last_stale = series.stale_count
            if not _series_equal(series.present(), baseline):
                mismatches.append(
                    Mismatch(
                        check="metamorphic/staleness",
                        variant="append_stale",
                        subject=subject,
                        field=f"present@{k}",
                        expected=len(baseline),
                        actual=len(series.present()),
                    )
                )
            if instant(store, _METRIC, labels, t) is not None:
                mismatches.append(
                    Mismatch(
                        check="metamorphic/staleness",
                        variant="append_stale",
                        subject=subject,
                        field=f"instant@{t:.0f}",
                        expected=None,
                        actual=instant(store, _METRIC, labels, t),
                    )
                )
    return mismatches


# -- scheduler relations ---------------------------------------------------------


def check_host_permutation_invariance(
    scenario: VerifyScenario, seed: int
) -> list[Mismatch]:
    """Registration order must not leak into placements or scores."""
    ops = workload_ops(scenario, seed)
    base = replay_workload(scenario.topology(), ops, variant="base-order")
    perm = replay_workload(
        scenario.permuted_topology(), ops, variant="permuted-order"
    )
    mismatches: list[Mismatch] = []
    for vm_id in sorted(set(base.placements) | set(perm.placements)):
        want = base.placements.get(vm_id)
        got = perm.placements.get(vm_id)
        if want != got:
            mismatches.append(
                Mismatch(
                    check="metamorphic/host_permutation",
                    variant="base-vs-permuted",
                    subject=vm_id,
                    field="host",
                    expected=want,
                    actual=got,
                )
            )
    for base_row, perm_row in zip(base.trace, perm.trace):
        if base_row[2] != perm_row[2]:
            mismatches.append(
                Mismatch(
                    check="metamorphic/host_permutation",
                    variant="base-vs-permuted",
                    subject=base_row[0],
                    field="score",
                    expected=base_row[2],
                    actual=perm_row[2],
                )
            )
    return mismatches


def check_capacity_monotonicity(
    scenario: VerifyScenario, seed: int
) -> list[Mismatch]:
    """Growing every building block never shrinks the admitted count.

    The per-VM superset form is *not* a valid relation for online greedy
    placement (sequence effects under saturation), so only the count is
    asserted — see the module docstring.
    """
    ops = workload_ops(scenario, seed)
    base = replay_workload(scenario.topology(), ops, variant="base-capacity")
    grown = replay_workload(
        scenario.grown_topology(), ops, variant="grown-capacity"
    )
    mismatches: list[Mismatch] = []
    base_placed = {vm for vm, host, _, _ in base.trace if host is not None}
    grown_placed = {vm for vm, host, _, _ in grown.trace if host is not None}
    if len(grown_placed) < len(base_placed):
        mismatches.append(
            Mismatch(
                check="metamorphic/capacity_monotonicity",
                variant="base-vs-grown",
                subject="region",
                field="placed_count",
                expected=len(base_placed),
                actual=len(grown_placed),
            )
        )
    return mismatches


def run_metamorphic(scenario: VerifyScenario, seed: int) -> list[Mismatch]:
    """All metamorphic properties for one (scenario, seed)."""
    return (
        check_block_split_invariance(seed)
        + check_downsample_idempotence(seed)
        + check_staleness_monotonicity(seed)
        + check_host_permutation_invariance(scenario, seed)
        + check_capacity_monotonicity(scenario, seed)
    )
