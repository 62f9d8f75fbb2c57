"""Performance benchmark harness: ``repro bench``.

Times the simulator's three hot paths on seeded, reproducible workloads
and writes ``BENCH_scale.json`` — the repo's perf trajectory artifact:

1. **Schedule throughput** — a Table 1/2-shaped request stream replayed
   through the FilterScheduler at scale 0.05 (~92 nodes), measured on the
   indexed fast path *and* on the legacy rebuild-per-request path, so the
   speedup ratio is machine-independent.  The two paths must produce
   identical placements (recorded as ``placements_identical``).
2. **Telemetry ingest** — 20 scrape cycles of vROps + Nova exporter
   output, measured through the per-sample ``ingest()`` loop and the
   columnar ``ingest_blocks()`` path.
3. **DRS round latency and a seeded regional simulation** — wall time of
   one DRS round over a populated scale-0.02 region, and of a multi-day
   end-to-end run (30 days in full mode).
4. **Scenario-sweep throughput** — an 8-cell micro-grid executed through
   the :mod:`repro.sweep` engine at 1 worker and at ``sweep_workers``
   workers: scenarios/hour for both, the speedup ratio, and a
   byte-identity check between the two merged reports.  The ratio tracks
   available CPUs (recorded as ``sweep_cpu_count``).

The frozen pre-PR baseline (measured on the same workloads at the commit
before the performance overhaul) ships in :data:`PRE_PR_BASELINE`, so
``*_speedup_vs_baseline`` keys are comparable run-over-run on the same
host; CI's smoke job instead asserts the in-run ratios, which do not
depend on the host at all.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.infrastructure.flavors import FLAVOR_MIX, default_catalog
from repro.infrastructure.topology import build_region, paper_region_spec
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.scheduler.stats import stats_of
from repro.telemetry.exporters import NodeUsage, NovaExporter, VropsExporter
from repro.telemetry.store import MetricStore

#: Pre-PR numbers for the exact workloads below (scale 0.05, 600 requests,
#: 20 ingest cycles, 30-day scale-0.02 simulation), measured at the commit
#: preceding the performance overhaul on the reference dev container.
#: Cross-host comparisons are indicative only; the in-run ``*_vs_legacy``
#: ratios are the portable signal.
PRE_PR_BASELINE = {
    "schedule_requests_per_s": 7432.0,
    "telemetry_ingest_samples_per_s": 1194873.0,
    "drs_round_latency_s": 0.1604,
    "sim_30day_wall_s": 751.5,
    "peak_rss_kb": 83024,
}


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for one ``repro bench`` run."""

    scale: float = 0.05
    requests: int = 600
    ingest_cycles: int = 20
    rounds: int = 3
    sim_scale: float = 0.02
    sim_days: float = 30.0
    sim_initial_vms: int = 150
    sim_arrival_rate_per_hour: float = 6.0
    seed: int = 1
    sim_seed: int = 7
    run_sim: bool = True
    sweep_duration_days: float = 0.25
    sweep_initial_vms: int = 40
    sweep_workers: int = 4
    journal_records: int = 2000

    @classmethod
    def smoke(cls) -> "BenchConfig":
        """CI-sized config: same workloads, minutes-to-seconds runtime.

        The ingest stage keeps its full 20 cycles — it runs in
        milliseconds, and shrinking it would shrink the per-series blocks
        until fixed per-block cost drowns the columnar advantage the
        smoke check asserts.
        """
        return cls(
            requests=200,
            rounds=2,
            sim_days=1.0,
            sim_initial_vms=60,
            sim_arrival_rate_per_hour=4.0,
            sweep_duration_days=0.05,
            sweep_initial_vms=16,
            sweep_workers=2,
            journal_records=400,
        )


def _request_stream(n: int, seed: int) -> list[RequestSpec]:
    catalog = default_catalog()
    rng = np.random.default_rng(seed)
    names = [name for name, w in FLAVOR_MIX if w > 0]
    weights = np.asarray([w for _, w in FLAVOR_MIX if w > 0], dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=n, p=weights)
    return [
        RequestSpec(vm_id=f"vm-{i:05d}", flavor=catalog.get(names[int(p)]))
        for i, p in enumerate(picks)
    ]


def _replay(
    config: BenchConfig, requests: list[RequestSpec], scheduler_config: SchedulerConfig
) -> tuple[float, dict[str, str], dict[str, int]]:
    """Best wall time over ``rounds`` replays; returns placements and stats."""
    best = None
    placements: dict[str, str] = {}
    stats: dict[str, int] = {}
    for _ in range(config.rounds):
        region = build_region(paper_region_spec(scale=config.scale))
        placement = PlacementService()
        for bb in region.iter_building_blocks():
            placement.register_building_block(bb)
        scheduler = FilterScheduler(region, placement, scheduler_config)
        t0 = time.perf_counter()
        for spec in requests:
            try:
                scheduler.schedule(spec)
            except NoValidHost:
                pass
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
        placements = {
            spec.vm_id: (
                allocation.provider_id
                if (allocation := placement.allocation_for(spec.vm_id)) is not None
                else ""
            )
            for spec in requests
        }
        stats = stats_of(scheduler)
    return float(best), placements, stats


def bench_schedule(config: BenchConfig) -> dict:
    """Schedule-throughput on the indexed fast path vs the legacy path."""
    requests = _request_stream(config.requests, config.seed)
    fast = SchedulerConfig(track_filter_counts=False, use_index=True)
    legacy = SchedulerConfig(track_filter_counts=True, use_index=False)
    fast_s, fast_placements, fast_stats = _replay(config, requests, fast)
    legacy_s, legacy_placements, _ = _replay(config, requests, legacy)
    n = len(requests)
    return {
        "schedule_requests": n,
        "schedule_requests_per_s": n / fast_s,
        "schedule_requests_per_s_legacy": n / legacy_s,
        "schedule_speedup_vs_legacy": legacy_s / fast_s,
        "placements_identical": fast_placements == legacy_placements,
        "schedule_stats": fast_stats,
    }


def _scrape_workload(config: BenchConfig):
    """The per-sample and columnar forms of the same scrape traffic."""
    region = build_region(paper_region_spec(scale=config.scale))
    vrops, nova = VropsExporter(), NovaExporter()
    usage = NodeUsage(0.4, 0.5, 100.0, 80.0, 50.0, 12.0, 0.02)
    nodes = list(region.iter_nodes())
    timestamps = [900.0 * cycle for cycle in range(config.ingest_cycles)]
    samples = []
    for t in timestamps:
        for node in nodes:
            samples.extend(vrops.scrape_node(node, usage, t))
        samples.extend(nova.scrape_region(region, t))
    usages = [usage] * len(timestamps)
    blocks = []
    for node in nodes:
        blocks.extend(vrops.scrape_node_window(node, usages, timestamps))
    nova_samples = []
    for t in timestamps:
        nova_samples.extend(nova.scrape_region(region, t))
    return samples, blocks, nova_samples


def bench_ingest(config: BenchConfig) -> dict:
    """Telemetry ingest rate: per-sample loop vs columnar blocks."""
    samples, blocks, nova_samples = _scrape_workload(config)
    per_sample_best = None
    for _ in range(config.rounds):
        store = MetricStore()
        t0 = time.perf_counter()
        n_per_sample = store.ingest(samples)
        elapsed = time.perf_counter() - t0
        if per_sample_best is None or elapsed < per_sample_best:
            per_sample_best = elapsed
    block_best = None
    for _ in range(config.rounds):
        store = MetricStore()
        t0 = time.perf_counter()
        n_block = store.ingest_blocks(blocks)
        n_block += store.ingest(nova_samples)
        elapsed = time.perf_counter() - t0
        if block_best is None or elapsed < block_best:
            block_best = elapsed
    if n_block != n_per_sample:
        raise RuntimeError(
            f"ingest paths disagree on sample count: {n_block} != {n_per_sample}"
        )
    return {
        "ingest_samples": n_per_sample,
        "telemetry_ingest_samples_per_s": n_block / block_best,
        "telemetry_ingest_per_sample_per_s": n_per_sample / per_sample_best,
        "ingest_block_speedup_vs_per_sample": per_sample_best / block_best,
    }


def bench_drs(config: BenchConfig) -> dict:
    """One DRS round over a populated region (latency, seconds)."""
    from repro.drs.balancer import DrsBalancer
    from repro.simulation.runner import RegionSimulation, SimulationConfig

    spec = paper_region_spec(scale=config.sim_scale)
    sim = RegionSimulation(
        spec,
        SimulationConfig(
            duration_days=0.5,
            initial_vms=config.sim_initial_vms,
            seed=config.sim_seed,
        ),
    )
    sim.run()
    drs = DrsBalancer()
    t0 = time.perf_counter()
    for bb in sim.region.iter_building_blocks():
        if bb.policy == "pack":
            continue
        drs.run(bb)
    return {"drs_round_latency_s": time.perf_counter() - t0}


def _sim_digest(result) -> tuple:
    """Everything the two scrape paths must agree on, byte for byte."""
    return (
        {vm_id: vm.node_id for vm_id, vm in result.vms.items()},
        result.created,
        result.deleted,
        result.rejected,
        result.resized,
        result.drs_migrations,
        result.events_processed,
        dict(result.scheduler_stats),
        result.store.sample_count(),
        result.store.content_fingerprint(),
    )


def bench_sim(config: BenchConfig) -> dict:
    """Seeded end-to-end regional run: columnar vs legacy scrape path.

    The columnar run (stage profiler on) is the primary timing; a legacy
    per-sample run at identical config/seed provides the in-run
    ``sim_scrape_speedup_vs_legacy`` ratio and the byte-identity check
    (``sim_paths_identical``: placements, counters, scheduler stats, and
    the telemetry store's content fingerprint).
    """
    from repro.simulation.runner import RegionSimulation, SimulationConfig

    spec = paper_region_spec(scale=config.sim_scale)

    def one_run(scrape_path: str, profile: bool):
        t0 = time.perf_counter()
        sim = RegionSimulation(
            spec,
            SimulationConfig(
                duration_days=config.sim_days,
                initial_vms=config.sim_initial_vms,
                arrival_rate_per_hour=config.sim_arrival_rate_per_hour,
                seed=config.sim_seed,
                scrape_path=scrape_path,
                profile_stages=profile,
            ),
        )
        result = sim.run()
        return time.perf_counter() - t0, result

    fast_s, fast = one_run("columnar", True)
    legacy_s, legacy = one_run("legacy", False)
    stage_profile = fast.stage_profile or {}
    scrape_s = (
        stage_profile.get("demand_eval", 0.0)
        + stage_profile.get("exporter_format", 0.0)
        + stage_profile.get("ingest", 0.0)
    )
    samples = fast.store.sample_count()
    out = {
        "sim_days": config.sim_days,
        "sim_wall_s": fast_s,
        "sim_wall_s_legacy": legacy_s,
        "sim_scrape_speedup_vs_legacy": legacy_s / fast_s,
        "sim_paths_identical": _sim_digest(fast) == _sim_digest(legacy),
        "sim_events": fast.events_processed,
        "sim_samples": samples,
        "sim_scrape_samples_per_s": (
            samples / scrape_s if scrape_s > 0 else 0.0
        ),
        "sim_profile": {k: round(v, 3) for k, v in stage_profile.items()},
        "sim_scheduler_stats": dict(fast.scheduler_stats),
        "sim_placement_stats": fast.placement.stats(),
    }
    if config.sim_days == 30.0:
        out["sim_speedup_vs_pre_pr"] = PRE_PR_BASELINE["sim_30day_wall_s"] / fast_s
    return out


def _sweep_grid_doc(config: BenchConfig) -> dict:
    """An 8-cell micro-grid (2 arrival rates x 4 seeds) for throughput."""
    return {
        "base": {
            "duration_days": config.sweep_duration_days,
            "building_blocks": 2,
            "nodes_per_bb": 2,
            "initial_vms": config.sweep_initial_vms,
            "arrival_rate_per_hour": 6.0,
        },
        "seeds": [1, 2, 3, 4],
        "axes": {"arrival_rate_per_hour": [6.0, 12.0]},
    }


def bench_sweep(config: BenchConfig) -> dict:
    """Scenario-sweep throughput: 1 worker vs ``sweep_workers`` workers.

    Also re-asserts the engine's determinism contract in passing: the
    two runs must merge to byte-identical reports
    (``sweep_reports_identical``).  Parallel speedup scales with the
    CPUs actually available — ``sweep_cpu_count`` records them so a
    1-core container's flat ratio is legible in the artifact.
    """
    from repro.reporting import canonical_bytes
    from repro.sweep import grid_from_dict, run_sweep

    grid = grid_from_dict(_sweep_grid_doc(config))
    report_1w, stats_1w = run_sweep(grid, workers=1)
    report_nw, stats_nw = run_sweep(grid, workers=config.sweep_workers)
    return {
        "sweep_cells": len(grid.cells),
        "sweep_workers": config.sweep_workers,
        "sweep_cpu_count": stats_nw.cpu_count,
        "sweep_wall_1w_s": stats_1w.wall_s,
        "sweep_wall_nw_s": stats_nw.wall_s,
        "sweep_scenarios_per_hour_1w": stats_1w.scenarios_per_hour,
        "sweep_scenarios_per_hour_nw": stats_nw.scenarios_per_hour,
        "sweep_speedup_nw_vs_1w": stats_1w.wall_s / stats_nw.wall_s,
        "sweep_reports_identical": (
            canonical_bytes(report_1w) == canonical_bytes(report_nw)
        ),
        "sweep_failed_shards": len(report_1w.failures)
        + len(report_nw.failures),
    }


def bench_journal(config: BenchConfig) -> dict:
    """Journal-append throughput: ``durability=fsync`` vs ``flush``.

    The fsync mode is the crash-consistent default (every record durable
    at commit); flush is the sim-only fast path (``repro chaos
    --journal``).  The gap quantifies what power-loss durability costs on
    this host's storage, so a surprising fsync cliff in CI is visible in
    the artifact rather than silently absorbed.
    """
    import tempfile

    from repro.recovery import JournalWriter

    record = {
        "type": "bench",
        "record": {"vm_id": "vm-00000", "host": "node-000-00", "op": 0},
    }
    timings: dict[str, float] = {}
    for durability in ("fsync", "flush"):
        with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
            writer = JournalWriter(
                Path(tmp) / "bench.journal", durability=durability
            )
            t0 = time.perf_counter()
            for i in range(config.journal_records):
                record["record"]["op"] = i
                writer.append(record)
            timings[durability] = time.perf_counter() - t0
            writer.close()
    n = config.journal_records
    return {
        "journal_records": n,
        "journal_append_per_s_fsync": n / timings["fsync"],
        "journal_append_per_s_flush": n / timings["flush"],
        "journal_flush_speedup_vs_fsync": timings["fsync"] / timings["flush"],
    }


def run_bench(config: BenchConfig | None = None, echo=None) -> dict:
    """Run every bench stage; returns the BENCH_scale.json payload."""
    config = config or BenchConfig()

    def say(msg: str) -> None:
        if echo is not None:
            echo(msg)

    results: dict = {}
    say(f"scheduling: {config.requests} requests at scale {config.scale} ...")
    results.update(bench_schedule(config))
    say(f"telemetry ingest: {config.ingest_cycles} scrape cycles ...")
    results.update(bench_ingest(config))
    say("DRS round latency ...")
    results.update(bench_drs(config))
    if config.run_sim:
        say(f"regional simulation: {config.sim_days:g} days ...")
        results.update(bench_sim(config))
    say(
        f"scenario sweep: 8 cells at 1 vs {config.sweep_workers} worker(s) ..."
    )
    results.update(bench_sweep(config))
    say(f"journal appends: {config.journal_records} records, fsync vs flush ...")
    results.update(bench_journal(config))
    results["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for key in ("schedule_requests_per_s", "telemetry_ingest_samples_per_s"):
        baseline = PRE_PR_BASELINE[key]
        results[f"{key.split('_per_s')[0]}_speedup_vs_baseline"] = (
            results[key] / baseline
        )
    return {
        "bench": "scale",
        "config": asdict(config),
        "baseline_pre_pr": dict(PRE_PR_BASELINE),
        "results": results,
    }


#: (key, minimum) bounds the CI smoke job enforces; in-run ratios only, so
#: they hold on any host.  Keys starting with ``sim_`` are enforced only
#: when the sim stage actually ran (``sim_wall_s`` present).
CHECK_BOUNDS = (
    ("schedule_speedup_vs_legacy", 1.5),
    ("ingest_block_speedup_vs_per_sample", 3.0),
    ("sim_scrape_speedup_vs_legacy", 2.0),
)

#: Keys that must be present (and finite) in results for the artifact to
#: count as a valid BENCH_scale.json.
REQUIRED_KEYS = (
    "schedule_requests_per_s",
    "telemetry_ingest_samples_per_s",
    "drs_round_latency_s",
    "journal_append_per_s_fsync",
    "peak_rss_kb",
)


def check_results(payload: dict, notes: list[str] | None = None) -> list[str]:
    """Non-regression check; returns a list of violations (empty = pass).

    ``notes``, when given, collects non-fatal explanations (e.g. which
    asserts were skipped and why) so the CLI can surface them.
    """
    problems: list[str] = []
    results = payload.get("results", {})
    sim_ran = "sim_wall_s" in results
    for key in REQUIRED_KEYS:
        value = results.get(key)
        if value is None or not np.isfinite(value):
            problems.append(f"missing or non-finite result key: {key}")
    if not results.get("placements_identical", False):
        problems.append("indexed and legacy scheduling paths placed differently")
    if sim_ran and not results.get("sim_paths_identical", False):
        problems.append("columnar and legacy scrape paths diverged")
    if not results.get("sweep_reports_identical", True):
        problems.append("sweep reports differ between 1 and N workers")
    if results.get("sweep_failed_shards", 0):
        problems.append(
            f"sweep bench had {results['sweep_failed_shards']} failed shards"
        )
    # Parallel-sweep throughput must beat single-worker — but only where the
    # host can actually run workers concurrently.  On a 1-CPU box the ratio
    # measures scheduler overhead, not the sweep engine, so the assert is
    # skipped with an explicit note instead of failing dishonestly.
    nw = results.get("sweep_scenarios_per_hour_nw")
    one_w = results.get("sweep_scenarios_per_hour_1w")
    if nw is not None and one_w is not None:
        cpu_count = results.get("sweep_cpu_count", 1)
        if cpu_count > 1:
            if not (nw > one_w):
                problems.append(
                    f"sweep_scenarios_per_hour_nw = {nw:.2f} below required "
                    f"minimum of sweep_scenarios_per_hour_1w = {one_w:.2f} "
                    f"on {cpu_count} CPUs"
                )
        elif notes is not None:
            notes.append(
                "skipped sweep nw>1w throughput assert: "
                f"sweep_cpu_count == {cpu_count} (no parallelism available)"
            )
    for key, minimum in CHECK_BOUNDS:
        if key.startswith("sim_") and not sim_ran:
            if notes is not None:
                notes.append(
                    f"skipped bound {key} >= {minimum:.2f}: sim stage not run"
                )
            continue
        value = results.get(key, 0.0)
        if not (value >= minimum):
            problems.append(f"{key} = {value:.2f} below required {minimum:.2f}")
    return problems


def write_bench_json(payload: dict, path: str) -> None:
    """Write the artifact with stable formatting."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
