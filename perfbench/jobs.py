"""One repetition of a workload, inside the child interpreter.

A job is built from a config made by :mod:`workloads`, runs once through the
program's public entry points, and then is checked from outside: output
checks, an outcome digest and the operation counts.  With tracing on, the
job's objects are wrapped before the run and the per-layer metrics are read
from the tracer afterwards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from time import perf_counter

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER: list[tuple[str, str, str]] = []


def _metric(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER.append((name, unit, better))


# Mirrors repro.simulation.events.ALL_KINDS; kept literal so the harness can
# list its metrics without importing the program.
EVENT_KINDS = (
    "vm.create", "vm.delete", "vm.resize", "vm.migrate", "telemetry.scrape",
    "drs.run", "maintenance.start", "maintenance.end", "host.fail",
    "host.recover", "evacuation.retry", "domain.fail", "domain.recover",
    "telemetry.partition_start", "telemetry.partition_end", "health.check",
    "health.quarantine_end", "admission.retry", "reconcile.run",
    "invariant.check",
)
FIGURE_FUNCTIONS = (
    "fig5_dc_cpu_heatmap", "fig6_bb_cpu_heatmap", "fig7_intra_bb_cpu_heatmap",
    "fig8_top_ready_nodes", "fig9_contention_aggregate", "fig10_memory_heatmap",
    "fig11_network_tx_heatmap", "fig12_network_rx_heatmap",
    "fig13_storage_heatmap", "fig14_utilization_cdfs",
    "fig15_lifetime_per_flavor",
)
TABLE_FUNCTIONS = (
    "table1_vcpu_classes", "table2_ram_classes", "table3_dataset_comparison",
    "table4_metric_catalog", "table5_datacenters",
)

# simulation
for _kind in EVENT_KINDS:
    _metric(f"event.{_kind}.busy_s", "s")
for _kind in ("vm.create", "vm.resize"):
    _metric(f"event.{_kind}.p50_us", "us")
    _metric(f"event.{_kind}.p99_us", "us")
_metric("engine.events", "count")
_metric("trace.unattributed_frac", "fraction")
_metric("trace.overhead_frac", "fraction")
# scheduler
_metric("scheduler.schedule.calls", "count")
_metric("scheduler.schedule.busy_s", "s")
_metric("scheduler.schedule.p50_us", "us")
_metric("scheduler.schedule.p99_us", "us")
_metric("scheduler.select_destinations.busy_s", "s")
_metric("placement.claim.calls", "count")
_metric("placement.claim.busy_s", "s")
_metric("placement.release.calls", "count")
_metric("scheduler.placed_frac", "fraction", "higher")
_metric("request.node_fit_rejects", "count")
_metric("request.create.outside_scheduler_s", "s")
# drs
_metric("drs.run.calls", "count")
_metric("drs.run.busy_s", "s")
_metric("drs.run.p99_ms", "ms")
_metric("drs.node_load_fractions.calls", "count")
_metric("drs.node_load_fractions.busy_s", "s")
_metric("drs.load_fn.calls", "count")
_metric("drs.load_fn.calls_per_pass", "count")
_metric("drs.moves", "count")
_metric("drs.moves_per_pass", "count")
_metric("drs.migrations_aborted", "count")
# workloads
_metric("workloads.scrape_demand_s", "s")
_metric("workloads.demand_for.calls", "count")
_metric("workloads.demand_for.busy_s", "s")
_metric("workloads.evaluate.calls", "count")
_metric("workloads.evaluate.busy_s", "s")
# telemetry
_metric("telemetry.emit_node.calls", "count")
_metric("telemetry.emit_node.busy_s", "s")
_metric("telemetry.emit_region.busy_s", "s")
_metric("telemetry.samples", "count")
_metric("telemetry.append.busy_s", "s")
_metric("telemetry.read.calls", "count")
_metric("telemetry.read.busy_s", "s")
# faults / resilience
_metric("admission.submit.calls", "count")
_metric("admission.submit.busy_s", "s")
_metric("admission.shed_frac", "fraction")
_metric("evacuation.busy_s", "s")
_metric("evacuation.dead_letters", "count")
_metric("invariants.check.busy_s", "s")
_metric("reconciler.reconcile.busy_s", "s")
_metric("health.on_heartbeat.busy_s", "s")
# datagen / analysis
_metric("datagen.generate.busy_s", "s")
_metric("datagen.sample_population.busy_s", "s")
for _fn in FIGURE_FUNCTIONS + TABLE_FUNCTIONS:
    _metric(f"analysis.{_fn}.busy_s", "s")
_metric("analysis.report.busy_s", "s")
_metric("analysis.validate.busy_s", "s")


def digest_of(document) -> str:
    """SHA-256 of a JSON document in canonical form."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _patch_store_class(tracer) -> None:
    """Time the metric store's bulk writes and reads, in every instance."""
    from repro.telemetry.store import MetricStore
    from repro.workloads.demand import VMDemand

    tracer.patch(VMDemand, "evaluate", "workloads.evaluate")
    for method in ("append_series", "append_columns"):
        tracer.patch(MetricStore, method, f"store.{method}", group="telemetry.append")
    for method in ("window", "select", "aggregate_across"):
        tracer.patch(MetricStore, method, f"store.{method}", group="telemetry.read")


def _common_layers(tracer, metrics: dict) -> None:
    metrics["workloads.evaluate.calls"] = tracer.calls("workloads.evaluate")
    metrics["workloads.evaluate.busy_s"] = tracer.busy("workloads.evaluate")
    metrics["telemetry.append.busy_s"] = tracer.busy("telemetry.append")
    metrics["telemetry.read.calls"] = tracer.calls("telemetry.read")
    metrics["telemetry.read.busy_s"] = tracer.busy("telemetry.read")


# -- simulations ---------------------------------------------------------------


class SimJob:
    """One regional simulation (steady, churn and chaos)."""

    def __init__(self, config: dict) -> None:
        from repro.resilience.chaos import default_chaos_faults, default_chaos_resilience
        from repro.simulation.runner import RegionSimulation, SimulationConfig

        faults = resilience = None
        if config.get("faults"):
            faults = default_chaos_faults(seed=config["faults"]["seed"])
        if config.get("resilience"):
            resilience = default_chaos_resilience(seed=config["resilience"]["seed"])
        self.sim = RegionSimulation(
            _topology(config["topology"]),
            SimulationConfig(**config["sim"], faults=faults, resilience=resilience),
            catalog=_catalog(config["max_ram_gib"]),
        )
        self.result = None

    def run(self) -> None:
        self.result = self.sim.run()

    # -- outside checks ---------------------------------------------------------

    def checks(self) -> list[tuple[str, bool, str]]:
        sim, result = self.sim, self.result
        out: list[tuple[str, bool, str]] = []
        nodes = {n.node_id: n for n in sim.region.iter_nodes()}
        bb_of = {n.node_id: n.building_block for n in nodes.values()}

        residency: dict[str, list[str]] = {}
        for node in nodes.values():
            for vm_id in node.vms:
                residency.setdefault(vm_id, []).append(node.node_id)
        misplaced = []
        for vm_id, vm in result.vms.items():
            homes = residency.get(vm_id, [])
            if not vm.alive:
                if homes:
                    misplaced.append(f"{vm_id} is {vm.state.value} but resident")
                continue
            if len(homes) != 1 or vm.node_id != homes[0]:
                misplaced.append(f"{vm_id} resident on {homes}")
                continue
            allocation = result.placement.allocation_for(vm_id)
            if allocation is None or allocation.provider_id != bb_of[homes[0]]:
                misplaced.append(f"{vm_id} allocated off its node's BB")
        unknown = sorted(set(residency) - set(result.vms))
        misplaced += [f"{vm_id} resident but unknown" for vm_id in unknown]
        out.append(("sim.single_placement", not misplaced, "; ".join(misplaced[:3])))

        over = []
        for bb in sim.region.iter_building_blocks():
            for node in bb.iter_nodes():
                limit = bb.overcommit.allocatable(node.physical)
                if not node.allocated().fits_within(limit):
                    over.append(node.node_id)
        out.append(("sim.node_capacity", not over, ", ".join(over[:3])))

        live = sum(1 for vm in result.vms.values() if vm.state.value != "deleted")
        out.append((
            "sim.created_minus_deleted",
            result.created - result.deleted == live,
            f"created {result.created} - deleted {result.deleted} vs live {live}",
        ))

        ok, detail = self._samples_check(nodes)
        out.append(("sim.telemetry_samples", ok, detail))
        return out

    def _samples_check(self, nodes: dict) -> tuple[bool, str]:
        """Samples = node scrapes x 7 host metrics + Nova gauges per scrape."""
        sim, store = self.sim, self.result.store
        host_metrics = [m for m in store.metrics() if m.startswith("vrops_hostsystem_")]
        cfg = sim.config
        end = cfg.start_time + cfg.duration_days * 86_400.0
        scrapes, t = 0, cfg.start_time
        while t < end:
            scrapes += 1
            t += cfg.scrape_interval_s
        if self.result.fault_report is not None:
            scrapes -= self.result.fault_report.scrape_gaps
        bbs = sum(1 for _ in sim.region.iter_building_blocks())
        per_metric = [
            sum(len(series) for _, series in store.select(metric))
            for metric in host_metrics
        ]
        node_scrapes = per_metric[0] if per_metric else 0
        expected = 7 * node_scrapes + scrapes * (4 * bbs + 1)
        ok = (
            len(host_metrics) == 7
            and len(set(per_metric)) == 1
            and store.sample_count() == expected
        )
        if self.result.fault_report is None:
            ok = ok and node_scrapes == scrapes * len(nodes)
        else:
            ok = ok and node_scrapes <= scrapes * len(nodes)
        return ok, (
            f"{store.sample_count()} samples vs {expected} expected "
            f"({scrapes} scrapes, {node_scrapes} node scrapes)"
        )

    def ops(self) -> tuple[int, int]:
        """Creates, resizes and evacuations; rejected/failed/dead-lettered."""
        r = self.result
        ops = r.created + r.rejected + r.resized + r.resize_failed
        failed = r.rejected + r.resize_failed
        if r.fault_report is not None:
            ops += r.fault_report.evacuations_requested
            failed += len(r.fault_report.dead_letters)
        return ops, failed

    def summary(self) -> dict:
        r = self.result
        doc = {
            "created": r.created,
            "deleted": r.deleted,
            "rejected": r.rejected,
            "resized": r.resized,
            "resize_failed": r.resize_failed,
            "drs_migrations": r.drs_migrations,
            "maintenance_windows": r.maintenance_windows,
            "events": r.events_processed,
            "scheduler_stats": dict(sorted(r.scheduler_stats.items())),
            "placement_stats": r.placement.stats(),
            "samples": r.store.sample_count(),
            "store_fingerprint": r.store.content_fingerprint(),
            "placements": digest_of(
                sorted((vm_id, vm.node_id, vm.state.value) for vm_id, vm in r.vms.items())
            ),
        }
        if r.fault_report is not None:
            doc["fault_report"] = digest_of(r.fault_report.to_dict())
        if r.resilience_report is not None:
            doc["resilience_report"] = digest_of(r.resilience_report.to_dict())
        return doc

    # -- tracing --------------------------------------------------------------

    def attach(self, tracer) -> None:
        sim = self.sim
        tracer.patch_engine(sim.engine, keep_durations_for=("vm.create", "vm.resize"))

        def on_schedule(args, kwargs, result, duration):
            tracer.placed_vm = result.vm_id

        # A create's request-level call is admission.submit when admission
        # control is on (it calls schedule itself), else schedule.
        schedule = tracer.wrap(
            "scheduler.schedule", sim.scheduler.schedule, keep_durations=True,
            on_result=on_schedule,
        )
        if sim.admission is None:
            schedule = _timed_requests(schedule, tracer)
        sim.scheduler.schedule = schedule
        tracer.patch(sim.scheduler, "select_destinations", "scheduler.select_destinations")
        tracer.patch(sim.placement, "claim", "placement.claim")

        release = sim.placement.release

        def traced_release(consumer_id):
            if consumer_id == tracer.placed_vm:
                # The BB claim succeeded but no single node fit.
                tracer.count("request.node_fit_rejects")
                tracer.placed_vm = None
            return release(consumer_id)

        sim.placement.release = tracer.wrap("placement.release", traced_release)

        drs_run = sim.drs.run

        def counted_run(bb, load_fn, fault_model=None):
            def counting_load_fn(vm):
                tracer.count("drs.load_fn.calls")
                return load_fn(vm)

            moves = drs_run(bb, load_fn=counting_load_fn, fault_model=fault_model)
            tracer.count("drs.moves", len(moves))
            return moves

        sim.drs.run = tracer.wrap("drs.run", counted_run, keep_durations=True)
        tracer.patch(sim.drs, "node_load_fractions", "drs.node_load_fractions")
        tracer.patch(sim.demand_model, "demand_for", "workloads.demand_for")
        tracer.patch(sim.vrops, "emit_node", "telemetry.emit_node")
        tracer.patch(sim.nova_exporter, "emit_region", "telemetry.emit_region")
        _patch_store_class(tracer)
        if sim.admission is not None:
            sim.admission.submit = _timed_requests(
                tracer.wrap("admission.submit", sim.admission.submit), tracer
            )
        if sim.evacuation is not None:
            for method in ("on_host_fail", "on_host_recover", "on_retry"):
                tracer.patch(sim.evacuation, method, f"evacuation.{method}", group="evacuation")
        if sim.invariants is not None:
            tracer.patch(sim.invariants, "check", "invariants.check")
        if sim.reconciler is not None:
            tracer.patch(sim.reconciler, "reconcile", "reconciler.reconcile")
        if sim.health is not None:
            tracer.patch(sim.health, "on_heartbeat", "health.on_heartbeat")

    def layers(self, tracer, wall_s: float) -> dict:
        sim, r, t = self.sim, self.result, tracer
        m = {name: 0.0 for name, _, _ in PER_LAYER}
        for kind in EVENT_KINDS:
            m[f"event.{kind}.busy_s"] = t.busy(f"event.{kind}")
        for kind in ("vm.create", "vm.resize"):
            m[f"event.{kind}.p50_us"] = t.pct(f"event.{kind}", 50) * 1e6
            m[f"event.{kind}.p99_us"] = t.pct(f"event.{kind}", 99) * 1e6
        m["engine.events"] = sum(t.calls(f"event.{kind}") for kind in EVENT_KINDS)
        events_s = sum(t.busy(f"event.{kind}") for kind in EVENT_KINDS)
        m["trace.unattributed_frac"] = _ratio(wall_s - events_s, wall_s)

        m["scheduler.schedule.calls"] = t.calls("scheduler.schedule")
        m["scheduler.schedule.busy_s"] = t.busy("scheduler.schedule")
        m["scheduler.schedule.p50_us"] = t.pct("scheduler.schedule", 50) * 1e6
        m["scheduler.schedule.p99_us"] = t.pct("scheduler.schedule", 99) * 1e6
        m["scheduler.select_destinations.busy_s"] = t.busy("scheduler.select_destinations")
        m["placement.claim.calls"] = t.calls("placement.claim")
        m["placement.claim.busy_s"] = t.busy("placement.claim")
        m["placement.release.calls"] = t.calls("placement.release")
        stats = sim.scheduler.stats
        m["scheduler.placed_frac"] = _ratio(stats["placed"], stats["requests"])
        m["request.node_fit_rejects"] = t.counts.get("request.node_fit_rejects", 0)
        m["request.create.outside_scheduler_s"] = t.outside_scheduler_s

        passes = t.calls("drs.run")
        m["drs.run.calls"] = passes
        m["drs.run.busy_s"] = t.busy("drs.run")
        m["drs.run.p99_ms"] = t.pct("drs.run", 99) * 1e3
        m["drs.node_load_fractions.calls"] = t.calls("drs.node_load_fractions")
        m["drs.node_load_fractions.busy_s"] = t.busy("drs.node_load_fractions")
        m["drs.load_fn.calls"] = t.counts.get("drs.load_fn.calls", 0)
        m["drs.load_fn.calls_per_pass"] = _ratio(m["drs.load_fn.calls"], passes)
        m["drs.moves"] = t.counts.get("drs.moves", 0)
        m["drs.moves_per_pass"] = _ratio(m["drs.moves"], passes)
        if sim.migration_faults is not None:
            m["drs.migrations_aborted"] = sim.migration_faults.aborted

        m["workloads.scrape_demand_s"] = t.self_time("event.telemetry.scrape")
        m["workloads.demand_for.calls"] = t.calls("workloads.demand_for")
        m["workloads.demand_for.busy_s"] = t.busy("workloads.demand_for")
        m["telemetry.emit_node.calls"] = t.calls("telemetry.emit_node")
        m["telemetry.emit_node.busy_s"] = t.busy("telemetry.emit_node")
        m["telemetry.emit_region.busy_s"] = t.busy("telemetry.emit_region")
        m["telemetry.samples"] = r.store.sample_count()
        _common_layers(t, m)

        m["admission.submit.calls"] = t.calls("admission.submit")
        m["admission.submit.busy_s"] = t.busy("admission.submit")
        if r.resilience_report is not None:
            rr = r.resilience_report
            m["admission.shed_frac"] = _ratio(
                rr.shed_rate_limit + rr.shed_breaker, rr.requests_submitted
            )
        m["evacuation.busy_s"] = t.busy("evacuation")
        if r.fault_report is not None:
            m["evacuation.dead_letters"] = len(r.fault_report.dead_letters)
        m["invariants.check.busy_s"] = t.busy("invariants.check")
        m["reconciler.reconcile.busy_s"] = t.busy("reconciler.reconcile")
        m["health.on_heartbeat.busy_s"] = t.busy("health.on_heartbeat")
        return m


def _timed_requests(fn, tracer):
    """Add each call's duration to the current event's request time."""

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.request_time += perf_counter() - t0

    return wrapper


def _catalog(max_ram_gib: float):
    """The default flavor catalogue, without flavors above ``max_ram_gib``."""
    from repro.infrastructure.flavors import FlavorCatalog, default_catalog

    return FlavorCatalog([f for f in default_catalog() if f.ram_mb <= max_ram_gib * 1024])


def _topology(spec: dict):
    """A paper-shaped region, or the chaos lab grown to ``azs`` zones.

    Each chaos-lab zone repeats ``chaos_topology``'s general-purpose blocks
    and adds one pack-policy HANA block, so every requested flavor has a
    home.
    """
    from repro.infrastructure.capacity import HANA_OVERCOMMIT
    from repro.infrastructure.topology import (
        HANA_NODE,
        BuildingBlockSpec,
        DatacenterSpec,
        paper_region_spec,
    )
    from repro.resilience.chaos import ChaosConfig, chaos_topology

    if "paper_scale" in spec:
        return paper_region_spec(spec["paper_scale"])
    shape = spec["chaos"]
    base = chaos_topology(
        ChaosConfig(
            building_blocks_per_az=shape["building_blocks_per_az"],
            nodes_per_bb=shape["nodes_per_bb"],
        )
    )
    template = base.datacenters[0].building_blocks
    datacenters = []
    for az in range(1, shape["azs"] + 1):
        general = tuple(
            replace(bb, bb_id=f"az{az}-bb{i}") for i, bb in enumerate(template)
        )
        hana = BuildingBlockSpec(
            bb_id=f"az{az}-hana",
            node_count=shape["hana_nodes"],
            node_capacity=HANA_NODE,
            overcommit=HANA_OVERCOMMIT,
            aggregate_class="hana",
            policy="pack",
        )
        datacenters.append(
            DatacenterSpec(dc_id=f"dc{az}", az_id=f"az{az}", building_blocks=general + (hana,))
        )
    return replace(base, datacenters=tuple(datacenters))


# -- figure pipeline -------------------------------------------------------------


class FiguresJob:
    """Dataset generation, the experiments report and the calibration checks."""

    def __init__(self, config: dict) -> None:
        from repro.analysis.report import render_experiments_report
        from repro.datagen import GeneratorConfig, generate_dataset
        from repro.datagen.validation import validate_dataset

        self.generator_config = GeneratorConfig(**config["generator"])
        self.generate = generate_dataset
        self.render = render_experiments_report
        self.validate = validate_dataset
        self.dataset = self.report = self.validation = None

    def run(self) -> None:
        self.dataset = self.generate(self.generator_config)
        self.report = self.render(self.dataset)
        self.validation = self.validate(self.dataset)

    def checks(self) -> list[tuple[str, bool, str]]:
        out = [
            (f"validate.{c.name}", bool(c.passed), str(c)) for c in self.validation.checks
        ]
        out.append(("report.nonempty", bool(self.report.strip()), f"{len(self.report)} chars"))
        return out

    def ops(self) -> tuple[int, int]:
        """Each calibration check is one operation."""
        checks = self.validation.checks
        return len(checks), sum(1 for c in checks if not c.passed)

    def summary(self) -> dict:
        summary = self.dataset.summary()
        return {
            "nodes": summary["nodes"],
            "vms": summary["vms"],
            "building_blocks": summary["building_blocks"],
            "samples": summary["samples"],
            "metrics": len(summary["metrics"]),
            "meta": digest_of(self.dataset.meta),
            "store_fingerprint": self.dataset.store.content_fingerprint(),
            "report": digest_of(self.report),
            "validation": digest_of([[c.name, c.measured] for c in self.validation.checks]),
        }

    def attach(self, tracer) -> None:
        import repro.analysis.figures as figures
        import repro.analysis.tables as tables
        import repro.datagen.generator as generator

        tracer.patch(generator, "sample_population", "datagen.sample_population")
        for fn in FIGURE_FUNCTIONS:
            tracer.patch(figures, fn, f"analysis.{fn}")
        for fn in TABLE_FUNCTIONS:
            tracer.patch(tables, fn, f"analysis.{fn}")
        _patch_store_class(tracer)
        tracer.patch(self, "generate", "datagen.generate")
        tracer.patch(self, "render", "analysis.report")
        tracer.patch(self, "validate", "analysis.validate")

    def layers(self, tracer, wall_s: float) -> dict:
        t = tracer
        m = {name: 0.0 for name, _, _ in PER_LAYER}
        top = ("datagen.generate", "analysis.report", "analysis.validate")
        m["trace.unattributed_frac"] = _ratio(wall_s - sum(t.busy(n) for n in top), wall_s)
        m["datagen.generate.busy_s"] = t.busy("datagen.generate")
        m["datagen.sample_population.busy_s"] = t.busy("datagen.sample_population")
        for fn in FIGURE_FUNCTIONS + TABLE_FUNCTIONS:
            m[f"analysis.{fn}.busy_s"] = t.busy(f"analysis.{fn}")
        m["analysis.report.busy_s"] = t.busy("analysis.report")
        m["analysis.validate.busy_s"] = t.busy("analysis.validate")
        m["telemetry.samples"] = self.dataset.store.sample_count()
        _common_layers(t, m)
        return m


def build(config: dict):
    """The job for one config."""
    return FiguresJob(config) if config["kind"] == "figures" else SimJob(config)
