"""The regional discrete-event simulation.

Drives the full two-layer architecture: VM requests flow through the Nova
:class:`~repro.scheduler.pipeline.FilterScheduler` (BB-level placement with
placement-API claims), land on a node chosen by the BB's policy, are
periodically rebalanced by :class:`~repro.drs.balancer.DrsBalancer`, and are
scraped through the exporters into a metric store — the §4 measurement
pipeline running against live simulated state.

This is the substrate for the scheduler ablation benchmarks; the bulk
telemetry of the figure benchmarks comes from the faster vectorised
:mod:`repro.datagen` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.faults import (
    EvacuationManager,
    FaultConfig,
    FaultInjector,
    FaultReport,
    MigrationFaultModel,
    ScrapePartition,
    TelemetryFaultModel,
    domain_members,
)
from repro.infrastructure.flavors import FLAVOR_MIX, FlavorCatalog, default_catalog
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode, Region
from repro.infrastructure.topology import TopologySpec, build_region
from repro.infrastructure.vm import VM, LiveVMIndex, VMState
from repro.resilience.admission import AdmissionController, AdmissionRejected
from repro.resilience.config import ResilienceConfig
from repro.resilience.health import HostHealthService
from repro.resilience.invariants import InvariantChecker
from repro.resilience.reconciler import InventoryReconciler
from repro.resilience.report import ResilienceReport
from repro.sampling import categorical_cdf, draw
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.filters import QuarantineFilter, default_filters
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import (
    ADMISSION_RETRY,
    DOMAIN_FAIL,
    DOMAIN_RECOVER,
    DRS_RUN,
    EVAC_RETRY,
    HEALTH_CHECK,
    HOST_FAIL,
    HOST_RECOVER,
    INVARIANT_CHECK,
    MAINT_END,
    MAINT_START,
    PARTITION_END,
    PARTITION_START,
    QUARANTINE_END,
    RECONCILE,
    SCRAPE,
    VM_CREATE,
    VM_DELETE,
    VM_RESIZE,
)
from repro.simulation.hostsched import HostCpuModel
from repro.telemetry.exporters import NodeUsage, NovaExporter, VropsExporter
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import STALE
from repro.workloads.demand import DemandModel, VMDemand
from repro.workloads.lifetime import sample_lifetime
from repro.workloads.profiles import profile_for_flavor
from repro.workloads.waveform import CompiledDemand, compile_demand


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for one regional simulation."""

    duration_days: float = 3.0
    scrape_interval_s: float = 900.0
    #: Seconds between DRS passes; None runs no DRS pass at all.
    drs_interval_s: float | None = 3600.0
    #: VM arrivals per hour (Poisson).
    arrival_rate_per_hour: float = 20.0
    #: Resize events per hour (Poisson); a random live VM changes flavor.
    resize_rate_per_hour: float = 0.0
    #: Maintenance windows per day (Poisson); a random node drains for
    #: ``maintenance_duration_s`` (VMs stay, new placements avoid it).
    maintenance_rate_per_day: float = 0.0
    maintenance_duration_s: float = 4 * 3600.0
    #: Initial VMs to place before the clock starts.
    initial_vms: int = 200
    seed: int = 7
    start_time: float = 0.0
    #: Placement strategy: "nova" (BB-level filter/weigher pipeline) or
    #: "holistic" (node-level single-layer scheduler, §7).
    scheduler_factory: str = "nova"
    #: Scheduler knobs; None means the default config in fast mode (the
    #: per-filter trace off — placements are identical, see SchedulerConfig).
    scheduler_config: SchedulerConfig | None = None
    #: Fault-injection knobs (host failures, migration aborts, telemetry
    #: gaps); None runs the happy path with zero injection overhead.
    faults: FaultConfig | None = None
    #: Control-plane resilience knobs (host health / quarantine, admission
    #: control, reconciliation, invariants); None disables the layer.
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        # A zero interval would schedule its recurring event forever.
        for name in ("duration_days", "scrape_interval_s", "drs_interval_s"):
            value = getattr(self, name)
            if value is None and name == "drs_interval_s":
                continue
            if not value > 0:
                raise ValueError(f"SimulationConfig.{name} must be > 0, got {value!r}")


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one run."""

    region: Region
    store: MetricStore
    placement: PlacementService
    scheduler_stats: dict[str, int]
    drs_migrations: int
    created: int
    deleted: int
    rejected: int
    events_processed: int
    vms: dict[str, VM] = field(default_factory=dict)
    resized: int = 0
    resize_failed: int = 0
    maintenance_windows: int = 0
    fault_report: FaultReport | None = None
    resilience_report: ResilienceReport | None = None


class RegionSimulation:
    """Wires engine + scheduler + DRS + telemetry for one region."""

    def __init__(
        self,
        spec: TopologySpec,
        config: SimulationConfig | None = None,
        scheduler: FilterScheduler | None = None,
        catalog: FlavorCatalog | None = None,
        journal: Callable[[dict], None] | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.region = build_region(spec)
        self.placement = PlacementService()
        for bb in self.region.iter_building_blocks():
            self.placement.register_building_block(bb)
        # -- audit journal: one sink receives every control-plane record
        # (sim-clock advances, placement claims/releases, quarantine
        # transitions, admission decisions).  ``repro chaos --journal``
        # plugs a JournalWriter's append in here.
        self.journal = journal
        if journal is not None:
            self.placement.add_journal_sink(
                lambda event, cid, pid, amounts: journal(
                    {"t": event, "vm": cid, "bb": pid,
                     "amounts": dict(amounts)}
                )
            )
        scheduler_config = self.config.scheduler_config or SchedulerConfig().fast()

        # -- resilience layer, part 1: the health service must exist before
        # the scheduler so its QuarantineFilter can join the filter chain.
        resilience = self.config.resilience
        self.resilience_report: ResilienceReport | None = None
        self.health: HostHealthService | None = None
        self.admission: AdmissionController | None = None
        self.reconciler: InventoryReconciler | None = None
        self.invariants: InvariantChecker | None = None
        if resilience is not None:
            self.resilience_report = ResilienceReport(seed=resilience.seed)
            self.health = HostHealthService(
                self.region,
                resilience,
                self.resilience_report,
                rng=np.random.default_rng(resilience.seed),
            )
            self.health.journal_sink = journal
            filters = (
                list(scheduler_config.filters)
                if scheduler_config.filters is not None
                else default_filters()
            )
            filters.append(QuarantineFilter(self.health))
            scheduler_config = replace(scheduler_config, filters=filters)

        if scheduler is not None:
            self.scheduler = scheduler
        elif self.config.scheduler_factory == "holistic":
            from repro.core.advanced_placement import HolisticNodeScheduler

            self.scheduler = HolisticNodeScheduler(
                self.region, self.placement, scheduler_config
            )
        elif self.config.scheduler_factory == "nova":
            self.scheduler = FilterScheduler(
                self.region, self.placement, scheduler_config
            )
        else:
            raise ValueError(
                f"unknown scheduler_factory {self.config.scheduler_factory!r}"
            )
        self.catalog = catalog or default_catalog()
        self.store = MetricStore()
        self.vrops = VropsExporter()
        self.nova_exporter = NovaExporter()
        self.drs = DrsBalancer(config=DrsConfig())
        self.demand_model = DemandModel(self.rng)
        self.engine = SimulationEngine(start_time=self.config.start_time)
        self.engine.journal_sink = journal
        self.engine.on(VM_CREATE, self._handle_create)
        self.engine.on(VM_DELETE, self._handle_delete)
        self.engine.on(VM_RESIZE, self._handle_resize)
        self.engine.on(SCRAPE, self._handle_scrape)
        self.engine.on(DRS_RUN, self._handle_drs)
        self.engine.on(MAINT_START, self._handle_maintenance_start)
        self.engine.on(MAINT_END, self._handle_maintenance_end)

        # -- resilience layer, part 2: everything downstream of the scheduler.
        if resilience is not None:
            self.health.attach_scheduler(self.scheduler)
            self.admission = AdmissionController(
                self.scheduler,
                resilience,
                self.resilience_report,
                rng=np.random.default_rng(resilience.seed + 1),
            )
            self.admission.journal_sink = journal
            self.reconciler = InventoryReconciler(
                self, resilience, self.resilience_report
            )
            self.invariants = InvariantChecker(
                self, resilience, self.resilience_report, health=self.health
            )
            self.engine.on(HEALTH_CHECK, self._handle_health_check)
            self.engine.on(QUARANTINE_END, self._handle_quarantine_end)
            # An admission retry is a deferred VM_CREATE with its identity
            # and deadline already fixed; the same handler serves both.
            self.engine.on(ADMISSION_RETRY, self._handle_create)
            self.engine.on(RECONCILE, self._handle_reconcile)
            self.engine.on(INVARIANT_CHECK, self._handle_invariant_check)

        # -- fault injection (all None/inert when config.faults is unset) -----
        faults = self.config.faults
        self.fault_report: FaultReport | None = None
        self.fault_injector: FaultInjector | None = None
        self.evacuation: EvacuationManager | None = None
        self.migration_faults: MigrationFaultModel | None = None
        self.telemetry_faults: TelemetryFaultModel | None = None
        self.partition: ScrapePartition | None = None
        if faults is not None:
            self.fault_report = FaultReport(seed=faults.seed)
            self.fault_injector = FaultInjector(faults)
            self.evacuation = EvacuationManager(self, faults, self.fault_report)
            # Each model owns an independent sub-seeded RNG so one fault
            # class's draw volume cannot shift another's replay.
            self.migration_faults = MigrationFaultModel(
                faults.migration_abort_fraction, seed=faults.seed + 1
            )
            self.telemetry_faults = TelemetryFaultModel(
                faults.scrape_gap_probability,
                faults.stale_node_probability,
                seed=faults.seed + 2,
            )
            self.partition = ScrapePartition()
            self.engine.on(HOST_FAIL, self._handle_host_fail)
            self.engine.on(HOST_RECOVER, self._handle_host_recover)
            self.engine.on(EVAC_RETRY, self._handle_evac_retry)
            self.engine.on(DOMAIN_FAIL, self._handle_domain_fail)
            self.engine.on(DOMAIN_RECOVER, self._handle_domain_recover)
            self.engine.on(PARTITION_START, self._handle_partition_start)
            self.engine.on(PARTITION_END, self._handle_partition_end)

        self.vms: dict[str, VM] = {}
        #: ``self.vms`` in creation order with the live ones indexable:
        #: resize picks its victim here instead of filtering every VM ever
        #: created.
        self._live = LiveVMIndex()
        self.demands: dict[str, VMDemand] = {}
        #: Per-VM compiled waveform evaluators (scrape and DRS load).
        #: Entries are validated by demand-object identity on every use and
        #: recompiled on mismatch, so create/resize (which swap the
        #: VMDemand) can never be served a stale waveform; ``drop_demand``
        #: removes the entry with the demand.
        self._compiled: dict[str, CompiledDemand] = {}
        self._stale_usage = NodeUsage(
            cpu_used_fraction=STALE,
            memory_used_fraction=STALE,
            network_tx_kbps=STALE,
            network_rx_kbps=STALE,
            disk_used_gb=STALE,
            cpu_ready_ms=STALE,
            cpu_contention_fraction=STALE,
        )
        self._vm_counter = 0
        self.created = 0
        self.deleted = 0
        self.rejected = 0
        self.drs_migrations = 0
        self.resized = 0
        self.resize_failed = 0
        self.maintenance_windows = 0
        self._node_index: dict[str, ComputeNode] = {
            n.node_id: n for n in self.region.iter_nodes()
        }
        self._bb_index: dict[str, BuildingBlock] = {
            bb.bb_id: bb for bb in self.region.iter_building_blocks()
        }
        self._cpu_models: dict[str, HostCpuModel] = {
            n.node_id: HostCpuModel(n.physical.vcpus, efficiency=0.97)
            for n in self.region.iter_nodes()
        }
        # The arrival flavor mix over this catalog, fixed at construction.
        mix = [(n, w) for n, w in FLAVOR_MIX if w > 0 and n in self.catalog]
        self._mix_flavors = [self.catalog.get(n) for n, _ in mix]
        weights = np.asarray([w for _, w in mix])
        self._mix_cdf = categorical_cdf(weights / weights.sum())

    # -- public API ---------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Seed the population, schedule recurring events, run to the end."""
        start = self.config.start_time
        end = start + self.config.duration_days * 86_400.0
        for _ in range(self.config.initial_vms):
            self.engine.schedule(start, VM_CREATE)
        self._schedule_poisson(start, end, self.config.arrival_rate_per_hour / 3600.0, VM_CREATE)
        self._schedule_poisson(start, end, self.config.resize_rate_per_hour / 3600.0, VM_RESIZE)
        self._schedule_poisson(
            start, end, self.config.maintenance_rate_per_day / 86_400.0, MAINT_START
        )
        t = start
        while t < end:
            self.engine.schedule(t, SCRAPE)
            t += self.config.scrape_interval_s
        drs_interval = self.config.drs_interval_s
        if drs_interval is not None:
            t = start + drs_interval
            while t < end:
                self.engine.schedule(t, DRS_RUN)
                t += drs_interval
        if self.fault_injector is not None:
            self.fault_injector.schedule_host_failures(self.engine, start, end)
            self.fault_injector.schedule_domain_outages(self.engine, start, end)
            self.fault_injector.schedule_partitions(self.engine, start, end)
            self.fault_injector.schedule_flapping(self.engine, start, self.region)
        if self.config.resilience is not None:
            rcfg = self.config.resilience
            self._schedule_recurring(start, end, rcfg.heartbeat_interval_s, HEALTH_CHECK)
            self._schedule_recurring(start, end, rcfg.reconcile_interval_s, RECONCILE)
            self._schedule_recurring(
                start, end, rcfg.invariant_interval_s, INVARIANT_CHECK
            )
        self.engine.run_until(end)
        if self.invariants is not None:
            # The terminal sweep: a run only counts as clean if the
            # invariants hold over its *final* state too.
            self.invariants.check(self.engine.now)
        if self.fault_report is not None:
            self.fault_report.migrations_attempted = self.migration_faults.attempted
            self.fault_report.migrations_aborted = self.migration_faults.aborted
            self.fault_report.scrape_gaps = self.telemetry_faults.gaps
            self.fault_report.stale_node_scrapes = self.telemetry_faults.stale_scrapes
            self.fault_report.partitions = self.partition.partitions_started
            self.fault_report.blackholed_scrapes = self.partition.blackholed_scrapes
            self.fault_report.skipped_draws = self.fault_injector.skipped_draws
        scheduler_stats = dict(self.scheduler.stats)
        if self.resilience_report is not None:
            r = self.resilience_report
            scheduler_stats.update(
                admission_submitted=r.requests_submitted,
                admission_admitted=r.requests_admitted,
                admission_shed_rate_limit=r.shed_rate_limit,
                admission_shed_breaker=r.shed_breaker,
                admission_retries=r.retries_scheduled,
                admission_deadline_exceeded=r.deadline_exceeded,
                admission_breaker_opens=r.breaker_opens + r.bb_breaker_opens,
            )
        return SimulationResult(
            region=self.region,
            store=self.store,
            placement=self.placement,
            scheduler_stats=scheduler_stats,
            drs_migrations=self.drs_migrations,
            created=self.created,
            deleted=self.deleted,
            rejected=self.rejected,
            events_processed=self.engine.processed,
            vms=self.vms,
            resized=self.resized,
            resize_failed=self.resize_failed,
            maintenance_windows=self.maintenance_windows,
            fault_report=self.fault_report,
            resilience_report=self.resilience_report,
        )

    # -- event handlers ----------------------------------------------------------

    def _schedule_poisson(
        self, start: float, end: float, rate_s: float, kind: str
    ) -> None:
        if rate_s <= 0:
            return
        t = start
        while True:
            t += float(self.rng.exponential(1.0 / rate_s))
            if t >= end:
                break
            self.engine.schedule(t, kind)

    def _schedule_recurring(
        self, start: float, end: float, interval_s: float, kind: str
    ) -> None:
        if interval_s <= 0:
            return
        t = start + interval_s
        while t < end:
            self.engine.schedule(t, kind)
            t += interval_s

    def _handle_create(self, engine: SimulationEngine, event) -> None:
        payload = event.payload
        if "vm_id" in payload:
            # An ADMISSION_RETRY: identity, profile, and deadline were fixed
            # at first submission; only the clock has moved.
            vm_id = payload["vm_id"]
            flavor = payload["flavor"]
            profile = payload["profile"]
            deadline = payload["deadline"]
        else:
            vm_id = f"sim-vm-{self._vm_counter:06d}"
            self._vm_counter += 1
            flavor = self._pick_flavor()
            profile = profile_for_flavor(flavor, self.rng)
            deadline = (
                engine.now + self.config.resilience.request_deadline_s
                if self.admission is not None
                else 0.0
            )
        spec = RequestSpec(vm_id=vm_id, flavor=flavor)
        try:
            if self.admission is not None:
                result = self.admission.submit(spec, engine.now)
            else:
                result = self.scheduler.schedule(spec)
        except AdmissionRejected as shed:
            self._schedule_admission_retry(
                engine, shed, vm_id, flavor, profile, deadline
            )
            return
        except NoValidHost:
            self.rejected += 1
            return
        bb = self._bb_index.get(result.host_id)
        node = (
            self._node_index.get(result.host_id)
            if bb is None
            else bb.pick_node(flavor.requested())
        )
        if bb is None:
            # Holistic scheduler returned a node id directly.
            bb = self._bb_index[node.building_block] if node is not None else None
        if node is None or bb is None:
            # BB had placement room but no single node fits: release and drop.
            self.placement.release(vm_id)
            self.rejected += 1
            return
        vm = VM(vm_id=vm_id, flavor=flavor, created_at=engine.now)
        vm.transition(VMState.BUILDING)
        vm.transition(VMState.ACTIVE)
        node.add_vm(vm)
        self.vms[vm_id] = vm
        self._live.add(vm)
        self.demands[vm_id] = self.demand_model.demand_for(flavor, profile)
        self.created += 1
        lifetime = sample_lifetime(profile.name, self.rng)
        engine.schedule(engine.now + lifetime, VM_DELETE, vm_id=vm_id)

    def _handle_delete(self, engine: SimulationEngine, event) -> None:
        vm_id = event.payload["vm_id"]
        vm = self.vms.get(vm_id)
        if vm is None or not vm.alive:
            return
        node = self._node_index[vm.node_id]
        node.remove_vm(vm_id)
        vm.transition(VMState.DELETED)
        vm.deleted_at = engine.now
        self.placement.release(vm_id)
        self.drop_demand(vm_id)
        self.deleted += 1

    def drop_demand(self, vm_id: str) -> None:
        """Forget a VM's demand model and its compiled evaluator.

        Called when the VM leaves the simulation for good: on delete, and
        when an evacuation dead-letters it.
        """
        self.demands.pop(vm_id, None)
        self._compiled.pop(vm_id, None)

    def _handle_resize(self, engine: SimulationEngine, event) -> None:
        """Resize a random live VM to the next-larger same-family flavor.

        Nova resizes re-run the scheduler; the VM may land on a different
        compute host.  On failure the original allocation is restored.
        """
        live = self._live
        if not live:
            return
        vm = live.nth_live(int(self.rng.integers(0, len(live))))
        new_flavor = self.catalog.next_larger(vm.flavor)
        if new_flavor is None:
            return
        old_flavor = vm.flavor
        old_node = self._node_index[vm.node_id]
        old_bb = self._bb_index[old_node.building_block]

        vm.transition(VMState.RESIZING)
        old_node.remove_vm(vm.vm_id)
        self.placement.release(vm.vm_id)
        spec = RequestSpec(
            vm_id=vm.vm_id, flavor=new_flavor, operation="resize"
        )
        try:
            result = self.scheduler.schedule(spec)
            bb = self._bb_index.get(result.host_id)
            node = (
                self._node_index.get(result.host_id)
                if bb is None
                else bb.pick_node(new_flavor.requested())
            )
            if node is None:
                raise NoValidHost("no node fits the resized VM")
        except NoValidHost:
            # Roll back: re-claim the original size on the original host.
            if self.placement.allocation_for(vm.vm_id) is not None:
                self.placement.release(vm.vm_id)
            self.placement.claim(vm.vm_id, old_bb.bb_id, old_flavor.requested())
            old_node.add_vm(vm)
            vm.transition(VMState.ACTIVE)
            self.resize_failed += 1
            return
        vm.flavor = new_flavor
        node.add_vm(vm)
        vm.transition(VMState.ACTIVE)
        self.demands[vm.vm_id] = self.demand_model.demand_for(
            new_flavor, profile_for_flavor(new_flavor, self.rng)
        )
        self._compiled.pop(vm.vm_id, None)
        self.resized += 1

    def _schedule_admission_retry(
        self,
        engine: SimulationEngine,
        shed: AdmissionRejected,
        vm_id: str,
        flavor,
        profile,
        deadline: float,
    ) -> None:
        """Requeue a shed request, or drop it once its deadline has passed."""
        retry_at = engine.now + max(1.0, shed.retry_after_s)
        if retry_at > deadline:
            self.resilience_report.deadline_exceeded += 1
            self.rejected += 1
            return
        self.resilience_report.retries_scheduled += 1
        engine.schedule(
            retry_at,
            ADMISSION_RETRY,
            vm_id=vm_id,
            flavor=flavor,
            profile=profile,
            deadline=deadline,
        )

    def _handle_health_check(self, engine: SimulationEngine, event) -> None:
        self.health.on_heartbeat(engine, engine.now)

    def _handle_quarantine_end(self, engine: SimulationEngine, event) -> None:
        self.health.on_quarantine_end(
            engine, event.payload["node_id"], event.payload["epoch"]
        )

    def _handle_reconcile(self, engine: SimulationEngine, event) -> None:
        self.reconciler.reconcile(engine.now)

    def _handle_invariant_check(self, engine: SimulationEngine, event) -> None:
        self.invariants.check(engine.now)

    def _handle_host_fail(self, engine: SimulationEngine, event) -> None:
        """A hypervisor dies: evacuate its VMs, schedule its repair."""
        payload = event.payload
        if "node_id" in payload:
            # Targeted (flapping) failure with a fixed repair delay.
            victim = self.fault_injector.targeted_victim(
                self._node_index, payload["node_id"]
            )
        else:
            victim = self.fault_injector.pick_victim(self._node_index.values())
        if victim is None:
            return  # everything is already down, draining, or fenced
        self.evacuation.on_host_fail(engine, victim)
        repair_s = payload.get("repair_s")
        if repair_s is None:
            repair_s = self.fault_injector.draw_repair_time()
        engine.schedule(
            engine.now + repair_s,
            HOST_RECOVER,
            node_id=victim.node_id,
        )

    def _handle_domain_fail(self, engine: SimulationEngine, event) -> None:
        """A whole failure domain (AZ or building block) goes dark at once."""
        scope = event.payload["scope"]
        domain = self.fault_injector.pick_domain(self.region, scope)
        if domain is None:
            return  # no domain with a healthy node left
        victims = [
            n for n in domain_members(self.region, scope, domain) if n.healthy
        ]
        for node in victims:
            self.evacuation.on_host_fail(engine, node)
        report = self.fault_report
        if scope == "az":
            report.az_outages += 1
        else:
            report.bb_outages += 1
        report.outage_domains.append(f"{scope}:{domain}")
        report.domain_nodes_failed += len(victims)
        engine.schedule(
            engine.now + self.fault_injector.draw_outage_duration(),
            DOMAIN_RECOVER,
            node_ids=tuple(n.node_id for n in victims),
        )

    def _handle_domain_recover(self, engine: SimulationEngine, event) -> None:
        for node_id in event.payload["node_ids"]:
            self.evacuation.on_host_recover(engine, self._node_index[node_id])

    def _handle_partition_start(self, engine: SimulationEngine, event) -> None:
        """Exporter↔store partition: a domain's scrapes blackhole."""
        scope = event.payload["scope"]
        domain = self.fault_injector.pick_partition_domain(self.region, scope)
        if domain is None:
            return
        node_ids = frozenset(
            n.node_id for n in domain_members(self.region, scope, domain)
        )
        token = self.partition.start(node_ids)
        engine.schedule(
            engine.now + self.fault_injector.draw_partition_duration(),
            PARTITION_END,
            token=token,
        )

    def _handle_partition_end(self, engine: SimulationEngine, event) -> None:
        self.partition.end(event.payload["token"])

    def _handle_host_recover(self, engine: SimulationEngine, event) -> None:
        node = self._node_index[event.payload["node_id"]]
        self.evacuation.on_host_recover(engine, node)

    def _handle_evac_retry(self, engine: SimulationEngine, event) -> None:
        self.evacuation.on_retry(engine, event)

    def _handle_maintenance_start(self, engine: SimulationEngine, event) -> None:
        """Drain a random node: placements avoid it until the window ends."""
        nodes = [n for n in self._node_index.values() if n.healthy]
        if not nodes:
            return
        node = nodes[int(self.rng.integers(0, len(nodes)))]
        node.maintenance = True
        self.maintenance_windows += 1
        engine.schedule(
            engine.now + self.config.maintenance_duration_s,
            MAINT_END,
            node_id=node.node_id,
        )

    def _handle_maintenance_end(self, engine: SimulationEngine, event) -> None:
        self._node_index[event.payload["node_id"]].maintenance = False

    def _handle_scrape(self, engine: SimulationEngine, event) -> None:
        """One scrape tick: every live node's vROps samples plus Nova's.

        Demand is evaluated as scalars by the compiled waveforms and the
        values go straight into the store's column buffers through
        interned series handles, with zero per-sample objects.  The
        compiled evaluators reproduce ``VMDemand.evaluate``'s float
        operations and RNG consumption bit for bit, so this is
        byte-identical to the per-sample reference scrape in
        :mod:`repro.verify.reference` (same fault-draw order, same skip
        logic, same arithmetic).
        """
        if self.telemetry_faults is not None and self.telemetry_faults.scrape_missed():
            return  # whole cycle lost: an honest hole in every series
        now = engine.now
        store = self.store
        vrops = self.vrops
        demands = self.demands
        compiled = self._compiled
        interval = self.config.scrape_interval_s
        for node in self._node_index.values():
            if node.failed:
                continue  # dead host, dead exporter: no samples at all
            if self.partition is not None and self.partition.is_blackholed(
                node.node_id
            ):
                continue  # exporter unreachable: the domain's series freeze
            if self.telemetry_faults is not None and self.telemetry_faults.node_is_stale(
                node.node_id
            ):
                # Exporter answered with stale data: same timestamps,
                # every value a staleness marker.
                vrops.emit_node(store, node, self._stale_usage, now)
                continue
            cpu_demand = 0.0
            mem_mb = 0.0
            tx = rx = 0.0
            disk = 0.0
            for vm in node.vms.values():
                demand = demands.get(vm.vm_id)
                if demand is None:
                    continue
                cd = compiled.get(vm.vm_id)
                if cd is None or cd.demand is not demand:
                    cd = compiled[vm.vm_id] = compile_demand(demand)
                cpu_c, mem_c, tx_c, rx_c, disk_c = cd.evaluate(now)
                cpu_demand += cpu_c
                mem_mb += mem_c
                tx += tx_c
                rx += rx_c
                disk += disk_c
            usage_window = self._cpu_models[node.node_id].resolve_window(
                cpu_demand, interval
            )
            usage = NodeUsage(
                cpu_used_fraction=min(1.0, usage_window.cpu_used_fraction + 0.02),
                memory_used_fraction=min(
                    1.0, mem_mb / node.physical.memory_mb + 0.04
                ),
                network_tx_kbps=tx,
                network_rx_kbps=rx,
                disk_used_gb=min(disk, node.physical.disk_gb),
                cpu_ready_ms=usage_window.cpu_ready_ms,
                cpu_contention_fraction=usage_window.cpu_contention_fraction,
            )
            vrops.emit_node(store, node, usage, now)
        self.nova_exporter.emit_region(store, self.region, now)

    def _handle_drs(self, engine: SimulationEngine, event) -> None:
        now = engine.now
        demands = self.demands
        compiled = self._compiled

        def load_fn(vm: VM) -> float:
            demand = demands.get(vm.vm_id)
            if demand is None:
                return float(vm.flavor.vcpus)
            cd = compiled.get(vm.vm_id)
            if cd is None or cd.demand is not demand:
                cd = compiled[vm.vm_id] = compile_demand(demand)
            return cd.evaluate(now)[0]

        for bb in self._bb_index.values():
            if bb.policy == "pack":
                continue  # DRS load-balancing is for spread BBs.
            migrations = self.drs.run(bb, load_fn=load_fn, fault_model=self.migration_faults)
            self.drs_migrations += len(migrations)

    # -- helpers ------------------------------------------------------------------

    def _pick_flavor(self):
        return self._mix_flavors[draw(self._mix_cdf, self.rng)]
