"""Tests for the control-plane resilience layer (repro.resilience)."""

import json
import math
from dataclasses import fields

import pytest

from repro.cli import main
from repro.faults import FaultConfig, FaultInjector, ScrapePartition, domain_ids, domain_members
from repro.infrastructure.topology import build_region
from repro.infrastructure.vm import VM, VMState
from repro.resilience import (
    AdmissionController,
    AdmissionRejected,
    HealthState,
    HostHealthService,
    InvariantChecker,
    InvariantViolationError,
    InventoryReconciler,
    ResilienceConfig,
    ResilienceReport,
)
from repro.scheduler.filters import QuarantineFilter
from repro.scheduler.hoststate import HostState
from repro.scheduler.index import HostStateIndex
from repro.scheduler.pipeline import NoValidHost
from repro.scheduler.placement import VCPU, PlacementService
from repro.scheduler.request import RequestSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EVAC_RETRY, QUARANTINE_END
from tests.conftest import build_tiny_region_spec


@pytest.fixture
def region():
    return build_region(build_tiny_region_spec())


def make_health(region, **overrides):
    kwargs = {"quarantine_jitter_s": 0.0}
    kwargs.update(overrides)
    config = ResilienceConfig(**kwargs)
    report = ResilienceReport(seed=config.seed)
    return HostHealthService(region, config, report), report


def wire_quarantine_end(engine, health):
    engine.on(
        QUARANTINE_END,
        lambda eng, ev: health.on_quarantine_end(
            eng, ev.payload["node_id"], ev.payload["epoch"]
        ),
    )


def flap(engine, health, node, cycles, spacing=100.0):
    """Toggle ``node.failed`` once per heartbeat for ``cycles`` transitions."""
    t = engine.now
    for _ in range(cycles):
        t += spacing
        node.failed = not node.failed
        health.on_heartbeat(engine, t)
    return t


class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"heartbeat_interval_s": 0.0},
            {"flap_threshold": 1},
            {"quarantine_backoff": 0.5},
            {"bb_quarantine_fraction": 0.0},
            {"admission_burst": 0},
            {"request_deadline_s": 0.0},
            {"breaker_threshold": 0},
            {"reconcile_interval_s": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", [f.name for f in fields(ResilienceConfig) if f.type == "float"]
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            ResilienceConfig(**{field: value})

    def test_from_dict_rejects_json_infinity(self):
        data = json.loads('{"heartbeat_interval_s": Infinity}')
        with pytest.raises(
            ValueError, match="heartbeat_interval_s must be finite, got inf"
        ):
            ResilienceConfig.from_dict(data)


class TestHostHealthService:
    def test_stable_nodes_stay_healthy(self, region):
        health, report = make_health(region)
        engine = SimulationEngine()
        for t in range(1, 6):
            health.on_heartbeat(engine, t * 300.0)
        assert report.heartbeats == 5
        assert report.flaps_detected == 0
        assert all(not n.quarantined for n in region.iter_nodes())

    def test_flapping_node_is_quarantined(self, region):
        health, report = make_health(region, flap_threshold=4)
        engine = SimulationEngine()
        node = next(region.iter_nodes())
        node.failed = False
        flap(engine, health, node, cycles=4)
        assert report.flaps_detected == 1
        assert report.quarantines == 1
        assert node.quarantined
        assert health.state_of(node.node_id) is HealthState.QUARANTINED
        assert node.node_id in health.quarantined_hosts
        # The resident snapshot is frozen at quarantine time.
        assert health.quarantine_residents[node.node_id] == frozenset(node.vms)
        assert len(engine.iter_pending(QUARANTINE_END)) == 1

    def test_single_failure_is_not_flapping(self, region):
        health, report = make_health(region, flap_threshold=4)
        engine = SimulationEngine()
        node = next(region.iter_nodes())
        node.failed = True
        health.on_heartbeat(engine, 300.0)
        assert report.transitions_observed == 1
        assert report.flaps_detected == 0
        assert not node.quarantined

    def test_transitions_outside_window_are_pruned(self, region):
        health, report = make_health(region, flap_threshold=4, flap_window_s=250.0)
        engine = SimulationEngine()
        node = next(region.iter_nodes())
        # 100 s apart: only ~2 transitions ever fit in a 250 s window.
        flap(engine, health, node, cycles=8, spacing=100.0)
        assert report.flaps_detected == 0

    def test_readmission_and_probation_pass(self, region):
        health, report = make_health(region, flap_threshold=2, probation_s=600.0)
        engine = SimulationEngine()
        wire_quarantine_end(engine, health)
        node = next(region.iter_nodes())
        end = flap(engine, health, node, cycles=2)
        node.failed = False
        assert node.quarantined
        engine.run_until(end + 3 * 3600.0)
        assert not node.quarantined
        assert report.readmissions == 1
        assert health.state_of(node.node_id) is HealthState.PROBATION
        health.on_heartbeat(engine, engine.now + 700.0)
        assert health.state_of(node.node_id) is HealthState.HEALTHY
        assert report.probations_passed == 1

    def test_failure_during_probation_requarantines(self, region):
        health, report = make_health(region, flap_threshold=2, probation_s=3600.0)
        engine = SimulationEngine()
        wire_quarantine_end(engine, health)
        node = next(region.iter_nodes())
        end = flap(engine, health, node, cycles=2)
        node.failed = False
        engine.run_until(end + 3 * 3600.0)
        assert health.state_of(node.node_id) is HealthState.PROBATION
        node.failed = True
        health.on_heartbeat(engine, engine.now + 100.0)
        assert report.probation_failures == 1
        assert report.re_quarantines == 1
        assert node.quarantined

    def test_still_failed_at_expiry_stays_fenced(self, region):
        health, report = make_health(region, flap_threshold=2)
        engine = SimulationEngine()
        wire_quarantine_end(engine, health)
        node = next(region.iter_nodes())
        flap(engine, health, node, cycles=2)
        node.failed = True  # hard-down when the quarantine expires
        engine.run_until(engine.now + 3 * 3600.0)
        assert node.quarantined
        assert report.readmissions == 0
        # A re-probe is queued rather than the node being forgotten.
        assert len(engine.iter_pending(QUARANTINE_END)) == 1

    def test_bb_quarantine_at_fraction(self, region):
        health, report = make_health(
            region, flap_threshold=2, bb_quarantine_fraction=0.5
        )
        engine = SimulationEngine()
        # dc1-hana-01 has two nodes: fencing one crosses the 0.5 threshold.
        bb = region.find_building_block("dc1-hana-01")
        node = next(bb.iter_nodes())
        flap(engine, health, node, cycles=2)
        assert "dc1-hana-01" in health.quarantined_bbs
        assert report.bb_quarantines == 1
        assert "dc1-hana-01" in health.quarantined_hosts

    def test_stale_quarantine_end_is_ignored(self, region):
        health, report = make_health(region, flap_threshold=2)
        engine = SimulationEngine()
        node = next(region.iter_nodes())
        flap(engine, health, node, cycles=2)
        health.on_quarantine_end(engine, node.node_id, epoch=0)  # stale epoch
        assert node.quarantined


class TestQuarantineFilter:
    class _Health:
        def __init__(self, fenced):
            self.quarantined_hosts = frozenset(fenced)

    def _state(self, host_id):
        return HostState(host_id=host_id, az="az1")

    def test_rejects_fenced_hosts_only(self):
        flt = QuarantineFilter(self._Health({"bb-bad"}))
        spec = RequestSpec(vm_id="v", flavor=None)
        assert not flt.passes(self._state("bb-bad"), spec)
        assert flt.passes(self._state("bb-good"), spec)

    def test_irrelevant_when_nothing_fenced(self):
        flt = QuarantineFilter(self._Health(set()))
        assert not flt.relevant(RequestSpec(vm_id="v", flavor=None))


class _FakeScheduler:
    """Scheduler stub: scriptable outcomes, claim_observer attach point."""

    def __init__(self, outcomes=None):
        self.claim_observer = None
        self.outcomes = list(outcomes or [])
        self.specs = []

    def schedule(self, spec):
        self.specs.append(spec)
        outcome = self.outcomes.pop(0) if self.outcomes else "ok"
        if outcome == "novalid":
            raise NoValidHost("no host")
        return outcome


def make_admission(scheduler, **overrides):
    kwargs = {"admission_retry_jitter_s": 0.0}
    kwargs.update(overrides)
    config = ResilienceConfig(**kwargs)
    report = ResilienceReport(seed=config.seed)
    return AdmissionController(scheduler, config, report), report


class TestAdmissionController:
    def test_rate_zero_disables_rate_limiting(self):
        admission, report = make_admission(_FakeScheduler(), admission_rate_per_s=0.0)
        for i in range(50):
            admission.submit(RequestSpec(vm_id=f"v{i}", flavor=None), now=0.0)
        assert report.shed_rate_limit == 0
        assert report.requests_admitted == 50

    def test_token_bucket_sheds_and_refills(self):
        admission, report = make_admission(
            _FakeScheduler(), admission_rate_per_s=1.0, admission_burst=2
        )
        admission.submit(RequestSpec(vm_id="v0", flavor=None), now=0.0)
        admission.submit(RequestSpec(vm_id="v1", flavor=None), now=0.0)
        with pytest.raises(AdmissionRejected) as excinfo:
            admission.submit(RequestSpec(vm_id="v2", flavor=None), now=0.0)
        assert excinfo.value.reason == "rate_limit"
        assert excinfo.value.retry_after_s == pytest.approx(1.0)
        assert report.shed_rate_limit == 1
        # One second later one token has refilled.
        admission.submit(RequestSpec(vm_id="v2", flavor=None), now=1.0)
        assert report.requests_admitted == 3

    def test_global_breaker_opens_and_cools_down(self):
        scheduler = _FakeScheduler(outcomes=["novalid", "novalid"])
        admission, report = make_admission(
            scheduler, breaker_threshold=2, breaker_cooldown_s=600.0
        )
        for i in range(2):
            with pytest.raises(NoValidHost):
                admission.submit(RequestSpec(vm_id=f"v{i}", flavor=None), now=0.0)
        assert report.breaker_opens == 1
        with pytest.raises(AdmissionRejected) as excinfo:
            admission.submit(RequestSpec(vm_id="v2", flavor=None), now=1.0)
        assert excinfo.value.reason == "breaker_open"
        assert report.shed_breaker == 1
        # After the cooldown requests reach the scheduler again.
        admission.submit(RequestSpec(vm_id="v3", flavor=None), now=700.0)
        assert len(scheduler.specs) == 3  # the shed request never reached it

    def test_success_resets_breaker_streak(self):
        scheduler = _FakeScheduler(outcomes=["novalid", "ok", "novalid"])
        admission, report = make_admission(scheduler, breaker_threshold=2)
        with pytest.raises(NoValidHost):
            admission.submit(RequestSpec(vm_id="v0", flavor=None), now=0.0)
        admission.submit(RequestSpec(vm_id="v1", flavor=None), now=1.0)
        with pytest.raises(NoValidHost):
            admission.submit(RequestSpec(vm_id="v2", flavor=None), now=2.0)
        assert report.breaker_opens == 0

    def test_bb_breaker_excludes_block(self):
        scheduler = _FakeScheduler()
        admission, report = make_admission(
            scheduler, bb_breaker_threshold=2, bb_breaker_cooldown_s=900.0
        )
        assert scheduler.claim_observer is not None
        scheduler.claim_observer("bb-flaky", False)
        scheduler.claim_observer("bb-flaky", False)
        assert report.bb_breaker_opens == 1
        assert admission.open_bb_circuits(0.0) == frozenset({"bb-flaky"})
        admission.submit(RequestSpec(vm_id="v0", flavor=None), now=0.0)
        assert "bb-flaky" in scheduler.specs[-1].excluded_hosts
        # Expired circuit no longer excludes.
        admission.submit(RequestSpec(vm_id="v1", flavor=None), now=1000.0)
        assert "bb-flaky" not in scheduler.specs[-1].excluded_hosts

    def test_successful_claim_resets_bb_streak(self):
        scheduler = _FakeScheduler()
        admission, report = make_admission(scheduler, bb_breaker_threshold=2)
        scheduler.claim_observer("bb-a", False)
        scheduler.claim_observer("bb-a", True)
        scheduler.claim_observer("bb-a", False)
        assert report.bb_breaker_opens == 0


class _SimStub:
    """Just enough of RegionSimulation for reconciler/invariant units."""

    def __init__(self, region, placement, scheduler=None):
        self.region = region
        self.placement = placement
        self.scheduler = scheduler if scheduler is not None else object()
        self.engine = SimulationEngine()
        self.vms = {}
        self.fault_report = None


def _active_vm(vm_id, catalog, flavor="g_c2_m8"):
    vm = VM(vm_id=vm_id, flavor=catalog.get(flavor))
    vm.transition(VMState.BUILDING)
    vm.transition(VMState.ACTIVE)
    return vm


@pytest.fixture
def sim_stub(region, catalog):
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    return _SimStub(region, placement)


def make_reconciler(sim):
    config = ResilienceConfig()
    report = ResilienceReport(seed=config.seed)
    return InventoryReconciler(sim, config, report), report


def make_checker(sim, health=None, fail_fast=True):
    config = ResilienceConfig(fail_fast=fail_fast)
    report = ResilienceReport(seed=config.seed)
    return InvariantChecker(sim, config, report, health=health), report


class TestInventoryReconciler:
    def test_clean_state_is_a_clean_run(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        node = next(sim_stub.region.iter_nodes())
        sim_stub.placement.claim("vm-0", node.building_block, vm.flavor.requested())
        node.add_vm(vm)
        sim_stub.vms["vm-0"] = vm
        reconciler, report = make_reconciler(sim_stub)
        assert reconciler.reconcile(0.0) == 0
        assert report.reconcile_clean_runs == 1

    def test_orphaned_allocation_released(self, sim_stub, catalog):
        flavor = catalog.get("g_c2_m8")
        sim_stub.placement.claim("vm-ghost", "dc1-gp-00", flavor.requested())
        reconciler, report = make_reconciler(sim_stub)
        assert reconciler.reconcile(0.0) == 1
        assert report.orphaned_allocations_released == 1
        assert sim_stub.placement.allocation_for("vm-ghost") is None

    def test_missing_allocation_claimed(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        node = next(sim_stub.region.iter_nodes())
        node.add_vm(vm)
        sim_stub.vms["vm-0"] = vm
        reconciler, report = make_reconciler(sim_stub)
        assert reconciler.reconcile(0.0) == 1
        assert report.missing_allocations_claimed == 1
        allocation = sim_stub.placement.allocation_for("vm-0")
        assert allocation.provider_id == node.building_block

    def test_mishomed_allocation_moved(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        node = next(sim_stub.region.iter_nodes())  # lives in dc1-gp-00
        node.add_vm(vm)
        sim_stub.vms["vm-0"] = vm
        sim_stub.placement.claim("vm-0", "dc2-gp-00", vm.flavor.requested())
        reconciler, report = make_reconciler(sim_stub)
        assert reconciler.reconcile(0.0) == 1
        assert report.mishomed_allocations_moved == 1
        allocation = sim_stub.placement.allocation_for("vm-0")
        assert allocation.provider_id == node.building_block

    def test_capacity_drift_repaired(self, sim_stub, catalog):
        provider = sim_stub.placement.provider("dc1-gp-00")
        provider.used[VCPU] = 17.0  # corrupted: no allocation backs this
        reconciler, report = make_reconciler(sim_stub)
        assert reconciler.reconcile(0.0) >= 1
        assert report.capacity_drift_repairs == 1
        assert provider.used[VCPU] == 0.0

    def test_index_drift_invalidated(self, region, catalog):
        placement = PlacementService()
        for bb in region.iter_building_blocks():
            placement.register_building_block(bb)
        index = HostStateIndex(region, placement)
        index.refresh()

        class _Sched:
            pass

        sched = _Sched()
        sched.index = index
        sched.invalidate_host = index.invalidate
        sim = _SimStub(region, placement, scheduler=sched)
        # Corrupt the cached view directly (a drift placement never saw).
        state = index.states()[0]
        state.free_vcpus -= 5.0
        reconciler, report = make_reconciler(sim)
        assert reconciler.reconcile(0.0) == 1
        assert report.index_drift_invalidations == 1
        index.refresh()
        fresh = next(s for s in index.states() if s.host_id == state.host_id)
        assert fresh.free_vcpus == placement.provider(state.host_id).free(VCPU)
        index.close()


class TestInvariantChecker:
    def test_clean_state_has_no_violations(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        node = next(sim_stub.region.iter_nodes())
        sim_stub.placement.claim("vm-0", node.building_block, vm.flavor.requested())
        node.add_vm(vm)
        sim_stub.vms["vm-0"] = vm
        checker, report = make_checker(sim_stub)
        assert checker.check(0.0) == []
        assert report.invariant_checks == 1

    def test_double_placement_detected(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        nodes = list(sim_stub.region.iter_nodes())
        nodes[0].add_vm(vm)
        nodes[1].vms[vm.vm_id] = vm  # bypass add_vm's residency guard
        sim_stub.vms["vm-0"] = vm
        checker, report = make_checker(sim_stub, fail_fast=False)
        violations = checker.check(0.0)
        assert [v.invariant for v in violations] == ["single-placement"]

    def test_fail_fast_raises(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        nodes = list(sim_stub.region.iter_nodes())
        nodes[0].add_vm(vm)
        nodes[1].vms[vm.vm_id] = vm
        checker, report = make_checker(sim_stub, fail_fast=True)
        with pytest.raises(InvariantViolationError):
            checker.check(0.0)
        assert len(report.violations) == 1

    def test_allocation_home_mismatch_detected(self, sim_stub, catalog):
        vm = _active_vm("vm-0", catalog)
        node = next(sim_stub.region.iter_nodes())
        node.add_vm(vm)
        sim_stub.vms["vm-0"] = vm
        sim_stub.placement.claim("vm-0", "dc2-gp-00", vm.flavor.requested())
        checker, _ = make_checker(sim_stub, fail_fast=False)
        violations = checker.check(0.0)
        assert any(v.invariant == "single-placement" for v in violations)

    def test_negative_capacity_detected(self, sim_stub):
        provider = sim_stub.placement.provider("dc1-gp-00")
        provider.used[VCPU] = provider.capacity(VCPU) + 10.0
        checker, _ = make_checker(sim_stub, fail_fast=False)
        violations = checker.check(0.0)
        assert any(v.invariant == "capacity" for v in violations)

    def test_untracked_error_vm_detected(self, sim_stub, catalog):
        vm = VM(vm_id="vm-err", flavor=catalog.get("g_c2_m8"))
        vm.transition(VMState.BUILDING)
        vm.transition(VMState.ERROR)
        sim_stub.vms["vm-err"] = vm
        checker, _ = make_checker(sim_stub, fail_fast=False)
        violations = checker.check(0.0)
        assert [v.invariant for v in violations] == ["error-vm-tracked"]
        # A queued evacuation retry makes the same state legitimate.
        sim_stub.engine.schedule(10.0, EVAC_RETRY, vm_id="vm-err", attempt=1)
        assert checker.check(1.0) == []

    def test_quarantine_fence_breach_detected(self, sim_stub, catalog, region):
        health, _ = make_health(sim_stub.region)
        node = next(sim_stub.region.iter_nodes())
        node.quarantined = True
        health.quarantine_residents[node.node_id] = frozenset()
        vm = _active_vm("vm-new", catalog)
        node.add_vm(vm)
        sim_stub.vms["vm-new"] = vm
        sim_stub.placement.claim(
            "vm-new", node.building_block, vm.flavor.requested()
        )
        checker, _ = make_checker(sim_stub, health=health, fail_fast=False)
        violations = checker.check(0.0)
        assert any(v.invariant == "quarantine-fence" for v in violations)
        node.quarantined = False


class TestFailureDomains:
    def test_domain_ids_sorted(self, region):
        assert domain_ids(region, "az") == ["az1", "az2"]
        bbs = domain_ids(region, "bb")
        assert bbs == sorted(bbs) and "dc1-gp-00" in bbs

    def test_domain_members(self, region):
        members = domain_members(region, "bb", "dc1-hana-01")
        assert len(members) == 2
        assert all(n.building_block == "dc1-hana-01" for n in members)
        az1 = domain_members(region, "az", "az1")
        assert all(n.az == "az1" for n in az1)

    def test_unknown_scope_rejected(self, region):
        with pytest.raises(ValueError):
            domain_ids(region, "rack")
        with pytest.raises(ValueError):
            domain_members(region, "rack", "r1")

    def test_partition_overlap_and_heal(self):
        partition = ScrapePartition()
        t1 = partition.start(frozenset({"n1", "n2"}))
        t2 = partition.start(frozenset({"n2", "n3"}))
        assert partition.is_blackholed("n2")
        partition.end(t1)
        assert partition.is_blackholed("n2")  # still behind the second cut
        assert not partition.is_blackholed("n1")
        partition.end(t2)
        assert not partition.is_blackholed("n2")
        partition.end(t2)  # idempotent for stale tokens
        assert partition.partitions_started == 2
        assert partition.partitions_healed == 2
        assert partition.blackholed_scrapes == 2  # only hits while cut count


class TestGracefulDraws:
    """Satellite: empty draws are counted no-ops, never exceptions."""

    def test_pick_victim_with_nothing_healthy(self, region):
        injector = FaultInjector(FaultConfig(seed=1))
        for node in region.iter_nodes():
            node.failed = True
        assert injector.pick_victim(region.iter_nodes()) is None
        assert injector.skipped_draws == 1
        for node in region.iter_nodes():
            node.failed = False

    def test_pick_victim_skips_quarantined(self, region):
        injector = FaultInjector(FaultConfig(seed=1))
        for node in region.iter_nodes():
            node.quarantined = True
        assert injector.pick_victim(region.iter_nodes()) is None
        assert injector.skipped_draws == 1
        for node in region.iter_nodes():
            node.quarantined = False

    def test_pick_domain_with_all_dark(self, region):
        injector = FaultInjector(FaultConfig(seed=1))
        for node in region.iter_nodes():
            node.failed = True
        assert injector.pick_domain(region, "az") is None
        assert injector.skipped_draws == 1
        for node in region.iter_nodes():
            node.failed = False

    def test_targeted_victim_unhealthy_or_unknown(self, region):
        injector = FaultInjector(FaultConfig(seed=1))
        node = next(region.iter_nodes())
        node.failed = True
        assert injector.targeted_victim({node.node_id: node}, node.node_id) is None
        assert injector.targeted_victim({}, "nope") is None
        assert injector.skipped_draws == 2
        node.failed = False


class TestFaultConfigDomains:
    def test_new_rates_flip_any_faults(self):
        assert FaultConfig(az_outage_rate_per_day=0.1).any_faults
        assert FaultConfig(partition_rate_per_day=0.1).any_faults
        assert FaultConfig(flapping_hosts=1).any_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"az_outage_rate_per_day": -1.0},
            {"domain_outage_duration_mean_s": 0.0},
            {"partition_rate_per_day": -0.5},
            {"partition_scope": "rack"},
            {"flapping_hosts": -1},
            {"flapping_period_s": 0.0},
            {"flapping_cycles": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)


# -- end-to-end chaos scenario --------------------------------------------------


def _run_chaos(days=0.5, seed=7):
    from repro.resilience.chaos import ChaosConfig, chaos_summary_json, run_chaos_scenario

    config = ChaosConfig(duration_days=days, seed=seed)
    result = run_chaos_scenario(config)
    return result, chaos_summary_json(result)


class TestChaosScenario:
    @pytest.fixture(scope="class")
    def chaos(self):
        return _run_chaos()

    def test_zero_invariant_violations(self, chaos):
        result, _ = chaos
        assert result.resilience_report.violations == []
        assert result.resilience_report.invariant_checks > 0

    def test_correlated_faults_actually_fired(self, chaos):
        result, _ = chaos
        report = result.fault_report
        # The canonical fault seed drives at least one correlated event
        # plus the flapping host within the first half day.
        assert report.partitions >= 1
        assert report.host_failures >= 1

    def test_admission_counters_surface_in_scheduler_stats(self, chaos):
        result, _ = chaos
        stats = result.scheduler_stats
        for key in (
            "admission_submitted",
            "admission_admitted",
            "admission_shed_rate_limit",
            "admission_shed_breaker",
            "admission_retries",
            "admission_deadline_exceeded",
            "admission_breaker_opens",
        ):
            assert key in stats
        assert stats["admission_submitted"] >= stats["admission_admitted"]

    def test_byte_identical_replay(self, chaos):
        _, first = chaos
        _, second = _run_chaos()
        assert first == second

    def test_seed_changes_the_run(self, chaos):
        _, first = chaos
        _, other = _run_chaos(seed=8)
        assert first != other


class TestCLI:
    def test_chaos_command_emits_deterministic_json(self, capsys):
        assert main(["chaos", "--days", "0.1", "--json-only"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--days", "0.1", "--json-only"]) == 0
        second = capsys.readouterr().out
        assert first == second
        summary = json.loads(first)
        assert summary["resilience_report"]["invariants"]["violations"] == []
        assert "fault_report" in summary
        assert "scheduler_stats" in summary

    def test_chaos_human_output(self, capsys):
        assert main(["chaos", "--days", "0.1", "--seed", "11"]) == 0
        captured = capsys.readouterr()
        assert "Resilience report" in captured.err
        json.loads(captured.out)

    def test_chaos_out_file(self, tmp_path):
        out = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--days", "0.1", "--json-only", "--out", str(out)]
        ) == 0
        summary = json.loads(out.read_text())
        assert summary["resilience_report"]["invariants"]["checks"] > 0

    def test_faults_exits_nonzero_on_dead_letters(self, tmp_path, capsys):
        # Aggressive failure rate on a tiny fabric with few evac retries:
        # evacuations exhaust their retries and dead-letter.
        code = main(
            [
                "faults", "--days", "0.5", "--seed", "7",
                "--bbs", "1", "--nodes-per-bb", "2",
                "--initial-vms", "60", "--failure-rate", "40",
                "--repair-hours", "24", "--evac-retries", "2",
                "--out", str(tmp_path / "faults.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "dead-lettered" in captured.err
        assert "vm_id" in captured.err  # summary table header

    def test_faults_exits_zero_when_queue_empty(self, tmp_path, capsys):
        code = main(
            [
                "faults", "--days", "0.1", "--seed", "7",
                "--failure-rate", "0", "--initial-vms", "10",
                "--out", str(tmp_path / "faults.json"),
            ]
        )
        assert code == 0
        assert "vm_id" not in capsys.readouterr().err  # no dead-letter table
