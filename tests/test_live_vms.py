"""The live-VM index behind resize-victim selection.

``RegionSimulation`` picks a resize victim as the k-th live VM in
creation order.  ``LiveVMIndex`` answers that from a sorted list of live slots
kept in step with each VM's ``state``; these tests hold it to the
reference list comprehension it replaced, including across evacuation's
ERROR -> BUILDING -> ACTIVE cycle, and check that ``alive`` stays a
property derived from ``state`` rather than a serialized field.
"""

import copy
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.faults import FaultConfig
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.vm import _TRANSITIONS, VM, LiveVMIndex, VMState
from repro.simulation.runner import RegionSimulation, SimulationConfig
from tests.conftest import build_tiny_region_spec

FLAVOR = default_catalog().get("g_c2_m8")


def _reference(vms: list[VM]) -> list[VM]:
    return [vm for vm in vms if vm.alive]


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "step", "step"]), st.integers(0, 255)),
        max_size=80,
    )
)
def test_index_matches_reference_under_random_transitions(ops):
    index = LiveVMIndex()
    vms: list[VM] = []
    for i, (op, a) in enumerate(ops):
        if op == "add":
            vm = VM(vm_id=f"v{i}", flavor=FLAVOR)
            if a % 4:
                vm.transition(VMState.BUILDING)
            if a % 4 > 1:
                vm.transition(VMState.ACTIVE)
            vms.append(vm)
            index.add(vm)
        elif vms:
            vm = vms[a % len(vms)]
            legal = sorted(_TRANSITIONS[vm.state], key=lambda s: s.value)
            if legal:
                vm.transition(legal[a % len(legal)])
        reference = _reference(vms)
        assert len(index) == len(reference)
        for k, vm in enumerate(reference):
            assert index.nth_live(k) is vm


def test_direct_state_writes_are_tracked():
    index = LiveVMIndex()
    vm = VM(vm_id="a", flavor=FLAVOR, state=VMState.ACTIVE)
    index.add(vm)
    assert len(index) == 1
    vm.state = VMState.DELETED  # bypasses transition(): still seen
    assert len(index) == 0


def test_alive_is_derived_not_a_field():
    names = {f.name for f in fields(VM)}
    assert "alive" not in names
    assert not any(name.startswith("_") for name in names)
    vm = VM(vm_id="a", flavor=FLAVOR, state=VMState.ACTIVE)
    index = LiveVMIndex()
    index.add(vm)
    # Copies leave the hook behind and never touch the original index.
    clone = copy.deepcopy(vm)
    assert "_live_hook" not in vars(clone)
    clone.transition(VMState.DELETED)
    assert len(index) == 1 and vm.alive


def test_resize_victims_match_reference_across_evacuations():
    """Every resize draw picks what the full list comprehension would, in
    a run where host failures strand VMs in ERROR and evacuation rebuilds
    them (ERROR -> BUILDING -> ACTIVE) between resizes."""
    sim = RegionSimulation(
        build_tiny_region_spec(),
        SimulationConfig(
            duration_days=1.0,
            scrape_interval_s=6 * 3600,
            drs_interval_s=12 * 3600,
            arrival_rate_per_hour=6.0,
            resize_rate_per_hour=8.0,
            initial_vms=40,
            seed=3,
            faults=FaultConfig(
                seed=4,
                host_failure_rate_per_day=10.0,
                repair_time_mean_s=3 * 3600.0,
                evac_backoff_base_s=600.0,
            ),
        ),
    )
    live = sim._live
    nth_live = live.nth_live
    seen = {"draws": 0, "with_error": 0, "evacuated_victims": 0}

    def checked_nth_live(k):
        vms = list(sim.vms.values())
        reference = _reference(vms)
        assert len(live) == len(reference)
        victim = nth_live(k)
        assert victim is reference[k]
        seen["draws"] += 1
        if any(vm.state is VMState.ERROR for vm in vms):
            seen["with_error"] += 1
        if victim.vm_id in evacuated:
            seen["evacuated_victims"] += 1
        return victim

    live.nth_live = checked_nth_live
    evacuated: set[str] = set()
    on_retry = sim.evacuation.on_retry

    def tracking_on_retry(engine, event):
        on_retry(engine, event)
        vm = sim.vms.get(event.payload["vm_id"])
        if vm is not None and vm.state is VMState.ACTIVE:
            evacuated.add(vm.vm_id)

    sim.evacuation.on_retry = tracking_on_retry
    result = sim.run()
    assert result.fault_report.evacuations_succeeded > 0
    assert seen["draws"] > 50
    assert seen["with_error"] > 0
    assert seen["evacuated_victims"] > 0
