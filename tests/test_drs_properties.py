"""Property-based tests for the DRS balancer and the migration planner."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.drs.affinity import AffinityRules
from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.infrastructure.capacity import GENERAL_OVERCOMMIT, Capacity, OvercommitPolicy
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
from repro.infrastructure.vm import VM
from repro.migration.planner import MigrationPlan, MigrationPlanner, PlannedMove
from tests.conftest import make_bb

_vm_sizes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=32),  # vcpus
        st.integers(min_value=0, max_value=3),  # initial node index
    ),
    max_size=25,
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sizes=_vm_sizes, nodes=st.integers(min_value=1, max_value=4))
def test_property_drs_never_worsens_and_conserves(sizes, nodes):
    """After any DRS run: imbalance never increases, no VM is lost or
    duplicated, and no node exceeds its allocatable capacity."""
    bb = make_bb(nodes=nodes)
    node_list = list(bb.iter_nodes())
    for i, (vcpus, node_index) in enumerate(sizes):
        vm = VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=vcpus, ram_gib=4))
        node_list[node_index % nodes].add_vm(vm)

    balancer = DrsBalancer(config=DrsConfig(max_moves_per_run=20))
    before_ids = sorted(vm.vm_id for vm in bb.vms())
    before_imbalance = balancer.imbalance(bb)
    # The generated initial placement may itself overload a node (it bypasses
    # admission control); DRS must never push a *within-capacity* node over.
    over_before = {
        node.node_id
        for node in bb.iter_nodes()
        if not node.allocated().fits_within(bb.overcommit.allocatable(node.physical))
    }

    balancer.run(bb)

    after_ids = sorted(vm.vm_id for vm in bb.vms())
    assert after_ids == before_ids
    assert balancer.imbalance(bb) <= before_imbalance + 1e-12
    for node in bb.iter_nodes():
        if node.node_id in over_before:
            continue
        allocatable = bb.overcommit.allocatable(node.physical)
        assert node.allocated().fits_within(allocatable)


@settings(max_examples=30, deadline=None)
@given(sizes=_vm_sizes)
def test_property_drs_idempotent_at_fixpoint(sizes):
    """Once DRS stops recommending moves, a second run changes nothing."""
    bb = make_bb(nodes=3)
    node_list = list(bb.iter_nodes())
    for i, (vcpus, node_index) in enumerate(sizes):
        node_list[node_index % 3].add_vm(
            VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=vcpus, ram_gib=4))
        )
    balancer = DrsBalancer(config=DrsConfig(max_moves_per_run=50))
    balancer.run(bb)
    placement_before = {vm.vm_id: vm.node_id for vm in bb.vms()}
    second = balancer.run(bb)
    assert second == []
    assert {vm.vm_id: vm.node_id for vm in bb.vms()} == placement_before


# -- the row-wise move scoring against the per-pair reference -------------------


def _reference_best_move(balancer, bb, load_fn, current_imbalance, exclude=frozenset()):
    """The per-(VM, target) scoring ``DrsBalancer._best_move`` replaced:
    a copied fractions dict and one ``np.std`` per pair."""

    def imbalance_after(fractions, source, target, load):
        updated = dict(fractions)
        updated[source.node_id] -= load / source.physical.vcpus
        updated[target.node_id] += load / target.physical.vcpus
        return float(np.std(list(updated.values())))

    fractions = balancer.node_load_fractions(bb, load_fn)
    if len(fractions) < 2:
        return None
    ordered = sorted(fractions.items(), key=lambda kv: kv[1], reverse=True)
    source = bb.nodes[ordered[0][0]]
    targets = [bb.nodes[node_id] for node_id, _ in reversed(ordered[1:])]
    best = None
    best_light = None
    for vm in source.vms.values():
        if vm.vm_id in exclude:
            continue
        load = load_fn(vm)
        for target in targets:
            if target.node_id == source.node_id or not target.healthy:
                continue
            if not target.fits(vm.requested(), bb.overcommit):
                continue
            if not balancer.rules.allows_move(bb, vm.vm_id, target.node_id):
                continue
            improvement = current_imbalance - imbalance_after(
                fractions, source, target, load
            )
            if improvement < balancer.config.min_improvement:
                continue
            candidate = (vm.vm_id, source, target, load, improvement)
            if best is None or improvement > best[4]:
                best = candidate
            if load <= balancer.config.heavy_vm_cores and (
                best_light is None or improvement > best_light[4]
            ):
                best_light = candidate
    return best_light if best_light is not None else best


class _ReferenceBalancer(DrsBalancer):
    def _best_move(self, bb, load_fn, current_imbalance, exclude=frozenset()):
        return _reference_best_move(self, bb, load_fn, current_imbalance, exclude)


_NODE_FLAGS = st.sampled_from(("ok", "ok", "ok", "failed", "maintenance", "quarantined"))

_groups = st.lists(
    st.lists(st.integers(min_value=0, max_value=29), min_size=2, max_size=4),
    max_size=8,
)

_cluster = st.fixed_dictionaries(
    {
        "nodes": st.lists(
            st.tuples(
                st.sampled_from((16, 32, 48, 64, 96)),  # vcpus
                _NODE_FLAGS,
                # Memory (GiB) and disk (GB): roomy, or tight enough that
                # RAM or disk, not vCPUs, decides whether a VM fits.
                st.sampled_from((2048, 2048, 48, 24)),
                st.sampled_from((4096, 4096, 300, 120)),
            ),
            min_size=2,
            max_size=9,
        ),
        # Every node the first node's size: equal fractions, so equal
        # improvements (exact ties, above all with sigma 0).
        "equal_nodes": st.booleans(),
        "vms": st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=48),  # vcpus
                st.integers(min_value=0, max_value=8),  # node index
                st.sampled_from((False, False, False, True)),  # excluded
                st.sampled_from((4, 4, 16, 32)),  # ram GiB
                st.sampled_from((50, 50, 100, 250)),  # disk GB
            ),
            min_size=1,
            max_size=30,
        ),
        "anti_affinity": _groups,
        "affinity": _groups,
        "sigma": st.sampled_from((0.0, 0.0, 0.5, 3.0)),
        "min_improvement": st.sampled_from((0.0, 0.005, 0.02)),
        "heavy_vm_cores": st.sampled_from((4.0, 16.0, 32.0)),
        "load_seed": st.integers(min_value=0, max_value=2**32 - 1),
    }
)


def _build_cluster(spec):
    """A fresh BB for ``spec``: mixed node sizes and health, VMs placed
    directly (bypassing admission, so some nodes may be overloaded)."""
    bb = BuildingBlock(bb_id="bb0", overcommit=OvercommitPolicy(cpu_ratio=2.0))
    sizes = [node[:1] + node[2:] for node in spec["nodes"]]
    if spec["equal_nodes"]:
        sizes = [sizes[0]] * len(sizes)
    for i, (vcpus, memory_gib, disk_gb) in enumerate(sizes):
        physical = Capacity(
            vcpus=vcpus, memory_mb=memory_gib * 1024, disk_gb=disk_gb, network_gbps=200
        )
        bb.add_node(ComputeNode(node_id=f"bb0-n{i}", physical=physical))
    nodes = list(bb.iter_nodes())
    for i, (vcpus, node_index, _, ram_gib, disk_gb) in enumerate(spec["vms"]):
        flavor = Flavor(f"f{i}", vcpus=vcpus, ram_gib=ram_gib, disk_gb=disk_gb)
        nodes[node_index % len(nodes)].add_vm(VM(vm_id=f"v{i}", flavor=flavor))
    for node, (_, flag, _, _) in zip(nodes, spec["nodes"]):
        if flag != "ok":
            setattr(node, flag, True)
    rules = AffinityRules()
    for kind, add in (
        ("anti_affinity", rules.add_anti_affinity),
        ("affinity", rules.add_affinity),
    ):
        for group in spec[kind]:
            ids = {f"v{i}" for i in group if i < len(spec["vms"])}
            if len(ids) >= 2:
                add(ids)
    config = DrsConfig(
        max_moves_per_run=6,
        min_improvement=spec["min_improvement"],
        heavy_vm_cores=spec["heavy_vm_cores"],
    )
    exclude = {f"v{i}" for i, vm in enumerate(spec["vms"]) if vm[2]}
    return bb, config, rules, exclude


def _noisy_load_fn(spec):
    """Allocated vCPUs plus Gaussian noise from a private stream: every
    call draws, so the two scorings must call it the same number of
    times, in the same order, to agree."""
    rng = np.random.default_rng(spec["load_seed"])
    sigma = spec["sigma"]

    def load_fn(vm):
        return max(0.0, vm.flavor.vcpus + rng.normal(0.0, sigma))

    return load_fn, rng


def _as_ids(move):
    if move is None:
        return None
    vm_id, source, target, load, improvement = move
    return (vm_id, source.node_id, target.node_id, load, improvement)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_cluster)
def test_property_best_move_bitwise_equals_per_pair_reference(spec):
    """The row-wise scoring returns the very tuple the per-pair scoring
    did: same VM, nodes, load and improvement bits, same RNG draws."""
    results = []
    for scorer in (_reference_best_move, DrsBalancer._best_move):
        bb, config, rules, exclude = _build_cluster(spec)
        balancer = DrsBalancer(config=config, rules=rules)
        load_fn, rng = _noisy_load_fn(spec)
        current = balancer.imbalance(bb, load_fn)
        move = scorer(balancer, bb, load_fn, current, exclude)
        results.append((_as_ids(move), rng.random()))
    assert results[0] == results[1]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_cluster)
def test_property_drs_run_matches_reference_scoring(spec):
    """Whole passes agree move for move, so no drift accumulates."""
    results = []
    for balancer_cls in (_ReferenceBalancer, DrsBalancer):
        bb, config, rules, _ = _build_cluster(spec)
        load_fn, rng = _noisy_load_fn(spec)
        moves = balancer_cls(config=config, rules=rules).run(bb, load_fn)
        results.append((moves, rng.random()))
    assert results[0] == results[1]


# -- the planner's shared-kernel scoring against its per-pair reference ---------


def _reference_plan(planner, nodes, load_view):
    """``MigrationPlanner.plan_for_nodes`` before it shared the DRS kernel:
    node loads in a dict, and one copied dict and one ``np.std`` per
    (VM, target) pair."""

    def imbalance_after(loads, capacities, source, target, cpu_load):
        updated = dict(loads)
        updated[source] -= cpu_load
        updated[target] += cpu_load
        fractions = [updated[n] / capacities[n] for n in updated if capacities[n] > 0]
        return float(np.std(fractions)) if len(fractions) > 1 else 0.0

    plan = MigrationPlan()
    nodes = [node for node in nodes if not node.failed]
    if len(nodes) < 2:
        return plan
    loads = {
        node.node_id: sum(load_view(vm)[0] for vm in node.vms.values())
        for node in nodes
    }
    capacities = {node.node_id: node.physical.vcpus for node in nodes}
    by_id = {node.node_id: node for node in nodes}

    def imbalance():
        fractions = [loads[n] / capacities[n] for n in loads if capacities[n] > 0]
        return float(np.std(fractions)) if len(fractions) > 1 else 0.0

    moved = set()
    for _ in range(planner.max_moves):
        current = imbalance()
        best = None
        ordered = sorted(loads, key=lambda n: -loads[n] / max(capacities[n], 1e-9))
        source = by_id[ordered[0]]
        for vm in source.vms.values():
            if vm.vm_id in moved:
                continue
            cpu_load, mem_ratio = load_view(vm)
            estimate = planner.precopy.estimate_for_vm(vm.flavor, mem_ratio)
            if (
                not estimate.converged
                or estimate.downtime_seconds > planner.downtime_budget_s
            ):
                continue
            for target_id in reversed(ordered[1:]):
                target = by_id[target_id]
                if not target.healthy or not target.fits(
                    vm.requested(), GENERAL_OVERCOMMIT
                ):
                    continue
                after = imbalance_after(
                    loads, capacities, source.node_id, target_id, cpu_load
                )
                improvement = current - after
                if improvement <= 0:
                    continue
                candidate = PlannedMove(
                    vm_id=vm.vm_id,
                    source_node=source.node_id,
                    target_node=target_id,
                    improvement=improvement,
                    estimate=estimate,
                )
                if candidate.benefit_per_second < planner.min_benefit_per_second:
                    continue
                if best is None or candidate.improvement > best.improvement:
                    best = candidate
        if best is None:
            break
        plan.moves.append(best)
        moved.add(best.vm_id)
        cpu_load, _ = load_view(by_id[best.source_node].vms[best.vm_id])
        loads[best.source_node] -= cpu_load
        loads[best.target_node] += cpu_load
    return plan


_planner_knobs = st.fixed_dictionaries(
    {
        "min_benefit_per_second": st.sampled_from((0.0, 1e-5, 1e-4, 1e-3)),
        "downtime_budget_s": st.sampled_from((0.05, 0.5, 2.0)),
        "max_moves": st.integers(min_value=1, max_value=8),
    }
)


def _noisy_load_view(spec):
    """Noisy cores and a random memory-dirtying ratio, both drawn per call
    from a private stream (see ``_noisy_load_fn``)."""
    load_fn, rng = _noisy_load_fn(spec)

    def load_view(vm):
        return load_fn(vm), float(rng.uniform(0.05, 0.95))

    return load_view, rng


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_cluster, knobs=_planner_knobs)
def test_property_planner_bitwise_equals_per_pair_reference(spec, knobs):
    """The shared-kernel planner returns the very plan the per-pair one
    did: every ``PlannedMove`` equal field for field (``improvement``
    bits included), with the same load-view calls in the same order."""
    results = []
    for plan_for_nodes in (_reference_plan, MigrationPlanner.plan_for_nodes):
        bb, _, _, _ = _build_cluster(spec)
        load_view, rng = _noisy_load_view(spec)
        plan = plan_for_nodes(MigrationPlanner(**knobs), list(bb.iter_nodes()), load_view)
        results.append(([dataclasses.astuple(m) for m in plan.moves], rng.random()))
    assert results[0] == results[1]
