"""Property-based tests for the DRS balancer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.drs.affinity import AffinityRules
from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.infrastructure.capacity import OvercommitPolicy
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.hierarchy import BuildingBlock
from repro.infrastructure.vm import VM
from tests.conftest import make_bb, make_node

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

_cluster = st.fixed_dictionaries(
    {
        "nodes": st.lists(
            st.tuples(st.sampled_from((16, 32, 48, 64, 96)), _NODE_FLAGS),
            min_size=2,
            max_size=9,
        ),
        "vms": st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=48),  # vcpus
                st.integers(min_value=0, max_value=8),  # node index
                st.sampled_from((False, False, False, True)),  # excluded
            ),
            min_size=1,
            max_size=30,
        ),
        "anti_affinity": st.lists(
            st.lists(st.integers(min_value=0, max_value=29), min_size=2, max_size=4),
            max_size=8,
        ),
        "sigma": st.sampled_from((0.0, 0.5, 3.0)),
        "min_improvement": st.sampled_from((0.0, 0.005, 0.02)),
        "heavy_vm_cores": st.sampled_from((4.0, 16.0, 32.0)),
        "load_seed": st.integers(min_value=0, max_value=2**32 - 1),
    }
)


def _build_cluster(spec):
    """A fresh BB for ``spec``: mixed node sizes and health, VMs placed
    directly (bypassing admission, so some nodes may be overloaded)."""
    bb = BuildingBlock(bb_id="bb0", overcommit=OvercommitPolicy(cpu_ratio=2.0))
    for i, (vcpus, _) in enumerate(spec["nodes"]):
        bb.add_node(make_node(f"bb0-n{i}", vcpus=vcpus, memory_gib=2048))
    nodes = list(bb.iter_nodes())
    for i, (vcpus, node_index, _) in enumerate(spec["vms"]):
        vm = VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=vcpus, ram_gib=4))
        nodes[node_index % len(nodes)].add_vm(vm)
    for node, (_, flag) in zip(nodes, spec["nodes"]):
        if flag != "ok":
            setattr(node, flag, True)
    rules = AffinityRules()
    for group in spec["anti_affinity"]:
        ids = {f"v{i}" for i in group if i < len(spec["vms"])}
        if len(ids) >= 2:
            rules.add_anti_affinity(ids)
    config = DrsConfig(
        max_moves_per_run=6,
        min_improvement=spec["min_improvement"],
        heavy_vm_cores=spec["heavy_vm_cores"],
    )
    exclude = {f"v{i}" for i, (_, _, excluded) in enumerate(spec["vms"]) if excluded}
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
