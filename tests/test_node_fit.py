"""Reference equivalence for the node-level fit check and node choice.

``ComputeNode.fits``, its (requests × nodes) batch ``fits_matrix`` and
``BuildingBlock.pick_node`` answer from cached allocatable and allocated
vectors without building a Capacity.  The references below are the
Capacity arithmetic they replaced:
``policy.allocatable(physical) - allocated`` then ``fits_within``, with
the allocation recounted from scratch, and the list-then-max/min node
choice.  The properties drive both through random VM churn, health
flags, over-allocated nodes, registry forks (the verify harness's ghost
VM) and replaced overcommit policies, and require identical answers.
"""

from hypothesis import given, settings, strategies as st

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode, fits_matrix
from repro.infrastructure.vm import VM


def reference_allocated(node: ComputeNode) -> Capacity:
    total = Capacity()
    for vm in node.vms.values():
        total = total + vm.requested()
    return total


def reference_fits(
    node: ComputeNode, requested: Capacity, policy: OvercommitPolicy
) -> bool:
    free = policy.allocatable(node.physical) - reference_allocated(node)
    return requested.fits_within(free)


def reference_pick_node(bb: BuildingBlock, requested: Capacity) -> ComputeNode | None:
    fitting = [
        n
        for n in bb.iter_nodes()
        if n.healthy and reference_fits(n, requested, bb.overcommit)
    ]
    if not fitting:
        return None
    if bb.policy == "pack":
        return max(
            fitting,
            key=lambda n: (
                reference_allocated(n).memory_mb / n.physical.memory_mb,
                n.node_id,
            ),
        )
    return min(
        fitting,
        key=lambda n: (reference_allocated(n).vcpus / n.physical.vcpus, n.node_id),
    )


# -- strategies -------------------------------------------------------------------

#: Fractional sizes on a coarse grid: equal loads (node-id tie-breaks) and
#: exact-fit boundaries come up often.
_sizes = st.integers(min_value=0, max_value=16).map(lambda k: k * 0.25)

_flavors = st.builds(
    lambda vcpus, ram, disk: Flavor(
        name=f"f{vcpus}-{ram}-{disk}", vcpus=vcpus, ram_gib=ram, disk_gb=disk
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=16).map(lambda k: k * 0.5),
    _sizes.map(lambda x: x * 10),
)

#: Raw requests include zero components (a flavor's network is always 0).
_requests = st.builds(
    Capacity,
    _sizes.map(lambda x: x * 4),
    _sizes.map(lambda x: x * 2048),
    _sizes.map(lambda x: x * 20),
    st.sampled_from([0.0, 0.0, 1.0, 50.0]),
)

_policies = st.builds(
    OvercommitPolicy,
    st.sampled_from([0.5, 1.0, 1.5, 4.0]),
    st.sampled_from([0.75, 1.0, 1.25]),
    st.sampled_from([1.0, 1.5]),
)

_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "add", "add", "remove", "flag", "fork", "policy"]
        ),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=40,
)


def _bb(policy_name: str, overcommit: OvercommitPolicy, nodes: int) -> BuildingBlock:
    bb = BuildingBlock(bb_id="bb", policy=policy_name, overcommit=overcommit)
    for i in range(nodes):
        # Two hardware sizes: load fractions differ per node for equal VMs.
        big = i % 2 == 0
        bb.add_node(
            ComputeNode(
                node_id=f"n{i:02d}",
                physical=Capacity(
                    vcpus=16 if big else 12,
                    memory_mb=(64 if big else 48) * 1024.0,
                    disk_gb=400.0 if big else 300.5,
                    network_gbps=100.0,
                ),
            )
        )
    return bb


def _assert_same(bb: BuildingBlock, requests: list[Capacity]) -> None:
    members = list(bb.iter_nodes())
    assert fits_matrix(requests, members, bb.overcommit).tolist() == [
        [reference_fits(node, req, bb.overcommit) for node in members]
        for req in requests
    ]
    for node in bb.iter_nodes():
        assert node.allocated() == reference_allocated(node)
        for req in requests:
            assert node.fits(req, bb.overcommit) == reference_fits(
                node, req, bb.overcommit
            ), (node.node_id, req)
            assert node.free(bb.overcommit) == (
                bb.overcommit.allocatable(node.physical) - reference_allocated(node)
            )
    for req in requests:
        assert bb.pick_node(req) is reference_pick_node(bb, req)


@settings(max_examples=120, deadline=None)
@given(
    policy_name=st.sampled_from(["pack", "spread"]),
    overcommit=_policies,
    replacement=_policies,
    nodes=st.integers(min_value=1, max_value=6),
    flavors=st.lists(_flavors, min_size=1, max_size=6),
    requests=st.lists(_requests, min_size=1, max_size=4),
    ops=_ops,
)
def test_fit_and_pick_match_reference(
    policy_name, overcommit, replacement, nodes, flavors, requests, ops
):
    bb = _bb(policy_name, overcommit, nodes)
    members = list(bb.iter_nodes())
    requests = requests + [f.requested() for f in flavors]
    resident: list[tuple[str, ComputeNode]] = []
    for i, (op, a, b) in enumerate(ops):
        if op == "add":
            # add_vm does not check capacity: nodes can end up
            # over-allocated, which exercises the max(0, ...) clamp.
            node = members[a % len(members)]
            node.add_vm(VM(vm_id=f"v{i}", flavor=flavors[b % len(flavors)]))
            resident.append((f"v{i}", node))
        elif op == "remove" and resident:
            vm_id, node = resident.pop(a % len(resident))
            if vm_id in node.vms:
                node.remove_vm(vm_id)
        elif op == "flag":
            node = members[a % len(members)]
            name = ("maintenance", "failed", "quarantined")[b % 3]
            setattr(node, name, not getattr(node, name))
        elif op == "fork":
            # The verify harness's ghost VM: a forked registry swapped in
            # without add_vm, so no epoch bump reaches the node.
            node = members[a % len(members)]
            forked = dict(node.vms)
            forked[f"ghost{i}"] = VM(vm_id=f"ghost{i}", flavor=flavors[b % len(flavors)])
            object.__setattr__(node, "vms", forked)
        elif op == "policy":
            # Replacing the block's overcommit policy must not serve the
            # old policy's cached allocatable capacity.
            bb.overcommit = replacement if bb.overcommit is overcommit else overcommit
        _assert_same(bb, requests)


def test_zero_request_fits_over_allocated_node():
    node = ComputeNode(node_id="n", physical=Capacity(4, 4096, 10, 1))
    flavor = Flavor(name="big", vcpus=8, ram_gib=8, disk_gb=0)
    node.add_vm(VM(vm_id="a", flavor=flavor))
    policy = OvercommitPolicy(cpu_ratio=1.0)
    # Every component is over-allocated; free clamps to zero, which a
    # zero request still fits and any positive request does not.
    assert node.fits(Capacity(), policy)
    assert not node.fits(Capacity(vcpus=0.5), policy)
    assert node.fits(Capacity(), policy) == reference_fits(node, Capacity(), policy)


def test_pick_node_ties_break_on_node_id():
    flavor = Flavor(name="f", vcpus=1, ram_gib=1)
    for policy_name, expected in (("spread", "n00"), ("pack", "n03")):
        bb = BuildingBlock(bb_id="bb", policy=policy_name)
        for i in range(4):
            bb.add_node(ComputeNode(node_id=f"n{i:02d}", physical=Capacity(8, 8192, 100, 10)))
        assert bb.pick_node(flavor.requested()).node_id == expected
        assert reference_pick_node(bb, flavor.requested()).node_id == expected
