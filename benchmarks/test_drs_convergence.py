"""DRS convergence: the second scheduling layer at cluster scale (§3.1).

Shape: from a maximally skewed start (everything on one node), the DRS
loop converges below its imbalance threshold within a handful of passes,
preferring light VMs and never overfilling a target — the behaviour the
paper relies on to mop up Nova's cluster-level placement inside each BB.
"""

import numpy as np

from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
from repro.infrastructure.vm import VM


def _skewed_cluster(nodes: int = 16, vms: int = 120, seed: int = 2) -> BuildingBlock:
    bb = BuildingBlock(bb_id="bench-bb", overcommit=OvercommitPolicy(cpu_ratio=4.0))
    for i in range(nodes):
        bb.add_node(
            ComputeNode(
                node_id=f"n{i:02d}",
                physical=Capacity(
                    vcpus=128, memory_mb=2048 * 1024, disk_gb=16384,
                    network_gbps=200,
                ),
            )
        )
    catalog = default_catalog()
    rng = np.random.default_rng(seed)
    names = ["g_c2_m4", "g_c4_m16", "g_c8_m32", "g_c16_m64"]
    first = list(bb.iter_nodes())[:2]
    for i in range(vms):
        flavor = catalog.get(str(rng.choice(names)))
        vm = VM(vm_id=f"v{i:03d}", flavor=flavor)
        target = first[i % 2]
        if target.fits(vm.requested(), bb.overcommit):
            target.add_vm(vm)
    return bb


def test_drs_converges_from_skew(benchmark):
    def run():
        bb = _skewed_cluster()
        balancer = DrsBalancer(config=DrsConfig(max_moves_per_run=200))
        before = balancer.imbalance(bb)
        migrations = balancer.run(bb)
        return bb, balancer, before, migrations

    bb, balancer, before, migrations = benchmark(run)

    after = balancer.imbalance(bb)
    assert before > 0.3
    assert after <= balancer.config.imbalance_threshold + 0.02
    assert len(migrations) > 10
    # Light VMs preferred: the median moved VM is small.
    moved_sizes = [m.load_cores for m in migrations]
    assert np.median(moved_sizes) <= 16
    # No target overfilled.
    for node in bb.iter_nodes():
        assert node.allocated().fits_within(bb.overcommit.allocatable(node.physical))

    print(f"\n[drs] imbalance {before:.3f} -> {after:.3f} in "
          f"{len(migrations)} moves (median moved size "
          f"{np.median(moved_sizes):.0f} vCPUs)")
