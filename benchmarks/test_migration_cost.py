"""Ablation: cost-aware vs cost-blind migration planning (§3.2 / §7).

The paper wants continuous rebalancing (§7) but warns against migrating
memory-hot VMs (§3.2).  Scenario: an imbalanced node set where the
heaviest VM would balance best.  A cost-blind planner moves it and pays a
long, high-downtime migration; the cost-aware planner reaches comparable
balance with light VMs at a fraction of the transfer volume.
"""

import numpy as np

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
from repro.infrastructure.vm import VM
from repro.migration.planner import MigrationPlanner
from repro.migration.precopy import PrecopyModel


def _scenario():
    """Two nodes; node 0 holds one memory-hot big VM and many light ones."""
    bb = BuildingBlock(bb_id="bb", overcommit=OvercommitPolicy(cpu_ratio=4.0))
    for i in range(2):
        bb.add_node(
            ComputeNode(
                node_id=f"bb-n{i}",
                physical=Capacity(
                    vcpus=64, memory_mb=2048 * 1024, disk_gb=4096,
                    network_gbps=200,
                ),
            )
        )
    node0 = list(bb.iter_nodes())[0]
    node0.add_vm(VM(vm_id="hot-db", flavor=Flavor("hana", 24, 1024, family="hana")))
    for i in range(8):
        node0.add_vm(VM(vm_id=f"light-{i}", flavor=Flavor(f"g{i}", 4, 16)))
    return list(bb.iter_nodes())


def _load_view(vm):
    memory_ratio = 0.95 if vm.vm_id == "hot-db" else 0.4
    return float(vm.flavor.vcpus), memory_ratio


def test_cost_aware_planning_avoids_heavy_migrations(benchmark):
    # 25 GB/s link: the memory-hot VM *can* converge, but only through ~30
    # re-copy rounds.  Cost-blind: effectively unlimited downtime budget.
    blind = MigrationPlanner(
        precopy=PrecopyModel(bandwidth_mbps=25_000, max_rounds=100),
        downtime_budget_s=1e9,
        min_benefit_per_second=0.0,
    )
    blind_plan = blind.plan_for_nodes(_scenario(), load_view=_load_view)

    def run_aware():
        aware = MigrationPlanner(
            precopy=PrecopyModel(bandwidth_mbps=25_000),
            downtime_budget_s=1.0,
        )
        return aware.plan_for_nodes(_scenario(), load_view=_load_view)

    aware_plan = benchmark(run_aware)

    # The blind plan moves the memory-hot database; the aware plan never does.
    assert any(m.vm_id == "hot-db" for m in blind_plan.moves)
    assert all(m.vm_id != "hot-db" for m in aware_plan.moves)

    # Both plans balance, but the aware one transfers far less data.
    blind_gain = sum(m.improvement for m in blind_plan.moves)
    aware_gain = sum(m.improvement for m in aware_plan.moves)
    assert aware_gain > 0.5 * blind_gain
    assert aware_plan.total_transfer_mb < 0.5 * blind_plan.total_transfer_mb
    assert aware_plan.total_downtime_s < blind_plan.total_downtime_s

    print(f"\n[migration] blind: {len(blind_plan)} moves, "
          f"{blind_plan.total_transfer_mb / 1024:.0f} GiB transferred, "
          f"{blind_plan.total_downtime_s:.2f}s downtime, gain {blind_gain:.3f}; "
          f"aware: {len(aware_plan)} moves, "
          f"{aware_plan.total_transfer_mb / 1024:.0f} GiB, "
          f"{aware_plan.total_downtime_s:.2f}s, gain {aware_gain:.3f}")


def test_precopy_model_throughput(benchmark):
    """Raw estimator throughput across a fleet-sized VM set."""
    model = PrecopyModel()
    rng = np.random.default_rng(1)
    memories = rng.uniform(1024, 2_000_000, 2000)
    dirty = rng.uniform(0, 8_000, 2000)

    def run():
        return [model.estimate(m, d) for m, d in zip(memories, dirty)]

    estimates = benchmark(run)
    assert len(estimates) == 2000
    assert all(e.total_seconds >= 0 for e in estimates)
