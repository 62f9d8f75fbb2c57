"""Continuous rebalancing walk-through (§7).

Builds a deliberately fragmented data center — one building block loaded
far above its siblings — then runs the two-layer rebalancing loop (DRS
inside clusters, cost-aware planner across them) and reports the imbalance
trajectory and migration costs.

Run:  python examples/rebalancing.py
"""

import numpy as np

from repro.drs.balancer import DrsBalancer
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import build_region, paper_region_spec
from repro.infrastructure.vm import VM
from repro.drs import RebalanceDriver
from repro.scheduler.placement import PlacementService


def main() -> None:
    region = build_region(paper_region_spec(scale=0.02))
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)

    # Fragment one DC: stack VMs onto the first general BB's first nodes.
    catalog = default_catalog()
    dc = next(region.iter_datacenters())
    general = [
        bb for bb in dc.iter_building_blocks() if not bb.aggregate_class
    ]
    target_bb = general[0]
    nodes = list(target_bb.iter_nodes())
    rng = np.random.default_rng(5)
    count = 0
    for i in range(120):
        flavor = catalog.get(str(rng.choice(["g_c4_m16", "g_c8_m32", "g_c16_m64"])))
        vm = VM(vm_id=f"vm-{i:03d}", flavor=flavor)
        node = nodes[i % max(1, len(nodes) // 3)]  # only the first third
        if not node.fits(vm.requested(), target_bb.overcommit):
            continue
        node.add_vm(vm)
        placement.claim(vm.vm_id, target_bb.bb_id, vm.requested())
        count += 1

    driver = RebalanceDriver(region, placement)
    print(f"Fragmented {dc.dc_id}: {count} VMs stacked on "
          f"{max(1, len(nodes) // 3)} of {len(nodes)} nodes in {target_bb.bb_id}")
    print(f"initial DC imbalance (std of node load fractions): "
          f"{driver.dc_imbalance(dc.dc_id):.3f}\n")

    drs = DrsBalancer()
    for bb in general:
        print(f"  {bb.bb_id}: intra-BB imbalance {drs.imbalance(bb):.3f}")

    report = driver.run_until_stable(dc.dc_id, max_passes=5)
    print(f"\nRebalancing: {report.passes} passes, "
          f"{report.intra_bb_migrations} DRS moves, "
          f"{report.cross_bb_migrations} cross-BB migrations "
          f"({report.total_transfer_mb / 1024:.1f} GiB transferred, "
          f"{report.skipped_moves} moves skipped on cost)")
    print(f"imbalance {report.imbalance_before:.3f} -> "
          f"{report.imbalance_after:.3f}")

    print("\nFirst few moves:")
    for line in report.history[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
