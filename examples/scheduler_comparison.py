"""Compare vanilla Nova placement with the paper's §7-motivated schedulers.

Replays one Table 1/2-shaped request stream through four strategies —
default filter/weigher, contention-aware, lifetime-aware, and holistic
node-level — and reports hot-host load, churn mixing, and consolidation.

Run:  python examples/scheduler_comparison.py
"""

import numpy as np

from repro.core.advanced_placement import (
    ContentionAwareScheduler,
    HolisticNodeScheduler,
    LifetimeAwareScheduler,
)
from repro.datagen.population import FLAVOR_MIX
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.topology import build_region, paper_region_spec
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.scheduler.weighers import FitnessWeigher

SCALE = 0.03
N_REQUESTS = 400


def fresh_region():
    region = build_region(paper_region_spec(scale=SCALE))
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    return region, placement


def request_stream(seed: int = 42):
    catalog = default_catalog()
    rng = np.random.default_rng(seed)
    names = [n for n, w in FLAVOR_MIX if w > 0]
    weights = np.asarray([w for _, w in FLAVOR_MIX if w > 0])
    weights = weights / weights.sum()
    stream = []
    for i, pick in enumerate(rng.choice(len(names), size=N_REQUESTS, p=weights)):
        short = bool(rng.random() < 0.4)
        stream.append(
            RequestSpec(
                vm_id=f"vm-{i:05d}",
                flavor=catalog.get(names[int(pick)]),
                scheduler_hints={
                    "expected_lifetime_s": "1800" if short else str(90 * 86_400)
                },
            )
        )
    return stream


def replay(scheduler, stream):
    placements = {}
    for spec in stream:
        try:
            placements[spec.vm_id] = scheduler.schedule(spec).host_id
        except NoValidHost:
            pass
    return placements


def main() -> None:
    stream = request_stream()

    # Vanilla Nova.
    region, placement = fresh_region()
    general_bbs = sorted(
        (b for b in region.iter_building_blocks() if not b.aggregate_class),
        key=lambda b: -b.physical().vcpus,
    )
    # Mark the largest quarter (never all) as historically contended.
    n_hot = min(max(1, len(general_bbs) // 4), len(general_bbs) - 1)
    hot_hosts = {bb.bb_id: 30.0 for bb in general_bbs[:n_hot]}
    default = replay(FilterScheduler(region, placement), stream)

    # Contention-aware.
    region2, placement2 = fresh_region()
    aware = replay(
        ContentionAwareScheduler(
            region2, placement2, contention_scores=hot_hosts,
            contention_multiplier=4.0,
        ),
        stream,
    )

    # Lifetime-aware.
    region3, placement3 = fresh_region()
    general = sorted(
        bb.bb_id for bb in region3.iter_building_blocks() if not bb.aggregate_class
    )
    churn = {
        bb_id: "short" if i < len(general) * 0.4 else "long"
        for i, bb_id in enumerate(general)
    }
    lifetime = replay(
        LifetimeAwareScheduler(
            region3, placement3, churn_classes=churn, affinity_multiplier=4.0
        ),
        stream,
    )

    # Holistic node-level best-fit.
    region4, placement4 = fresh_region()
    holistic_nodes = set(
        replay(
            HolisticNodeScheduler(
                region4, placement4, weighers=[FitnessWeigher(2.0)]
            ),
            stream,
        ).values()
    )

    def hot_share(placements):
        return sum(1 for h in placements.values() if h in hot_hosts) / len(placements)

    print(f"Replayed {N_REQUESTS} placement requests per strategy "
          f"({len(hot_hosts)} hosts marked historically contended)\n")
    print(f"{'strategy':<18} {'share on hot hosts':>20}")
    print(f"{'default Nova':<18} {hot_share(default):>19.1%}")
    print(f"{'contention-aware':<18} {hot_share(aware):>19.1%}")

    def mixing(placements, stream):
        short_by_vm = {
            s.vm_id: s.scheduler_hints["expected_lifetime_s"] == "1800"
            for s in stream
        }
        hosts = {}
        for vm, host in placements.items():
            hosts.setdefault(host, set()).add(short_by_vm[vm])
        return sum(1 for kinds in hosts.values() if len(kinds) == 2) / len(hosts)

    print(f"\n{'strategy':<18} {'hosts mixing short+long VMs':>28}")
    print(f"{'default Nova':<18} {mixing(default, stream):>27.1%}")
    print(f"{'lifetime-aware':<18} {mixing(lifetime, stream):>27.1%}")

    two_layer_nodes = sum(
        bb.node_count
        for bb in region.iter_building_blocks()
        if any(v > 0 for v in placement.provider(bb.bb_id).used.values())
    )
    print(f"\n{'strategy':<18} {'activated nodes':>16}")
    print(f"{'two-layer (Nova+DRS)':<18} {two_layer_nodes:>14}")
    print(f"{'holistic best-fit':<18} {len(holistic_nodes):>14}")


if __name__ == "__main__":
    main()
