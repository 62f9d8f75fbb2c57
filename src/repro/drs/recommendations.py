"""Advisory mode: produce migration recommendations without executing them.

vCenter surfaces DRS recommendations with priority levels before applying
them; operators can run DRS in manual mode.  :func:`recommend_moves`
evaluates a building block and returns prioritised recommendations, leaving
the cluster untouched — useful for the what-if analyses of §7.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.drs.balancer import DrsBalancer, DrsConfig, LoadFn, _allocated_load
from repro.drs.imbalance import read_loads
from repro.infrastructure.hierarchy import BuildingBlock


@dataclass(frozen=True)
class Recommendation:
    """One advisory migration, with a 1 (urgent) … 5 (marginal) priority."""

    vm_id: str
    source_node: str
    target_node: str
    improvement: float
    priority: int


def recommend_moves(
    bb: BuildingBlock,
    load_fn: LoadFn = _allocated_load,
    config: DrsConfig | None = None,
) -> list[Recommendation]:
    """Prioritised migration recommendations for one building block.

    Works on a deep copy, so the input cluster is never modified.
    """
    balancer = DrsBalancer(config=config or DrsConfig())
    snapshot = copy.deepcopy(bb)
    # Loads are keyed by vm_id so the copy can reuse the caller's load model.
    vms = bb.vms()
    loads = dict(zip((vm.vm_id for vm in vms), read_loads(load_fn, vms)))
    migrations = balancer.run(snapshot, load_fn=lambda vm: loads.get(vm.vm_id, 0.0))
    if not migrations:
        return []
    max_improvement = max(m.improvement for m in migrations)
    recommendations = []
    for migration in migrations:
        ratio = migration.improvement / max_improvement if max_improvement > 0 else 0.0
        priority = 1 + int(round((1.0 - ratio) * 4))
        recommendations.append(
            Recommendation(
                vm_id=migration.vm_id,
                source_node=migration.source_node,
                target_node=migration.target_node,
                improvement=migration.improvement,
                priority=priority,
            )
        )
    return recommendations
