"""The one balancing objective: the spread of node load fractions.

DRS balances a building block on it (§3.1); the migration planner and the
rebalance driver balance across building blocks on it (§7).  A node's load
fraction is its load over its physical cores; the imbalance is their
population std.  Failed and zero-core nodes are left out: their zero load
is no imbalance a migration could fix, and nothing may move onto them.

Loads are read through :func:`read_loads`, one call per set of VMs: a load
callable with a ``many`` method (the simulation's, which reads a whole set
as one demand batch) answers the set at once, any other is called VM by
VM.  Both read in the given order, so a load model that draws from a
shared generator draws the same numbers either way.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.infrastructure.hierarchy import ComputeNode, Region
from repro.infrastructure.vm import VM


def balanced_nodes(nodes: Iterable[ComputeNode]) -> list[ComputeNode]:
    """The nodes the objective is taken over, in their given order."""
    return [node for node in nodes if not node.failed and node.physical.vcpus > 0]


def general_purpose_nodes(region: Region, datacenter: str) -> list[ComputeNode]:
    """The nodes of the DC's general-purpose BBs: the cross-BB node set."""
    return [
        node
        for bb in region.iter_building_blocks()
        if bb.datacenter == datacenter and not bb.aggregate_class
        for node in bb.iter_nodes()
    ]


def read_loads(load_fn: Callable[[VM], float], vms: list[VM]) -> list[float]:
    """``load_fn`` of each VM in ``vms``, in order: one ``load_fn.many(vms)``
    call when the callable has that method, else one call per VM."""
    many = getattr(load_fn, "many", None)
    if many is not None:
        return many(vms)
    return [load_fn(vm) for vm in vms]


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``, on every Python version.

    The builtin ``sum`` of floats is this fold up to Python 3.11; from
    3.12 it compensates the rounding (Neumaier), so ``sum([1e16, 1.0,
    1.0])`` is ``1e16`` on 3.11 and ``1.0000000000000002e16`` on 3.12, and
    load fractions, and with them DRS moves, would change with the
    interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def load_fractions(
    nodes: Iterable[ComputeNode], load_fn: Callable[[VM], float]
) -> dict[str, float]:
    """Each balanced node's summed VM load over its physical cores.

    Every VM is read in one :func:`read_loads` call, in node order, then
    residency order; each node sums its slice with :func:`left_sum`.
    """
    balanced = balanced_nodes(nodes)
    vms = [vm for node in balanced for vm in node.vms.values()]
    loads = read_loads(load_fn, vms)
    fractions = {}
    start = 0
    for node in balanced:
        stop = start + len(node.vms)
        fractions[node.node_id] = left_sum(loads[start:stop]) / node.physical.vcpus
        start = stop
    return fractions


def imbalance(values: Sequence[float]) -> float:
    """Population std-dev of ``values``; 0.0 below two nodes."""
    return float(np.std(values)) if len(values) > 1 else 0.0


def moved_rows(base, source_col, source_deltas, target_cols, target_deltas) -> np.ndarray:
    """One copy of ``base`` per move: row ``i`` has ``source_deltas[i]``
    taken off ``source_col`` and ``target_deltas[i]`` added to
    ``target_cols[i]`` (either delta may be one scalar for every row)."""
    rows = np.repeat(base[np.newaxis, :], len(target_cols), axis=0)
    rows[:, source_col] -= source_deltas
    rows[np.arange(len(target_cols)), target_cols] += target_deltas
    return rows


def row_imbalance(rows: np.ndarray) -> np.ndarray:
    """Each row's :func:`imbalance`, bitwise equal to ``np.std`` of the row
    on its own (each row is one contiguous pairwise reduction)."""
    return np.std(rows, axis=1)
