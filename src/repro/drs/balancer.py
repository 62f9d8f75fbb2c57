"""The DRS balancing loop.

DRS computes a cluster imbalance metric — the standard deviation of node
load fractions, defined in :mod:`repro.drs.imbalance` — and greedily
recommends VM migrations from the most to the least loaded node while
(a) the imbalance exceeds the configured threshold, (b) each move improves
imbalance by a minimum margin (migrations are costly, §3.2 "avoiding
migration of heavy VMs"), and (c) capacity and affinity rules hold on the
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.drs import imbalance as objective
from repro.drs.affinity import AffinityRules
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode, fits_matrix
from repro.infrastructure.vm import VM

#: Maps a VM to its current load in physical-core-equivalents.
LoadFn = Callable[[VM], float]


def _allocated_load(vm: VM) -> float:
    """Fallback load model: the VM's allocated vCPUs."""
    return float(vm.flavor.vcpus)


@dataclass(frozen=True)
class DrsConfig:
    """Tuning knobs of the balancing loop."""

    #: Trigger threshold on the imbalance metric (std of load fractions).
    imbalance_threshold: float = 0.05
    #: A move must improve imbalance by at least this much.
    min_improvement: float = 0.005
    #: Cap on migrations per balancing pass.
    max_moves_per_run: int = 8
    #: VMs with load above this many cores are considered "heavy" and are
    #: only moved if nothing lighter fixes the imbalance (§3.2).
    heavy_vm_cores: float = 32.0


@dataclass(frozen=True)
class Migration:
    """One executed DRS migration."""

    vm_id: str
    source_node: str
    target_node: str
    load_cores: float
    improvement: float


def migrate(
    vm_id: str, source: ComputeNode, target: ComputeNode, fault_model=None
) -> bool:
    """Live-migrate one VM; False (VM still on ``source``) when
    ``fault_model`` (a :class:`repro.faults.MigrationFaultModel`) aborts
    it mid-precopy."""
    if fault_model is not None and not fault_model.attempt(
        vm_id, source.node_id, target.node_id
    ):
        return False
    vm = source.remove_vm(vm_id)
    target.add_vm(vm)
    vm.migrations += 1
    return True


@dataclass
class DrsBalancer:
    """Balances one building block (vSphere cluster)."""

    config: DrsConfig = field(default_factory=DrsConfig)
    rules: AffinityRules = field(default_factory=AffinityRules)

    def node_load_fractions(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> dict[str, float]:
        """Per-node load as a fraction of physical cores (see
        :func:`repro.drs.imbalance.load_fractions`)."""
        return objective.load_fractions(bb.iter_nodes(), load_fn)

    def imbalance(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> float:
        """Cluster imbalance: std-dev of node load fractions."""
        fractions = self.node_load_fractions(bb, load_fn)
        return objective.imbalance(list(fractions.values()))

    def run(
        self,
        bb: BuildingBlock,
        load_fn: LoadFn = _allocated_load,
        fault_model=None,
    ) -> list[Migration]:
        """One balancing pass; executes and returns migrations.

        ``fault_model`` (a :class:`repro.faults.MigrationFaultModel`) may
        abort individual moves mid-precopy: the VM stays on its source and
        is not retried within this pass.
        """
        migrations: list[Migration] = []
        aborted: set[str] = set()
        for _ in range(self.config.max_moves_per_run):
            current = self.imbalance(bb, load_fn)
            if current <= self.config.imbalance_threshold:
                break
            move = self._best_move(bb, load_fn, current, exclude=aborted)
            if move is None:
                break
            vm_id, source, target, load, improvement = move
            if not migrate(vm_id, source, target, fault_model):
                aborted.add(vm_id)
                continue
            migrations.append(
                Migration(
                    vm_id=vm_id,
                    source_node=source.node_id,
                    target_node=target.node_id,
                    load_cores=load,
                    improvement=improvement,
                )
            )
        return migrations

    def _best_move(
        self,
        bb: BuildingBlock,
        load_fn: LoadFn,
        current_imbalance: float,
        exclude: set[str] = frozenset(),
    ) -> tuple[str, ComputeNode, ComputeNode, float, float] | None:
        """The single move with the largest imbalance improvement.

        Prefers light VMs: a heavy VM (above ``heavy_vm_cores``) is only
        chosen when no lighter candidate achieves the minimum improvement.
        VMs in ``exclude`` (e.g. this pass's aborted migrations) and
        unhealthy targets (failed or draining nodes) are never considered.

        Every (source VM, target) pair is decided and scored at once: one
        :func:`~repro.infrastructure.hierarchy.fits_matrix` gives the
        capacity mask, ``allows_move`` refines it only for VMs a rule
        group names, and one :func:`~repro.drs.imbalance.moved_rows` /
        :func:`~repro.drs.imbalance.row_imbalance` matrix scores the
        admissible pairs.  The pick is the first maximum in VM-then-target
        order (:func:`_first_max`), which is what comparing the pairs in
        that order with a strict ``>`` keeps.  The source's VMs are read
        in one :func:`~repro.drs.imbalance.read_loads` call before any
        target is scored; nothing in between draws, so the reads are those
        of a VM-by-VM loop.
        """
        fractions = self.node_load_fractions(bb, load_fn)
        if len(fractions) < 2:
            return None
        ordered = sorted(fractions.items(), key=lambda kv: kv[1], reverse=True)
        source = bb.nodes[ordered[0][0]]
        # Candidate targets: every other healthy node, least loaded first.
        targets = [
            bb.nodes[node_id]
            for node_id, _ in reversed(ordered[1:])
            if bb.nodes[node_id].healthy
        ]
        candidates = [vm for vm in source.vms.values() if vm.vm_id not in exclude]
        loads = objective.read_loads(load_fn, candidates)
        if not candidates or not targets:
            return None

        admissible = fits_matrix(
            [vm.requested() for vm in candidates], targets, bb.overcommit
        )
        rules = self.rules
        for v, vm in enumerate(candidates):
            if rules.constrains(vm.vm_id):
                for t in admissible[v].nonzero()[0].tolist():
                    target_id = targets[t].node_id
                    admissible[v, t] = rules.allows_move(bb, vm.vm_id, target_id)
        pair_vm, pair_target = admissible.nonzero()  # VM-then-target order
        if not pair_vm.size:
            return None

        column = {node_id: i for i, node_id in enumerate(fractions)}
        target_cols = np.array([column[t.node_id] for t in targets])
        target_vcpus = np.array([t.physical.vcpus for t in targets], dtype=float)
        pair_loads = np.array(loads, dtype=float)[pair_vm]
        rows = objective.moved_rows(
            np.array(list(fractions.values())),
            column[source.node_id],
            pair_loads / source.physical.vcpus,
            target_cols[pair_target],
            pair_loads / target_vcpus[pair_target],
        )
        improvement = current_imbalance - objective.row_imbalance(rows)
        enough = improvement >= self.config.min_improvement
        light = _first_max(improvement, enough & (pair_loads <= self.config.heavy_vm_cores))
        pick = light if light is not None else _first_max(improvement, enough)
        if pick is None:
            return None
        v = pair_vm[pick]
        return (
            candidates[v].vm_id,
            source,
            targets[pair_target[pick]],
            loads[v],
            float(improvement[pick]),
        )


def _first_max(values: np.ndarray, mask: np.ndarray) -> int | None:
    """The index of the first maximum of ``values`` among ``mask``, or None
    for an empty mask: what a scan in index order keeps when it replaces
    its pick only on a strictly greater value."""
    index = mask.nonzero()[0]
    if not index.size:
        return None
    return int(index[np.argmax(values[index])])
