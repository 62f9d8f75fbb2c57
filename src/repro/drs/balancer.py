"""The DRS balancing loop.

DRS computes a cluster imbalance metric — the standard deviation of node
load fractions — and greedily recommends VM migrations from the most to the
least loaded node while (a) the imbalance exceeds the configured threshold,
(b) each move improves imbalance by a minimum margin (migrations are costly,
§3.2 "avoiding migration of heavy VMs"), and (c) capacity and affinity rules
hold on the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.drs.affinity import AffinityRules
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
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


@dataclass
class DrsBalancer:
    """Balances one building block (vSphere cluster)."""

    config: DrsConfig = field(default_factory=DrsConfig)
    rules: AffinityRules = field(default_factory=AffinityRules)

    def node_load_fractions(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> dict[str, float]:
        """Per-node load as a fraction of physical cores.

        Failed nodes are excluded: they carry no VMs and no usable
        capacity, so counting their zero load would read as imbalance the
        balancer can never fix (and must not "fix" by migrating onto them).
        """
        fractions: dict[str, float] = {}
        for node in bb.iter_nodes():
            if node.failed:
                continue
            load = sum(load_fn(vm) for vm in node.vms.values())
            fractions[node.node_id] = (
                load / node.physical.vcpus if node.physical.vcpus > 0 else 0.0
            )
        return fractions

    def imbalance(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> float:
        """Cluster imbalance: std-dev of node load fractions."""
        fractions = list(self.node_load_fractions(bb, load_fn).values())
        if len(fractions) < 2:
            return 0.0
        return float(np.std(fractions))

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
            if fault_model is not None and not fault_model.attempt(
                vm_id, source.node_id, target.node_id
            ):
                aborted.add(vm_id)
                continue
            vm = source.remove_vm(vm_id)
            target.add_vm(vm)
            vm.migrations += 1
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

        Each source VM's admissible targets are scored in one array op:
        one row of node fractions per target, with the move applied, and
        a row-wise ``np.std`` (bitwise equal to the std of each row on
        its own).  Candidates are compared in target order with a strict
        ``>``, so the first of equal improvements wins.
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
        column = {node_id: i for i, node_id in enumerate(fractions)}
        source_column = column[source.node_id]
        base = np.array(list(fractions.values()))

        best: tuple[str, ComputeNode, ComputeNode, float, float] | None = None
        best_light: tuple[str, ComputeNode, ComputeNode, float, float] | None = None
        for vm in source.vms.values():
            if vm.vm_id in exclude:
                continue
            load = load_fn(vm)
            requested = vm.requested()
            admissible = [
                target
                for target in targets
                if target.fits(requested, bb.overcommit)
                and self.rules.allows_move(bb, vm.vm_id, target.node_id)
            ]
            if not admissible:
                continue
            rows = np.repeat(base[np.newaxis, :], len(admissible), axis=0)
            rows[:, source_column] -= load / source.physical.vcpus
            rows[
                np.arange(len(admissible)),
                [column[target.node_id] for target in admissible],
            ] += [load / target.physical.vcpus for target in admissible]
            after = np.std(rows, axis=1).tolist()
            for target, imbalance in zip(admissible, after):
                improvement = current_imbalance - imbalance
                if improvement < self.config.min_improvement:
                    continue
                candidate = (vm.vm_id, source, target, load, improvement)
                if best is None or improvement > best[4]:
                    best = candidate
                if load <= self.config.heavy_vm_cores and (
                    best_light is None or improvement > best_light[4]
                ):
                    best_light = candidate
        return best_light if best_light is not None else best
