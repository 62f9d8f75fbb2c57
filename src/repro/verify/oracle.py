"""The differential scheduler oracle.

Runs one pre-drawn, seeded placement workload through independent
implementations that must agree byte-for-byte:

* the **naive reference path** — :class:`_RescanScheduler`: every
  request rebuilds every ``HostState`` from scratch and runs the whole
  filter chain in declared order.  The simulator never runs it; it lives
  here only as the reference;
* the **indexed path** — the production :class:`FilterScheduler`:
  incremental :class:`~repro.scheduler.index.HostStateIndex`, free-vCPU
  bucket pre-selection, cost-ordered short-circuiting filters;
* the **scalar-weigher variant** — the indexed path with every weigher's
  batch ``raw_weights`` forced back through the per-host ``raw_weight``
  loop, pinning the batch/scalar equivalence.

After the replays the oracle diffs placements, per-request traces,
scheduler/placement counters, and the final placement inventory
field-by-field, and additionally checks every cached index state against
a from-scratch rebuild (``HostState.diff_fields``).  Any disagreement
becomes a structured :class:`Mismatch` naming the check, the subject
(VM or host), and the field — never a bare boolean.

The replay itself is RNG-free: the workload is drawn up front by
:func:`workload_ops`, so a mid-run perturbation (e.g. the deliberate
index-desync used by tests and ``repro verify --inject-desync``) cannot
shift the request stream between paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.infrastructure.flavors import FLAVOR_MIX, default_catalog
from repro.infrastructure.hierarchy import BuildingBlock, Region
from repro.infrastructure.topology import TopologySpec, build_region
from repro.infrastructure.vm import VM, VMState
from repro.scheduler.hoststate import HostState
from repro.scheduler.pipeline import FilterScheduler, NoValidHost
from repro.scheduler.placement import PlacementService
from repro.scheduler.request import RequestSpec
from repro.scheduler.weighers import Weigher
from repro.verify.scenarios import VerifyScenario

#: Tenant pool the workload draws from (exercises TenantIsolationFilter
#: bookkeeping and the HostState ``tenants`` field).
_TENANTS = ("t-alpha", "t-beta", "t-gamma", "t-delta")


@dataclass(frozen=True)
class Mismatch:
    """One structured disagreement between two implementations.

    ``check`` names the comparison ("placements", "trace", "stats",
    "inventory", "index_state"), ``variant`` the implementation pair,
    ``subject`` the VM or host the disagreement is about, and ``f``/
    ``expected``/``actual`` pin the exact field and values.
    """

    check: str
    variant: str
    subject: str
    field: str
    expected: object
    actual: object

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "variant": self.variant,
            "subject": self.subject,
            "field": self.field,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
        }

    def render(self) -> str:
        return (
            f"[{self.check}/{self.variant}] {self.subject}.{self.field}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


def _jsonable(value: object) -> object:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, float):
        return round(value, 9)
    return value


@dataclass(frozen=True)
class WorkloadOp:
    """One pre-drawn workload step: a VM create or delete."""

    op: str  # "create" | "delete"
    vm_id: str
    flavor_name: str = ""
    tenant: str = ""


def workload_ops(scenario: VerifyScenario, seed: int) -> list[WorkloadOp]:
    """Draw the scenario's full op schedule up front (pure data).

    Creates follow the paper-calibrated ``FLAVOR_MIX``; one random
    earlier VM is deleted after every ``delete_every`` creates, so
    release paths and incremental index updates are part of every
    differential run.
    """
    rng = np.random.default_rng(seed)
    catalog = default_catalog()
    names = [n for n, w in FLAVOR_MIX if w > 0 and n in catalog]
    weights = np.asarray(
        [w for n, w in FLAVOR_MIX if w > 0 and n in catalog], dtype=float
    )
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=scenario.requests, p=weights)
    tenant_picks = rng.integers(0, len(_TENANTS), size=scenario.requests)
    ops: list[WorkloadOp] = []
    live: list[str] = []
    for i, pick in enumerate(picks):
        vm_id = f"vf-{seed}-{i:05d}"
        ops.append(
            WorkloadOp(
                op="create",
                vm_id=vm_id,
                flavor_name=names[int(pick)],
                tenant=_TENANTS[int(tenant_picks[i])],
            )
        )
        live.append(vm_id)
        if (
            scenario.delete_every
            and (i + 1) % scenario.delete_every == 0
            and live
        ):
            victim = live.pop(int(rng.integers(0, len(live))))
            ops.append(WorkloadOp(op="delete", vm_id=victim))
    return ops


class _RescanScheduler(FilterScheduler):
    """The naive reference: each request rescans the whole region.

    Rebuilds every building block's state with
    :meth:`HostState.from_building_block`, runs ``self.filters`` in
    declared order over all of them and ranks with the same weigher
    pipeline: no index, no bucket pre-selection, no short-circuiting.
    """

    def select_destinations(
        self, spec: RequestSpec
    ) -> tuple[list[tuple[HostState, float]], dict[str, int]]:
        hosts = self._prepare_states(
            [
                HostState.from_building_block(bb, self.placement)
                for bb in self.region.iter_building_blocks()
            ]
        )
        counts: dict[str, int] = {"initial": len(hosts)}
        for flt in self.filters:
            hosts = flt.filter_all(hosts, spec)
            counts[flt.name] = len(hosts)
        if not hosts:
            return [], counts
        return self._pipeline_for(spec).rank(hosts, spec), counts


class _ScalarizedWeigher(Weigher):
    """Forces a weigher's batch path back through per-host dispatch."""

    def __init__(self, base: Weigher) -> None:
        super().__init__(base.multiplier)
        self.name = base.name
        self._base = base

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return self._base.raw_weight(host, spec)

    # raw_weights deliberately NOT overridden: the abstract base class's
    # per-host loop is exactly the scalar path under test.


class _ScalarWeighScheduler(FilterScheduler):
    """FilterScheduler whose every weigher runs in scalar mode."""

    def _weighers_for(self, spec: RequestSpec):
        return [_ScalarizedWeigher(w) for w in super()._weighers_for(spec)]


@dataclass
class ReplayOutcome:
    """Everything one replay exposes for differential comparison."""

    variant: str
    #: Final residency: vm_id -> building block (deleted VMs absent).
    placements: dict[str, str]
    #: Per-create decision: (vm_id, host or None, rounded score, attempts).
    trace: list[tuple[str, str | None, float, int]]
    scheduler_stats: dict[str, int]
    placement_stats: dict[str, int]
    #: bb_id -> {field: value} snapshot of the final placement inventory.
    inventory: dict[str, dict[str, float | int]]
    #: Index-vs-truth disagreements.
    index_mismatches: list[Mismatch] = field(default_factory=list)


def desync_index(region: Region, placement: PlacementService) -> bool:
    """Deliberately desync the scheduler cache: ghost-write VM registries.

    Writes a ghost VM straight into the ``vms`` registry of every node of
    the first building block, skipping ``add_vm`` and therefore the
    notification the index relies on.  The index keeps serving the
    block's old instance count and tenant set (``t-ghost`` never joins),
    while the naive rebuild path and the oracle's from-scratch truth
    re-read the registries and see the ghosts.  Exactly the class of bug
    (a mutation outside the tracked paths) the oracle exists to catch.
    Always applies, so it returns ``True``.
    """
    bb = next(iter(region.iter_building_blocks()))
    catalog = default_catalog()
    flavor = next(catalog.get(n) for n, w in FLAVOR_MIX if w > 0 and n in catalog)
    for k, node in enumerate(bb.nodes.values()):
        ghost = VM(vm_id=f"vf-ghost-{k}", flavor=flavor, tenant="t-ghost")
        ghost.transition(VMState.BUILDING)
        ghost.transition(VMState.ACTIVE)
        ghost.node_id = node.node_id
        node.vms[ghost.vm_id] = ghost
    return True


def replay_workload(
    spec: TopologySpec,
    ops: list[WorkloadOp],
    *,
    variant: str,
    scheduler_cls: type[FilterScheduler] = FilterScheduler,
    perturb=None,
    perturb_after: int = 0,
) -> ReplayOutcome:
    """Replay ``ops`` through a fresh region + scheduler; snapshot the end.

    ``scheduler_cls`` picks the implementation (the production
    :class:`FilterScheduler` by default) and is built with the default
    :class:`~repro.scheduler.config.SchedulerConfig`.
    ``perturb`` (called with ``(region, placement)`` after every op from
    index ``perturb_after`` until it returns ``True``) lets callers inject
    corruption mid-run.  Both differential paths replay identical ops and
    placements up to the injection point, hence apply the same
    perturbation at the same position.
    """
    region = build_region(spec)
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    scheduler = scheduler_cls(region, placement)
    catalog = default_catalog()
    bb_index = {bb.bb_id: bb for bb in region.iter_building_blocks()}
    #: vm_id -> id of the node it landed on; resolved through the region
    #: at delete time rather than held as an object across ops.
    node_of: dict[str, str] = {}
    trace: list[tuple[str, str | None, float, int]] = []
    placements: dict[str, str] = {}
    perturbed = perturb is None

    for i, op in enumerate(ops):
        if op.op == "create":
            spec_req = RequestSpec(
                vm_id=op.vm_id,
                flavor=catalog.get(op.flavor_name),
                tenant=op.tenant,
            )
            try:
                result = scheduler.schedule(spec_req)
            except NoValidHost:
                trace.append((op.vm_id, None, 0.0, 0))
            else:
                bb = bb_index[result.host_id]
                node = bb.pick_node(spec_req.requested())
                if node is None:
                    # BB-level room but no single node fits: release, as
                    # the simulation runner does.
                    placement.release(op.vm_id)
                    trace.append((op.vm_id, None, 0.0, result.attempts))
                else:
                    vm = VM(
                        vm_id=op.vm_id,
                        flavor=spec_req.flavor,
                        tenant=op.tenant,
                    )
                    vm.transition(VMState.BUILDING)
                    vm.transition(VMState.ACTIVE)
                    node.add_vm(vm)
                    node_of[op.vm_id] = node.node_id
                    placements[op.vm_id] = result.host_id
                    trace.append(
                        (
                            op.vm_id,
                            result.host_id,
                            round(result.score, 9),
                            result.attempts,
                        )
                    )
        else:
            bb_id = placements.pop(op.vm_id, None)
            if bb_id is None:
                continue  # the create was rejected on this path
            bb_index[bb_id].nodes[node_of.pop(op.vm_id)].remove_vm(op.vm_id)
            placement.release(op.vm_id)
        if not perturbed and i >= perturb_after:
            perturbed = bool(perturb(region, placement))

    return ReplayOutcome(
        variant=variant,
        placements=placements,
        trace=trace,
        scheduler_stats=scheduler.stats_snapshot(),
        placement_stats={k: int(v) for k, v in placement.stats().items()},
        inventory=_inventory_snapshot(placement, bb_index),
        index_mismatches=index_mismatches(scheduler, bb_index, placement, variant),
    )


def index_mismatches(
    scheduler: FilterScheduler,
    bb_index: dict[str, BuildingBlock],
    placement: PlacementService,
    variant: str,
) -> list[Mismatch]:
    """Fields where the refreshed index disagrees with a from-scratch rebuild."""
    index = scheduler.index
    index.refresh()
    out: list[Mismatch] = []
    for state in index.states():
        truth = HostState.from_building_block(bb_index[state.host_id], placement)
        for name, actual, expected in state.diff_fields(truth):
            out.append(
                Mismatch(
                    check="index_state",
                    variant=variant,
                    subject=state.host_id,
                    field=name,
                    expected=expected,
                    actual=actual,
                )
            )
    return out


#: Public alias: the recovery layer snapshots inventory the same way as the
#: oracle, so a recovered run is comparable field-by-field with an oracle
#: replay.
def inventory_snapshot(
    placement: PlacementService, bb_index: dict[str, BuildingBlock]
) -> dict[str, dict[str, float | int]]:
    return _inventory_snapshot(placement, bb_index)


def _inventory_snapshot(
    placement: PlacementService, bb_index: dict[str, BuildingBlock]
) -> dict[str, dict[str, float | int]]:
    from repro.scheduler.placement import DISK_GB, MEMORY_MB, VCPU

    out: dict[str, dict[str, float | int]] = {}
    for bb_id in sorted(bb_index):
        provider = placement.provider(bb_id)
        out[bb_id] = {
            "free_vcpus": round(provider.free(VCPU), 6),
            "free_ram_mb": round(provider.free(MEMORY_MB), 6),
            "free_disk_gb": round(provider.free(DISK_GB), 6),
            "capacity_vcpus": round(provider.capacity(VCPU), 6),
            "allocations": len(placement.allocations_on(bb_id)),
            "resident_vms": bb_index[bb_id].vm_count,
        }
    return out


def diff_outcomes(
    reference: ReplayOutcome, candidate: ReplayOutcome
) -> list[Mismatch]:
    """Field-by-field comparison of two replays of the same ops."""
    variant = f"{reference.variant}-vs-{candidate.variant}"
    mismatches: list[Mismatch] = []

    for vm_id in sorted(set(reference.placements) | set(candidate.placements)):
        want = reference.placements.get(vm_id)
        got = candidate.placements.get(vm_id)
        if want != got:
            mismatches.append(
                Mismatch("placements", variant, vm_id, "host", want, got)
            )

    for ref_row, cand_row in zip(reference.trace, candidate.trace):
        vm_id = ref_row[0]
        for name, want, got in zip(
            ("host", "score", "attempts"), ref_row[1:], cand_row[1:]
        ):
            if want != got:
                mismatches.append(
                    Mismatch("trace", variant, vm_id, name, want, got)
                )

    for scope, ref_stats, cand_stats in (
        ("scheduler", reference.scheduler_stats, candidate.scheduler_stats),
        ("placement", reference.placement_stats, candidate.placement_stats),
    ):
        for key in sorted(set(ref_stats) | set(cand_stats)):
            want, got = ref_stats.get(key), cand_stats.get(key)
            if want != got:
                mismatches.append(
                    Mismatch("stats", variant, scope, key, want, got)
                )

    for bb_id in sorted(set(reference.inventory) | set(candidate.inventory)):
        ref_row = reference.inventory.get(bb_id, {})
        cand_row = candidate.inventory.get(bb_id, {})
        for name in sorted(set(ref_row) | set(cand_row)):
            want, got = ref_row.get(name), cand_row.get(name)
            if want != got:
                mismatches.append(
                    Mismatch("inventory", variant, bb_id, name, want, got)
                )
    return mismatches


@dataclass
class OracleResult:
    """Outcome of one differential-oracle run."""

    scenario: str
    seed: int
    ops: int
    placed: int
    rejected: int
    mismatches: list[Mismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ops": self.ops,
            "placed": self.placed,
            "rejected": self.rejected,
            "ok": self.ok,
            "mismatches": [m.to_dict() for m in self.mismatches],
        }

    def render(self) -> str:
        head = (
            f"oracle {self.scenario} seed {self.seed}: {self.ops} ops, "
            f"{self.placed} placed, {self.rejected} rejected — "
            f"{'OK' if self.ok else f'{len(self.mismatches)} MISMATCHES'}"
        )
        return "\n".join([head] + [f"  {m.render()}" for m in self.mismatches])


def run_oracle(
    scenario: VerifyScenario,
    seed: int,
    *,
    perturb=None,
    perturb_after: int | None = None,
) -> OracleResult:
    """Run all three implementations over one workload and diff them."""
    spec = scenario.topology()
    ops = workload_ops(scenario, seed)
    if perturb is not None and perturb_after is None:
        perturb_after = len(ops) // 2
    kwargs = {"perturb": perturb, "perturb_after": perturb_after or 0}
    reference = replay_workload(
        spec, ops, variant="reference", scheduler_cls=_RescanScheduler, **kwargs
    )
    indexed = replay_workload(spec, ops, variant="indexed", **kwargs)
    scalar = replay_workload(
        spec, ops, variant="scalar", scheduler_cls=_ScalarWeighScheduler, **kwargs
    )
    mismatches = (
        diff_outcomes(reference, indexed)
        + diff_outcomes(reference, scalar)
        + indexed.index_mismatches
        + scalar.index_mismatches
    )
    placed = sum(1 for _, host, _, _ in reference.trace if host is not None)
    return OracleResult(
        scenario=scenario.name,
        seed=seed,
        ops=len(ops),
        placed=placed,
        rejected=len(reference.trace) - placed,
        mismatches=mismatches,
    )
