"""The `repro verify` runner: check registry, report, exit semantics.

One :func:`run_verify` call executes a named set of checks for every
(scenario, seed) pair and folds the outcomes into a single JSON-ready
report.  The report is byte-stable by construction — no wall clock, no
host identity, sorted keys, rounded floats — so CI can diff two runs of
the same tree directly.

Checks:

``oracle``
    Differential scheduler oracle (naive vs indexed vs scalar weighers).
``desync``
    Harness self-test: replays the oracle with a deliberately injected
    index desync (ghost VMs written straight into node registries,
    skipping ``add_vm`` and its notification to the index) and
    *passes only if the corruption is detected* — guarding the guard.
``metamorphic``
    Telemetry + scheduler metamorphic properties.
``determinism_faults`` / ``determinism_chaos``
    The seeded fault / chaos scenario rendered to canonical JSON twice
    in-process; any byte difference is nondeterminism.  Replaces the
    former ``scripts/check_fault_determinism.sh`` and
    ``scripts/check_chaos_determinism.sh``.
``scrape_path``
    The simulator (batched scrape and DRS reads) vs the per-sample
    reference in :mod:`repro.verify.reference` on a seeded two-day fault
    run sized by the scenario (``dense`` packs the most VMs per node):
    placements, counters, scheduler stats, the fault report, and the
    telemetry store's content fingerprint must be byte-identical.
``sweep``
    Order-independence of the scenario-sweep engine: a micro-grid run
    sequentially, with one worker, and with two workers must merge to
    byte-identical reports.
``goldens``
    Golden-trace regression against ``tests/goldens/``.
``iofaults``
    Durability torture: seeded storage-fault × crash schedules against
    every persistent artifact; each must end in byte-identical recovery
    or a structured ``IoFaultError`` naming its IO point.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.reporting import ReportBase
from repro.verify.goldens import check_golden, update_golden
from repro.verify.metamorphic import run_metamorphic
from repro.verify.oracle import Mismatch, desync_index, run_oracle
from repro.verify.scenarios import VerifyScenario, get_scenario

#: Registry order is report order.
ALL_CHECKS = (
    "oracle",
    "desync",
    "metamorphic",
    "determinism_faults",
    "determinism_chaos",
    "scrape_path",
    "sweep",
    "goldens",
    "iofaults",
)

#: First verification seed; ``--seeds N`` runs seeds BASE_SEED..BASE_SEED+N-1.
BASE_SEED = 7


@dataclass(frozen=True)
class VerifyConfig:
    """One `repro verify` invocation."""

    scenario: str = "default"
    seeds: tuple[int, ...] = (BASE_SEED,)
    checks: tuple[str, ...] = ALL_CHECKS
    goldens_dir: str | None = None
    update_goldens: bool = False
    #: Corrupt the oracle run itself (demonstrates detection; run fails).
    inject_desync: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(
                f"unknown checks {sorted(unknown)}; known: {list(ALL_CHECKS)}"
            )


@dataclass
class CheckOutcome:
    """One check on one (scenario, seed)."""

    check: str
    scenario: str
    seed: int
    ok: bool
    summary: str
    mismatches: list[Mismatch] = field(default_factory=list)
    diff: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "summary": self.summary,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "diff": self.diff,
        }


@dataclass
class VerifyReport(ReportBase):
    """Everything one `repro verify` run produced."""

    config: VerifyConfig
    outcomes: list[CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "scenario": self.config.scenario,
            "seeds": list(self.config.seeds),
            "checks": list(self.config.checks),
            "inject_desync": self.config.inject_desync,
            "ok": self.ok,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self) -> str:
        """Byte-stable JSON rendering (sorted keys, no volatile fields)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = []
        for o in self.outcomes:
            status = "ok" if o.ok else "FAIL"
            lines.append(f"{status:4s} {o.check:20s} seed {o.seed}: {o.summary}")
            for m in o.mismatches[:10]:
                lines.append(f"       {m.render()}")
            if len(o.mismatches) > 10:
                lines.append(f"       ... {len(o.mismatches) - 10} more")
            if o.diff and not o.ok:
                lines.extend(f"       {d}" for d in o.diff.splitlines()[:40])
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"verify {self.config.scenario} seeds {list(self.config.seeds)}: "
            f"{verdict} ({sum(o.ok for o in self.outcomes)}/"
            f"{len(self.outcomes)} checks ok)"
        )
        return "\n".join(lines)


def _check_oracle(
    scenario: VerifyScenario, seed: int, inject_desync: bool
) -> CheckOutcome:
    result = run_oracle(
        scenario, seed, perturb=desync_index if inject_desync else None
    )
    summary = (
        f"{result.ops} ops, {result.placed} placed, {result.rejected} rejected, "
        f"{len(result.mismatches)} mismatches"
    )
    if inject_desync:
        summary += " (desync injected)"
    return CheckOutcome(
        check="oracle",
        scenario=scenario.name,
        seed=seed,
        ok=result.ok,
        summary=summary,
        mismatches=result.mismatches,
    )


def _check_desync(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    """Self-test: the oracle must catch a deliberately corrupted index."""
    result = run_oracle(scenario, seed, perturb=desync_index)
    detected = not result.ok
    named = any(m.subject and m.field for m in result.mismatches)
    return CheckOutcome(
        check="desync",
        scenario=scenario.name,
        seed=seed,
        ok=detected and named,
        summary=(
            f"injected desync detected: {len(result.mismatches)} structured "
            f"mismatches"
            if detected
            else "injected desync NOT detected — oracle is blind"
        ),
        # The mismatches are the *expected* detection; only report them
        # when the self-test fails (detection missing or unnamed).
        mismatches=[] if detected and named else result.mismatches,
    )


def _check_metamorphic(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    mismatches = run_metamorphic(scenario, seed)
    return CheckOutcome(
        check="metamorphic",
        scenario=scenario.name,
        seed=seed,
        ok=not mismatches,
        summary=f"{len(mismatches)} property violations",
        mismatches=mismatches,
    )


def _twice_diff(render_once) -> tuple[bool, str]:
    first = render_once()
    second = render_once()
    if first == second:
        return True, ""
    diff = "".join(
        difflib.unified_diff(
            first.splitlines(keepends=True),
            second.splitlines(keepends=True),
            fromfile="first-run",
            tofile="second-run",
            n=2,
        )
    )
    return False, diff


def _check_determinism_faults(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    from repro.faults.scenario import run_fault_scenario

    ok, diff = _twice_diff(
        lambda: run_fault_scenario(scenario.fault_scenario(seed)).fault_report.to_json()
    )
    return CheckOutcome(
        check="determinism_faults",
        scenario=scenario.name,
        seed=seed,
        ok=ok,
        summary="fault report byte-identical across two runs"
        if ok
        else "fault report DIFFERS between identical runs",
        diff=diff,
    )


def _check_determinism_chaos(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    from repro.resilience.chaos import chaos_summary_json, run_chaos_scenario

    ok, diff = _twice_diff(
        lambda: chaos_summary_json(run_chaos_scenario(scenario.chaos_scenario(seed)))
    )
    return CheckOutcome(
        check="determinism_chaos",
        scenario=scenario.name,
        seed=seed,
        ok=ok,
        summary="chaos summary byte-identical across two runs"
        if ok
        else "chaos summary DIFFERS between identical runs",
        diff=diff,
    )


def _check_scrape_path(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    """The simulator must be observationally identical to the reference.

    The scenario's two-day faulted run
    (:meth:`~repro.verify.scenarios.VerifyScenario.scrape_path_scenario`)
    is run once by the simulator (batched scrape, batched DRS reads) and
    once by the per-sample
    :class:`~repro.verify.reference.ReferenceSimulation`, and
    each run is rendered to one canonical document covering everything
    downstream consumers can observe: final placements, lifecycle
    counters, scheduler stats, the fault report, and the telemetry
    store's content fingerprint (every timestamp and value byte of every
    series, in insertion order).
    """
    from repro.faults.scenario import run_fault_scenario
    from repro.verify.reference import run_reference_scenario

    config = scenario.scrape_path_scenario(seed)

    def render(result) -> str:
        doc = {
            "placements": {
                vm_id: vm.node_id for vm_id, vm in sorted(result.vms.items())
            },
            "created": result.created,
            "deleted": result.deleted,
            "rejected": result.rejected,
            "resized": result.resized,
            "drs_migrations": result.drs_migrations,
            "events_processed": result.events_processed,
            "scheduler_stats": dict(result.scheduler_stats),
            "samples": result.store.sample_count(),
            "store_fingerprint": result.store.content_fingerprint(),
            "fault_report": json.loads(result.fault_report.to_json()),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    columnar = render(run_fault_scenario(config))
    reference = render(run_reference_scenario(config))
    ok = columnar == reference
    diff = ""
    if not ok:
        diff = "".join(
            difflib.unified_diff(
                reference.splitlines(keepends=True),
                columnar.splitlines(keepends=True),
                fromfile="reference",
                tofile="columnar",
                n=2,
            )
        )
    return CheckOutcome(
        check="scrape_path",
        scenario=scenario.name,
        seed=seed,
        ok=ok,
        summary=(
            "columnar == per-sample reference: placements, counters, fault "
            "report, store fingerprint byte-identical over 2 days"
            if ok
            else "columnar scrape path DIVERGES from the per-sample reference"
        ),
        diff=diff,
    )


def _check_sweep(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    """The sweep engine's order-independence contract, held by comparison.

    A micro-grid is executed three ways — sequentially in-process, and
    through the multiprocess engine at one and at two workers — and all
    three canonical renderings must be byte-identical.  Any divergence
    means shard isolation (worker count, scheduling order, process
    state) leaked into the merged report.
    """
    from repro.reporting import canonical_bytes
    from repro.sweep import grid_from_dict, run_sweep, run_sweep_inline

    grid = grid_from_dict(
        {
            "base": {
                "duration_days": 0.05,
                "building_blocks": 2,
                "nodes_per_bb": 2,
                "initial_vms": 8,
                "arrival_rate_per_hour": 4.0,
            },
            "seeds": [seed, seed + 1],
            "axes": {"arrival_rate_per_hour": [4.0, 8.0]},
        }
    )
    inline = canonical_bytes(run_sweep_inline(grid)).decode("utf-8")
    one_worker, _ = run_sweep(grid, workers=1)
    two_workers, _ = run_sweep(grid, workers=2)
    variants = {
        "workers-1": canonical_bytes(one_worker).decode("utf-8"),
        "workers-2": canonical_bytes(two_workers).decode("utf-8"),
    }
    diff = ""
    for name, rendered in variants.items():
        if rendered != inline:
            diff = "".join(
                difflib.unified_diff(
                    inline.splitlines(keepends=True),
                    rendered.splitlines(keepends=True),
                    fromfile="sequential",
                    tofile=name,
                    n=2,
                )
            )
            break
    ok = not diff
    return CheckOutcome(
        check="sweep",
        scenario=scenario.name,
        seed=seed,
        ok=ok,
        summary=(
            f"{len(grid.cells)}-cell grid byte-identical: sequential == "
            "1 worker == 2 workers"
            if ok
            else "sweep report DIFFERS across worker counts"
        ),
        diff=diff,
    )


def _check_goldens(
    scenario: VerifyScenario, seed: int, goldens_dir: str | None, update: bool
) -> CheckOutcome:
    directory = Path(goldens_dir) if goldens_dir else None
    if update:
        path = update_golden(scenario, seed, directory)
        return CheckOutcome(
            check="goldens",
            scenario=scenario.name,
            seed=seed,
            ok=True,
            summary=f"golden regenerated: golden/{path.name}",
        )
    result = check_golden(scenario, seed, directory)
    return CheckOutcome(
        check="goldens",
        scenario=scenario.name,
        seed=seed,
        ok=result.ok,
        summary=f"golden {result.status}: golden/{Path(result.path).name}",
        diff=result.diff,
    )


def _check_iofaults(scenario: VerifyScenario, seed: int) -> CheckOutcome:
    """The storage layer's durability contract, held by torture.

    A small seeded battery (always the tiny workload — the contract is
    about the storage layer, not scenario scale) of IO-fault × crash
    schedules against every persistent artifact; any torn artifact,
    lost-but-acked state, or unstructured error fails the check.
    """
    from repro.iofaults.torture import TortureConfig, run_torture

    report = run_torture(
        TortureConfig(scenario="tiny", seeds=(seed,), schedules=10)
    )
    failed = [case for case in report.cases if not case.ok]
    fired = sum(1 for case in report.cases if case.fired)
    return CheckOutcome(
        check="iofaults",
        scenario=scenario.name,
        seed=seed,
        ok=report.ok,
        summary=(
            f"{len(report.cases)} fault schedules ({fired} fired): "
            "byte-identical recovery or structured IoFaultError"
            if report.ok
            else f"{len(failed)} schedules violated the durability "
            f"contract (first: {failed[0].artifact} #{failed[0].index} "
            f"{failed[0].outcome})"
        ),
    )


def run_verify(config: VerifyConfig, progress=None) -> VerifyReport:
    """Run every selected check for every seed; never raises on divergence.

    ``progress`` (a callable taking one string) is told which check is
    about to run — the CLI uses it to report where an interrupted run
    got to.
    """
    scenario = get_scenario(config.scenario)
    outcomes: list[CheckOutcome] = []
    for seed in config.seeds:
        for check in config.checks:
            if progress is not None:
                progress(f"{check} (seed {seed})")
            if check == "oracle":
                outcomes.append(
                    _check_oracle(scenario, seed, config.inject_desync)
                )
            elif check == "desync":
                outcomes.append(_check_desync(scenario, seed))
            elif check == "metamorphic":
                outcomes.append(_check_metamorphic(scenario, seed))
            elif check == "determinism_faults":
                outcomes.append(_check_determinism_faults(scenario, seed))
            elif check == "determinism_chaos":
                if not scenario.include_chaos:
                    continue
                outcomes.append(_check_determinism_chaos(scenario, seed))
            elif check == "scrape_path":
                outcomes.append(_check_scrape_path(scenario, seed))
            elif check == "sweep":
                outcomes.append(_check_sweep(scenario, seed))
            elif check == "goldens":
                outcomes.append(
                    _check_goldens(
                        scenario,
                        seed,
                        config.goldens_dir,
                        config.update_goldens,
                    )
                )
            elif check == "iofaults":
                outcomes.append(_check_iofaults(scenario, seed))
    return VerifyReport(config=config, outcomes=outcomes)
