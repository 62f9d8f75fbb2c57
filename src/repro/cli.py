"""Command-line interface.

Subcommands::

    repro generate --out DIR [--scale S] [--days D] [--sampling SEC] [--seed N]
        Generate a calibrated synthetic dataset and write the CSV archive.

    repro report DIR
        Load an archive and print the paper-vs-measured experiment report.

    repro summary DIR
        Print the dataset's headline numbers.

    repro query DIR "mean(vrops_hostsystem_cpu_contention_percentage)"
        Evaluate a PromQL-flavoured query against an archive's telemetry.

    repro figure DIR fig5
        Render one of the paper's heatmap/CDF figures as terminal art.

    repro faults [--days D] [--seed N] [--failure-rate R] [--out FILE]
        Run a fault-injection scenario (host failures, migration aborts,
        telemetry gaps) and print the deterministic FaultReport JSON.
        Exits non-zero, with a summary table, when VMs were dead-lettered.

    repro chaos [--days D] [--seed N] [--json-only] [--out FILE]
                [--journal FILE]
        Run the correlated-failure chaos scenario (AZ/BB outages, a
        flapping host, scrape partitions) with the resilience layer on
        and print the deterministic summary JSON.  Exits non-zero on
        invariant violations.  ``--journal`` appends every control-plane
        record to a CRC-framed write-ahead journal file.

    repro crash [--scenario NAME] [--seeds N|A,B,...] [--out FILE]
        Run crash→recover→continue cycles: kill a journaled run at every
        named crash point (mid-claim, post-journal, mid-snapshot, ...),
        recover from snapshot + journal, and prove the recovered outcome
        is field-identical to an uninterrupted run; then corrupt the
        journal byte-wise (truncation, bit flips, duplicated tail) and
        prove the damage is detected with named offsets.  Exits non-zero
        on any divergence or undetected corruption.

    repro torture [--scenario NAME] [--seeds N|A,B,...] [--schedules N]
                  [--out FILE]
        Run the durability torture harness: interleave injected storage
        faults (ENOSPC, EIO, short writes, failing/lying fsyncs, torn
        renames) with the crash-point injector over seeded schedules,
        then power-cut the fake disk and prove every persistent artifact
        (journal, snapshot, report, golden, sweep journal) either
        recovers byte-identical or fails with a structured IoFaultError.

    repro sweep --config GRID.json [--workers N] [--journal FILE]
                [--out FILE]
        Shard a scenario grid (base ScenarioSpec x axes x seeds) across
        worker processes and merge the shard records into one
        deterministic SweepReport — byte-identical at any --workers.
        Crashed or hung shards are retried once, then recorded as
        structured failures; with --journal an interrupted sweep resumes
        without re-running completed cells.

    repro verify [--scenario NAME] [--seeds N] [--check NAME ...]
                 [--update-goldens] [--inject-desync] [--json-only] [--out F]
        Run the differential verification harness: scheduler oracle
        (naive vs indexed vs scalar weighers), metamorphic properties,
        fault/chaos determinism, and golden-trace regression.  Prints a
        byte-stable JSON report and exits non-zero on any divergence.
        Replaces the former per-subsystem determinism shell scripts.

Run ``python -m repro.cli --help`` (or ``repro --help`` once installed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.dataset import SAPCloudDataset


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen import GeneratorConfig, generate_dataset

    try:
        config = GeneratorConfig(
            scale=args.scale,
            days=args.days,
            sampling_seconds=args.sampling,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _config_error(f"repro: generate: {exc}") from exc
    print(
        f"Generating scale={config.scale} ({config.days} days at "
        f"{config.sampling_seconds}s sampling, seed {config.seed}) ...",
        file=sys.stderr,
    )
    dataset = generate_dataset(config)
    try:
        dataset.to_csv(args.out)
    except OSError as exc:
        raise _config_error(
            f"repro: generate --out {args.out}: {exc}"
        ) from exc
    summary = dataset.summary()
    print(
        f"Wrote {args.out}: {summary['nodes']} nodes, {summary['vms']} VMs, "
        f"{summary['samples']:,} samples"
    )
    return 0


def _load(directory: str) -> SAPCloudDataset:
    from repro.core.dataset import SAPCloudDataset

    path = Path(directory)
    if not (path / "meta.json").exists():
        raise SystemExit(f"{directory} is not a dataset archive (no meta.json)")
    return SAPCloudDataset.from_csv(path)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_experiments_report

    print(render_experiments_report(_load(args.dataset)))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    summary = _load(args.dataset).summary()
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        if isinstance(value, list):
            value = f"{len(value)} entries"
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.datagen.validation import validate_dataset

    report = validate_dataset(_load(args.dataset))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.telemetry.query import QueryError, evaluate

    dataset = _load(args.dataset)
    try:
        result = evaluate(dataset.store, args.expression)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    for labels, series in result.series[: args.limit]:
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        print(f"# {{{label_text}}}  ({len(series)} samples)")
        for t, v in zip(series.timestamps[: args.samples], series.values):
            print(f"{t:.0f}\t{v:.4f}")
        if len(series) > args.samples:
            print(f"... {len(series) - args.samples} more samples")
    if len(result.series) > args.limit:
        print(f"... {len(result.series) - args.limit} more series")
    return 0


_HEATMAP_FIGURES = {
    "fig5": ("fig5_dc_cpu_heatmap", "free CPU per node, one DC"),
    "fig6": ("fig6_bb_cpu_heatmap", "free CPU per building block"),
    "fig7": ("fig7_intra_bb_cpu_heatmap", "free CPU per node, one BB"),
    "fig10": ("fig10_memory_heatmap", "free memory per node"),
    "fig11": ("fig11_network_tx_heatmap", "free TX bandwidth per node"),
    "fig12": ("fig12_network_rx_heatmap", "free RX bandwidth per node"),
    "fig13": ("fig13_storage_heatmap", "free storage per host"),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis import figures
    from repro.analysis.render import render_cdf, render_heatmap

    dataset = _load(args.dataset)
    name = args.figure
    if name in _HEATMAP_FIGURES:
        builder_name, caption = _HEATMAP_FIGURES[name]
        heatmap = getattr(figures, builder_name)(dataset)
        print(f"{name}: {caption}")
        print(render_heatmap(heatmap))
        return 0
    if name == "fig14":
        cdfs = figures.fig14_utilization_cdfs(dataset)
        for resource, (values, fractions) in cdfs.items():
            print(render_cdf(values, fractions,
                             title=f"fig14 — avg {resource} utilisation CDF"))
            print()
        return 0
    known = sorted(_HEATMAP_FIGURES) + ["fig14"]
    print(f"unknown figure {name!r}; known: {known}", file=sys.stderr)
    return 2


def _config_error(message: str) -> SystemExit:
    """Usage-level failure: one-line stderr message, exit code 2."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _write_out(report, out_path: str, command: str) -> None:
    """Write a report to ``--out``; unwritable paths exit 2, not traceback.

    The storage layer surfaces every write failure as a structured
    :class:`~repro.iofaults.layer.IoFaultError` (an ``OSError``), so a
    read-only directory, a missing parent, or a full disk all land here
    — same one-line contract as a malformed ``--config``.
    """
    from repro.reporting import write_report

    try:
        write_report(report, out_path)
    except OSError as exc:
        raise _config_error(
            f"repro: {command} --out {out_path}: {exc}"
        ) from exc


class _ProgressTracker:
    """Remembers the last progress message a long command reported.

    Long-running subcommands pass the instance as their ``progress``
    callback; on Ctrl-C the interrupt handler reads :attr:`last` to say
    how far the run got before dying.
    """

    def __init__(self, initial: str) -> None:
        self.last = initial

    def __call__(self, message: str) -> None:
        self.last = message


def _interrupted(command: str, progress: str) -> int:
    """Uniform Ctrl-C exit: one stderr line, conventional code 130."""
    print(
        f"repro {command}: interrupted during {progress}; "
        "partial results discarded",
        file=sys.stderr,
    )
    return 130


def _load_config_file(path: str, what: str) -> dict:
    """Parse a JSON config file; ``SystemExit(2)`` with a usable message.

    Every malformed-input path (missing file, bad JSON, non-object top
    level) surfaces as a one-line error on stderr — never a traceback.
    """
    import json

    file = Path(path)
    if not file.exists():
        raise _config_error(f"repro: {what} config {path}: file not found")
    try:
        data = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise _config_error(
            f"repro: {what} config {path}: invalid JSON at "
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise _config_error(
            f"repro: {what} config {path}: top level must be a JSON "
            f"object, got {type(data).__name__}"
        )
    return data


def _scenario_spec_from_config(
    data: dict, base, what: str, path: str
):
    """Resolve a ``--config`` dict into a ScenarioSpec over ``base``.

    Canonical ScenarioSpec-shaped files overlay the flag-derived base
    spec (file keys win).  Every validation failure exits 2 with the
    offending key named; the retired per-CLI shapes exit 2 naming the
    expected shape.
    """
    from repro.config import (
        ScenarioSpec,
        looks_like_legacy_chaos_dict,
        looks_like_legacy_faults_dict,
    )

    if what == "faults" and looks_like_legacy_faults_dict(data):
        raise _config_error(
            f"repro: faults config {path}: flat FaultConfig fields are no "
            'longer accepted; use the ScenarioSpec shape {"faults": {...}}'
        )
    if what == "chaos" and looks_like_legacy_chaos_dict(data):
        raise _config_error(
            f"repro: chaos config {path}: bare faults/resilience sections are "
            "no longer accepted; use the ScenarioSpec shape "
            '{"topology": "chaos", "faults": {...}, "resilience": {...}}'
        )
    try:
        doc = base.to_dict()
        doc.update(data)
        return ScenarioSpec.from_dict(doc)
    except ValueError as exc:
        raise _config_error(f"repro: {what} config {path}: {exc}") from exc


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.config import ScenarioSpec
    from repro.faults import FaultConfig

    try:
        faults = FaultConfig(
            seed=args.fault_seed if args.fault_seed is not None else args.seed,
            host_failure_rate_per_day=args.failure_rate,
            repair_time_mean_s=args.repair_hours * 3600.0,
            migration_abort_fraction=args.abort_fraction,
            scrape_gap_probability=args.gap_probability,
            stale_node_probability=args.stale_probability,
            evac_max_retries=args.evac_retries,
        )
        spec = ScenarioSpec(
            topology="lab",
            building_blocks=args.bbs,
            nodes_per_bb=args.nodes_per_bb,
            duration_days=args.days,
            seed=args.seed,
            arrival_rate_per_hour=args.arrival_rate,
            initial_vms=args.initial_vms,
            faults=faults,
        )
    except ValueError as exc:
        raise _config_error(f"repro: faults: {exc}") from exc
    if args.config:
        data = _load_config_file(args.config, "faults")
        spec = _scenario_spec_from_config(data, spec, "faults", args.config)
    print(
        f"Running fault scenario: {spec.building_blocks} BBs x "
        f"{spec.nodes_per_bb} nodes, {spec.duration_days} days, "
        f"seed {spec.seed} ...",
        file=sys.stderr,
    )
    try:
        result = spec.run()
    except KeyboardInterrupt:
        return _interrupted(
            "faults",
            f"the {spec.duration_days}-day scenario (seed {spec.seed})",
        )
    report = result.fault_report
    if report is None:
        raise _config_error(
            f"repro: faults config {args.config}: no fault section in "
            "effect; nothing to report"
        )
    print(report.render(), file=sys.stderr)
    if args.out:
        _write_out(report, args.out, "faults")
        print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(report.to_json())
    if report.dead_letters:
        # Unrecovered VMs are an operator-facing failure: summarise them
        # and exit non-zero so scripts and CI notice.
        print(_dead_letter_table(report), file=sys.stderr)
        return 1
    return 0


def _dead_letter_table(report) -> str:
    """Fixed-width summary of the dead-letter queue."""
    rows = sorted(report.dead_letters, key=lambda d: d.vm_id)
    lines = [
        f"{len(rows)} VM(s) dead-lettered (evacuation budget exhausted):",
        f"  {'vm_id':<18} {'failed host':<22} {'attempts':>8} {'failed at':>12} "
        f"{'dead-lettered':>14}",
    ]
    for d in rows:
        lines.append(
            f"  {d.vm_id:<18} {d.failed_host:<22} {d.attempts:>8} "
            f"{d.failed_at:>12.0f} {d.dead_lettered_at:>14.0f}"
        )
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.config import ScenarioSpec
    from repro.resilience.chaos import (
        ChaosSummary,
        default_chaos_faults,
        default_chaos_resilience,
    )

    try:
        faults = (
            default_chaos_faults(args.fault_seed)
            if args.fault_seed is not None
            else default_chaos_faults()
        )
        spec = ScenarioSpec(
            topology="chaos",
            duration_days=args.days,
            seed=args.seed,
            initial_vms=80,
            faults=faults,
            resilience=default_chaos_resilience(),
        )
    except ValueError as exc:
        raise _config_error(f"repro: chaos: {exc}") from exc
    if args.config:
        data = _load_config_file(args.config, "chaos")
        spec = _scenario_spec_from_config(data, spec, "chaos", args.config)
    if args.no_fail_fast and spec.resilience is not None:
        spec = replace(
            spec, resilience=replace(spec.resilience, fail_fast=False)
        )
    if not args.json_only:
        print(
            f"Running chaos scenario: 2 AZs x {spec.building_blocks_per_az} "
            f"BBs x {spec.nodes_per_bb} nodes, {spec.duration_days} days, "
            f"seed {spec.seed} ...",
            file=sys.stderr,
        )
    journal_writer = None
    journal_sink = None
    if args.journal:
        from repro.recovery import JournalWriter

        # Sim-only hot path: flush durability (survives process death,
        # not power loss) keeps the chaos loop off the fsync floor.
        try:
            journal_writer = JournalWriter(args.journal, durability="flush")
        except OSError as exc:
            raise _config_error(
                f"repro: chaos --journal {args.journal}: {exc}"
            ) from exc
        journal_sink = journal_writer.append
    try:
        result = spec.run(journal=journal_sink)
    except KeyboardInterrupt:
        return _interrupted(
            "chaos",
            f"the {spec.duration_days}-day scenario (seed {spec.seed})",
        )
    finally:
        if journal_writer is not None:
            journal_writer.close()
    if journal_writer is not None and not args.json_only:
        print(
            f"Journaled {journal_writer.records_written} control-plane "
            f"records to {args.journal}",
            file=sys.stderr,
        )
    report = result.resilience_report
    if report is None or result.fault_report is None:
        raise _config_error(
            f"repro: chaos config {args.config}: the chaos scenario needs "
            "both a faults and a resilience section in effect"
        )
    summary = ChaosSummary(result)
    if not args.json_only:
        print(summary.render(), file=sys.stderr)
    if args.out:
        _write_out(summary, args.out, "chaos")
        if not args.json_only:
            print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(summary.canonical_json(), end="")
    return 1 if report.violations else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.runner import ALL_CHECKS, BASE_SEED, VerifyConfig, run_verify
    from repro.verify.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        raise _config_error(
            f"repro: unknown scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        )
    checks = tuple(args.check) if args.check else ALL_CHECKS
    unknown = sorted(set(checks) - set(ALL_CHECKS))
    if unknown:
        raise _config_error(
            f"repro: unknown checks {', '.join(unknown)}; "
            f"known: {', '.join(ALL_CHECKS)}"
        )
    if args.seeds < 1:
        raise _config_error("repro: --seeds must be >= 1")
    config = VerifyConfig(
        scenario=args.scenario,
        seeds=tuple(range(BASE_SEED, BASE_SEED + args.seeds)),
        checks=checks,
        goldens_dir=args.goldens_dir,
        update_goldens=args.update_goldens,
        inject_desync=args.inject_desync,
    )
    stage = _ProgressTracker("starting up")
    try:
        report = run_verify(config, progress=stage)
    except KeyboardInterrupt:
        return _interrupted("verify", stage.last)
    if not args.json_only:
        print(report.render(), file=sys.stderr)
    if args.out:
        _write_out(report, args.out, "verify")
        if not args.json_only:
            print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(report.canonical_json(), end="")
    return 0 if report.ok else 1


def _parse_seeds(text: str, base_seed: int) -> list[int]:
    """Seed spec: a bare count ("3" → base..base+2) or a comma list."""
    if "," in text:
        try:
            return [int(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise _config_error(
                f"repro: bad --seeds {text!r}; expected a count or a "
                "comma-separated list of seeds"
            ) from None
    try:
        count = int(text)
    except ValueError:
        raise _config_error(
            f"repro: bad --seeds {text!r}; expected a count or a "
            "comma-separated list of seeds"
        ) from None
    if count < 1:
        raise _config_error("repro: --seeds must be >= 1")
    return list(range(base_seed, base_seed + count))


def _cmd_crash(args: argparse.Namespace) -> int:
    from repro.recovery import run_crash_cycles
    from repro.verify.runner import BASE_SEED
    from repro.verify.scenarios import SCENARIOS, get_scenario

    if args.scenario not in SCENARIOS:
        raise _config_error(
            f"repro: unknown scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        )
    seeds = _parse_seeds(args.seeds, BASE_SEED)
    if args.snapshot_every < 1:
        raise _config_error("repro: --snapshot-every must be >= 1")
    stage = _ProgressTracker("starting up")

    def progress(message: str) -> None:
        stage(message)
        if not args.json_only:
            print(f"  {message}", file=sys.stderr)

    if not args.json_only:
        print(
            f"Running crash harness: scenario {args.scenario}, "
            f"seeds {','.join(str(s) for s in seeds)} ...",
            file=sys.stderr,
        )
    try:
        report = run_crash_cycles(
            get_scenario(args.scenario),
            seeds,
            snapshot_every=args.snapshot_every,
            progress=progress,
        )
    except KeyboardInterrupt:
        return _interrupted("crash", stage.last)
    if not args.json_only:
        print(report.render(), file=sys.stderr)
    if args.out:
        _write_out(report, args.out, "crash")
        if not args.json_only:
            print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(report.canonical_json(), end="")
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepResumeError, grid_from_dict, run_sweep

    data = _load_config_file(args.config, "sweep")
    try:
        grid = grid_from_dict(data)
    except ValueError as exc:
        raise _config_error(f"repro: sweep config {args.config}: {exc}")
    if args.workers < 1:
        raise _config_error("repro: --workers must be >= 1")
    if args.deadline <= 0:
        raise _config_error("repro: --deadline must be positive")
    stage = _ProgressTracker("starting up")

    def progress(message: str) -> None:
        stage(message)
        if not args.json_only:
            print(f"  {message}", file=sys.stderr)

    if not args.json_only:
        print(
            f"Running sweep: {len(grid.cells)} cells "
            f"({len(grid.groups)} groups) with {args.workers} worker(s) ...",
            file=sys.stderr,
        )
    try:
        report, stats = run_sweep(
            grid,
            workers=args.workers,
            deadline_s=args.deadline,
            journal_path=args.journal,
            progress=progress,
        )
    except SweepResumeError as exc:
        raise _config_error(f"repro: sweep: {exc}")
    except KeyboardInterrupt:
        kept = (
            f"completed shards kept in {args.journal}"
            if args.journal
            else "partial results discarded (use --journal to keep them)"
        )
        print(
            f"repro sweep: interrupted during {stage.last}; {kept}",
            file=sys.stderr,
        )
        return 130
    if not args.json_only:
        print(report.render(), file=sys.stderr)
        print(stats.render(), file=sys.stderr)
    if args.out:
        _write_out(report, args.out, "sweep")
        if not args.json_only:
            print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(report.canonical_json(), end="")
    return 0 if report.ok else 1


def _cmd_torture(args: argparse.Namespace) -> int:
    from repro.iofaults import TortureConfig, run_torture
    from repro.verify.runner import BASE_SEED
    from repro.verify.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        raise _config_error(
            f"repro: unknown scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        )
    seeds = _parse_seeds(args.seeds, BASE_SEED)
    if args.schedules < 1:
        raise _config_error("repro: --schedules must be >= 1")
    if args.snapshot_every < 1:
        raise _config_error("repro: --snapshot-every must be >= 1")
    config = TortureConfig(
        scenario=args.scenario,
        seeds=tuple(seeds),
        schedules=args.schedules,
        snapshot_every=args.snapshot_every,
    )
    stage = _ProgressTracker("starting up")

    def progress(message: str) -> None:
        stage(message)
        if not args.json_only:
            print(f"  {message}", file=sys.stderr)

    if not args.json_only:
        print(
            f"Running durability torture: scenario {args.scenario}, "
            f"seeds {','.join(str(s) for s in seeds)}, "
            f"{args.schedules} schedules per seed ...",
            file=sys.stderr,
        )
    try:
        report = run_torture(config, progress=progress)
    except KeyboardInterrupt:
        return _interrupted("torture", stage.last)
    if not args.json_only:
        print(report.render(), file=sys.stderr)
    if args.out:
        _write_out(report, args.out, "torture")
        if not args.json_only:
            print(f"Wrote {args.out}", file=sys.stderr)
    else:
        print(report.canonical_json(), end="")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAP Cloud Infrastructure dataset reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--scale", type=float, default=0.05)
    generate.add_argument("--days", type=int, default=30)
    generate.add_argument("--sampling", type=int, default=1800)
    generate.add_argument("--seed", type=int, default=20240731)
    generate.set_defaults(func=_cmd_generate)

    report = sub.add_parser("report", help="print the experiment report")
    report.add_argument("dataset", help="dataset archive directory")
    report.set_defaults(func=_cmd_report)

    summary = sub.add_parser("summary", help="print dataset headline numbers")
    summary.add_argument("dataset", help="dataset archive directory")
    summary.set_defaults(func=_cmd_summary)

    validate = sub.add_parser(
        "validate", help="check a dataset against the paper's calibration targets"
    )
    validate.add_argument("dataset", help="dataset archive directory")
    validate.set_defaults(func=_cmd_validate)

    figure = sub.add_parser("figure", help="render a paper figure as text")
    figure.add_argument("dataset", help="dataset archive directory")
    figure.add_argument("figure", help="fig5|fig6|fig7|fig10..fig14")
    figure.set_defaults(func=_cmd_figure)

    faults = sub.add_parser(
        "faults", help="run a deterministic fault-injection scenario"
    )
    faults.add_argument("--days", type=float, default=1.0)
    faults.add_argument("--seed", type=int, default=7, help="workload seed")
    faults.add_argument(
        "--fault-seed", type=int, default=None,
        help="injector seed (defaults to --seed)",
    )
    faults.add_argument("--bbs", type=int, default=3, help="building blocks")
    faults.add_argument("--nodes-per-bb", type=int, default=4)
    faults.add_argument("--arrival-rate", type=float, default=12.0,
                        help="VM arrivals per hour")
    faults.add_argument("--initial-vms", type=int, default=120)
    faults.add_argument("--failure-rate", type=float, default=6.0,
                        help="host failures per day, region-wide")
    faults.add_argument("--repair-hours", type=float, default=4.0)
    faults.add_argument("--abort-fraction", type=float, default=0.2,
                        help="fraction of live migrations aborting mid-precopy")
    faults.add_argument("--gap-probability", type=float, default=0.03)
    faults.add_argument("--stale-probability", type=float, default=0.02)
    faults.add_argument("--evac-retries", type=int, default=5)
    faults.add_argument("--out", default=None, help="write report JSON here")
    faults.add_argument(
        "--config", default=None, metavar="FILE",
        help="JSON object of FaultConfig fields; replaces the per-fault "
        "flags (malformed files exit 2 with a one-line error)",
    )
    faults.set_defaults(func=_cmd_faults)

    chaos = sub.add_parser(
        "chaos",
        help="run the correlated-failure chaos scenario with the "
        "resilience layer enabled",
    )
    chaos.add_argument("--days", type=float, default=1.0)
    chaos.add_argument("--seed", type=int, default=7, help="workload seed")
    chaos.add_argument(
        "--fault-seed", type=int, default=None,
        help="injector seed (defaults to the canonical chaos seed)",
    )
    chaos.add_argument(
        "--json-only", action="store_true",
        help="suppress the stderr summaries; print only the summary JSON",
    )
    chaos.add_argument(
        "--no-fail-fast", action="store_true",
        help="record invariant violations instead of raising on the first",
    )
    chaos.add_argument("--out", default=None, help="write summary JSON here")
    chaos.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append every control-plane record (clock advances, claims, "
        "releases, quarantine transitions, admission decisions) to this "
        "write-ahead journal file",
    )
    chaos.add_argument(
        "--config", default=None, metavar="FILE",
        help='JSON object with optional "faults" / "resilience" sections '
        "(malformed files exit 2 with a one-line error)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    verify = sub.add_parser(
        "verify",
        help="run the differential verification harness (oracle, "
        "metamorphic, determinism, goldens)",
    )
    verify.add_argument(
        "--scenario", default="default",
        help="verification scenario: tiny | default | dense",
    )
    verify.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="number of seeds to run (seeds 7..7+N-1)",
    )
    verify.add_argument(
        "--check", action="append", default=None, metavar="NAME",
        help="run only this check (repeatable); default: all",
    )
    verify.add_argument(
        "--goldens-dir", default=None, metavar="DIR",
        help="golden store location (default: tests/goldens/)",
    )
    verify.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate golden files instead of comparing against them",
    )
    verify.add_argument(
        "--inject-desync", action="store_true",
        help="corrupt the scheduler index mid-run to demonstrate that the "
        "oracle catches it (the run then fails by design)",
    )
    verify.add_argument(
        "--json-only", action="store_true",
        help="suppress the stderr summary; print only the JSON report",
    )
    verify.add_argument("--out", default=None, help="write report JSON here")
    verify.set_defaults(func=_cmd_verify)

    crash = sub.add_parser(
        "crash",
        help="run crash→recover→continue cycles at every named crash "
        "point and prove recovered runs are field-identical",
    )
    crash.add_argument(
        "--scenario", default="tiny",
        help="verification scenario: tiny | default | dense",
    )
    crash.add_argument(
        "--seeds", default="3", metavar="N|A,B,...",
        help="seed count (from 7) or explicit comma-separated seeds",
    )
    crash.add_argument(
        "--snapshot-every", type=int, default=25, metavar="OPS",
        help="ops between control-plane snapshots",
    )
    crash.add_argument(
        "--json-only", action="store_true",
        help="suppress the stderr progress/summary; print only the JSON",
    )
    crash.add_argument("--out", default=None, help="write report JSON here")
    crash.set_defaults(func=_cmd_crash)

    torture = sub.add_parser(
        "torture",
        help="interleave storage faults (ENOSPC, EIO, short writes, lying "
        "fsyncs, torn renames) with crash points over seeded schedules and "
        "prove every artifact recovers byte-identical or fails structured",
    )
    torture.add_argument(
        "--scenario", default="tiny",
        help="verification scenario: tiny | default | dense",
    )
    torture.add_argument(
        "--seeds", default="1", metavar="N|A,B,...",
        help="seed count (from 7) or explicit comma-separated seeds",
    )
    torture.add_argument(
        "--schedules", type=int, default=15, metavar="N",
        help="fault schedules per seed, round-robined over the artifacts "
        "(wal, snapshot, report, golden, sweep-journal)",
    )
    torture.add_argument(
        "--snapshot-every", type=int, default=10, metavar="OPS",
        help="ops between control-plane snapshots in WAL schedules",
    )
    torture.add_argument(
        "--json-only", action="store_true",
        help="suppress the stderr progress/summary; print only the JSON",
    )
    torture.add_argument("--out", default=None, help="write report JSON here")
    torture.set_defaults(func=_cmd_torture)

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario grid across worker processes and merge a "
        "deterministic report (workers=1 and workers=N are byte-identical)",
    )
    sweep.add_argument(
        "--config", required=True, metavar="FILE",
        help='grid JSON: {"base": ScenarioSpec object, "seeds": [..], '
        '"axes": {field: [values, ...]}}',
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent worker processes (one shard each)",
    )
    sweep.add_argument(
        "--deadline", type=float, default=300.0, metavar="SECONDS",
        help="per-shard wall-clock ceiling before the worker is killed "
        "and retried once (default mirrors the test-suite timeout)",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="FILE",
        help="journal completed shards to this write-ahead file; "
        "re-running with the same grid resumes, skipping finished cells",
    )
    sweep.add_argument(
        "--json-only", action="store_true",
        help="suppress stderr progress/summary; print only the JSON report",
    )
    sweep.add_argument("--out", default=None, help="write report JSON here")
    sweep.set_defaults(func=_cmd_sweep)

    query = sub.add_parser("query", help="evaluate a telemetry query")
    query.add_argument("dataset", help="dataset archive directory")
    query.add_argument("expression", help='e.g. \'max(vrops_hostsystem_cpu_contention_percentage)\'')
    query.add_argument("--limit", type=int, default=5, help="max series printed")
    query.add_argument("--samples", type=int, default=10, help="max samples per series")
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
