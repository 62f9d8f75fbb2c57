"""Golden-trace regression store.

One golden file per (scenario, seed) under ``tests/goldens/``: a
canonical JSON document digesting the scheduler replay (every decision),
the fault run (report + telemetry digest), and the chaos run summary.
``repro verify`` recomputes the document and byte-compares it against
the checked-in file; any drift fails with a unified diff, and
``--update-goldens`` regenerates the files deterministically.

Canonical form: recursively sorted keys, floats rounded to 9 places,
NaN rendered as ``null`` (JSON has no NaN and goldens must be
byte-stable across platforms), trailing newline.  Nothing in the
document depends on wall clock, host name, or filesystem layout.

Storage: goldens are gzip-compressed (``.json.gz``, written with a
zeroed mtime so compression itself is byte-stable) — the documents are
highly repetitive JSON and compress ~20x.
"""

from __future__ import annotations

import difflib
import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.iofaults.layer import active_io, atomic_write_bytes
from repro.verify.oracle import replay_workload, workload_ops
from repro.verify.scenarios import VerifyScenario

#: Bump when the golden document layout changes; stale goldens then fail
#: with an explicit format mismatch instead of a wall of field diffs.
GOLDEN_FORMAT = 1


def _canon(value):
    """Canonical JSON-ready form: sorted, rounded, NaN-free."""
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, frozenset) or isinstance(value, set):
        return sorted(_canon(v) for v in value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return round(value, 9)
    return value


def _telemetry_digest(store) -> dict:
    """Order-independent digest of every series in a metric store."""
    digest: dict[str, dict] = {}
    for metric in store.metrics():
        series_digests = []
        for labels, series in store.select(metric):
            present = series.present()
            series_digests.append(
                {
                    "labels": dict(sorted(labels.items())),
                    "samples": len(series),
                    "stale": series.stale_count,
                    "value_sum": float(present.values.sum()) if len(present) else 0.0,
                    "first_ts": float(series.timestamps[0]) if len(series) else None,
                    "last_ts": float(series.timestamps[-1]) if len(series) else None,
                }
            )
        series_digests.sort(key=lambda d: json.dumps(d["labels"], sort_keys=True))
        digest[metric] = {
            "series": len(series_digests),
            "per_series": series_digests,
        }
    return digest


def golden_document(scenario: VerifyScenario, seed: int) -> dict:
    """Recompute the full golden document for one (scenario, seed)."""
    from repro.faults.scenario import run_fault_scenario
    from repro.resilience.chaos import chaos_summary, run_chaos_scenario

    ops = workload_ops(scenario, seed)
    replay = replay_workload(scenario.topology(), ops, variant="golden")
    fault_result = run_fault_scenario(scenario.fault_scenario(seed))
    doc = {
        "format": GOLDEN_FORMAT,
        "scenario": scenario.name,
        "seed": seed,
        "schedule": {
            "ops": len(ops),
            "placements": replay.placements,
            "trace": [list(row) for row in replay.trace],
            "scheduler_stats": replay.scheduler_stats,
            "placement_stats": replay.placement_stats,
            "inventory": replay.inventory,
        },
        "faults": {
            "report": fault_result.fault_report.to_dict(),
            "telemetry": _telemetry_digest(fault_result.store),
        },
        "chaos": (
            chaos_summary(run_chaos_scenario(scenario.chaos_scenario(seed)))
            if scenario.include_chaos
            else None
        ),
    }
    return _canon(doc)


def render_document(doc: dict) -> str:
    """Byte-stable rendering of a golden document."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def default_goldens_dir() -> Path:
    """``tests/goldens/`` resolved relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def golden_path(goldens_dir: Path, scenario_name: str, seed: int) -> Path:
    """Canonical (compressed) golden location for one (scenario, seed)."""
    return Path(goldens_dir) / f"{scenario_name}-seed{seed}.json.gz"


def read_golden_text(path: Path) -> str | None:
    """Load and decompress a golden's text; None when it does not exist."""
    if not path.exists():
        return None
    data = active_io().read_bytes(path, point="golden.read")
    return gzip.decompress(data).decode("utf-8")


def write_golden_text(path: Path, text: str) -> None:
    """Store a golden compressed, byte-stably (fixed mtime), atomically.

    Committed through :func:`repro.iofaults.layer.atomic_write_bytes`
    (IO points ``golden.*``) — fsynced temp file, rename, directory
    fsync — so an interrupted ``--update-goldens`` can never leave a
    torn golden.
    """
    atomic_write_bytes(
        path, gzip.compress(text.encode("utf-8"), mtime=0), points="golden"
    )


@dataclass
class GoldenResult:
    """Outcome of one golden comparison."""

    scenario: str
    seed: int
    path: str
    status: str  # "ok" | "missing" | "mismatch"
    diff: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "path": self.path,
            "status": self.status,
            "diff": self.diff,
        }


def check_golden(
    scenario: VerifyScenario, seed: int, goldens_dir: Path | None = None
) -> GoldenResult:
    """Recompute the document and byte-compare against the stored golden."""
    goldens_dir = Path(goldens_dir or default_goldens_dir())
    path = golden_path(goldens_dir, scenario.name, seed)
    got = render_document(golden_document(scenario, seed))
    want = read_golden_text(path)
    if want is None:
        return GoldenResult(
            scenario=scenario.name,
            seed=seed,
            path=str(path),
            status="missing",
            diff=f"golden file {path} does not exist; "
            "run `repro verify --update-goldens` to create it",
        )
    if want == got:
        return GoldenResult(
            scenario=scenario.name, seed=seed, path=str(path), status="ok"
        )
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=f"golden/{path.name}",
            tofile="recomputed",
            n=3,
        )
    )
    return GoldenResult(
        scenario=scenario.name,
        seed=seed,
        path=str(path),
        status="mismatch",
        diff=diff,
    )


def update_golden(
    scenario: VerifyScenario, seed: int, goldens_dir: Path | None = None
) -> Path:
    """Regenerate one golden file (deterministic: same inputs, same bytes)."""
    goldens_dir = Path(goldens_dir or default_goldens_dir())
    goldens_dir.mkdir(parents=True, exist_ok=True)
    path = golden_path(goldens_dir, scenario.name, seed)
    write_golden_text(path, render_document(golden_document(scenario, seed)))
    return path
