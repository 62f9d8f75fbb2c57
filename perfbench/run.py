"""The repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 28 --trace 0

Runs repetitions of one workload, each in a fresh interpreter and strictly
one after another, until ``--seconds`` have passed (at least
``MIN_REPS``).  Every repetition's outputs are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics (medians over repetitions) with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates an untraced and a traced repetition on the same input, requires
both to produce the same outcome digest, and reports the tracing overhead.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

#: Minimum repetitions (untraced) or repetition pairs (traced) per run.
MIN_REPS = 3
MIN_PAIRS = 2
#: No repetition starts once this much of a run's time has passed.
HARD_LIMIT_S = 150.0
#: A child that runs longer than this is a failure.
CHILD_TIMEOUT_S = 120.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Reference time of the speed probe's kernel (``rep.speed_probe``).
#: Times are reported as they would read on a host where one kernel run
#: takes this long: each repetition's seconds are scaled by this over the
#: median kernel time measured in the same interpreter around its run.
REF_PROBE_S = 0.0125


def host_scaled(rep: dict, key: str) -> float:
    """``rep[key]`` in seconds at the reference host speed."""
    return rep[key] * REF_PROBE_S / rep["probe_s"]


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(config: dict, traced: bool) -> dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(config), "1" if traced else "0"],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(
            f"repetition of {config['workload']} exited {proc.returncode}:\n{tail}"
        )
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, echo=print
) -> dict:
    """Run one workload for ``seconds``; returns the final JSON object."""
    start = perf_counter()
    reps: list[dict] = []
    traced_reps: list[dict] = []
    minimum = MIN_PAIRS if trace else MIN_REPS
    rep = 0
    while True:
        config = make_config(workload, seed, rep, tiny=tiny)
        reps.append(run_rep(config, traced=False))
        if trace:
            traced_reps.append(run_rep(config, traced=True))
        rep += 1
        elapsed = perf_counter() - start
        if rep >= minimum and (elapsed >= seconds or elapsed >= HARD_LIMIT_S):
            break

    failed_checks = sorted(
        {name for r in reps + traced_reps for name, ok, _ in r["checks"] if not ok}
    )
    for r in reps + traced_reps:
        for name, ok, detail in r["checks"]:
            if not ok:
                echo(f"check failed: {name}: {detail}")
    mismatched = [
        i for i, (plain, traced) in enumerate(zip(reps, traced_reps))
        if plain["digest"] != traced["digest"]
    ]
    for i in mismatched:
        echo(f"check failed: trace.digest_unchanged: repetition {i} digest differs when traced")
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps) + len(failed_checks) + len(mismatched)

    echo(f"workload {workload} seed {seed}: {len(reps)} repetitions in {perf_counter() - start:.1f} s")
    for i, r in enumerate(reps):
        echo(
            f"  rep {i}: wall_s {host_scaled(r, 'wall_s'):.4f} (host {r['wall_s']:.4f}) "
            f"setup_s {host_scaled(r, 'setup_s'):.4f} (host {r['setup_s']:.4f}) "
            f"probe_ms {r['probe_s'] * 1e3:.3f} peak_rss_mb {r['peak_rss_mb']:.1f} "
            f"ops {r['ops']} ops_failed {r['ops_failed']} digest {r['digest'][:16]}"
        )
    echo("outcome digest " + json.dumps(
        {"workload": workload, "seed": seed, "rep": 0, "sha256": reps[0]["digest"],
         "summary": reps[0]["summary"]},
        sort_keys=True,
    ))
    echo(f"ops {attempted} ops_failed {failed}")

    if trace:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                value = statistics.median(
                    host_scaled(t, "wall_s") / host_scaled(p, "wall_s") - 1.0
                    for p, t in zip(reps, traced_reps)
                )
            else:
                value = statistics.median(t["layers"][name] for t in traced_reps)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(host_scaled(r, "wall_s") for r in reps),
            "setup_s": statistics.median(host_scaled(r, "setup_s") for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
    for name, metric in metrics.items():
        echo(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": not failed_checks and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
