"""Self-test of the benchmark harness.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

For every workload it makes tiny-length runs, untraced and traced, and
requires that:

- ``BENCHMARK.json`` lists exactly the workloads and metrics the harness
  prints, with the same units;
- every output check passes and each run prints every named metric;
- traced and untraced repetitions of one input give the same outcome digest
  (the run reports ``correct: false`` otherwise), so the wrappers never
  change behaviour;
- the traced spans reconcile with the measured wall time: the share not
  covered by top-level spans (``trace.unattributed_frac``) stays small.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from jobs import PER_LAYER
from workloads import WORKLOADS

#: Largest share of a traced run's wall time its top-level spans may miss.
MAX_UNATTRIBUTED = 0.1


def main() -> int:
    problems: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness's")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end metrics differ from the harness's")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer metrics differ from the harness's")

    def quiet(_line: str) -> None:
        pass

    for workload in WORKLOADS:
        for trace, expected in ((False, [n for n, _ in run.END_TO_END]),
                                (True, [n for n, _, _ in PER_LAYER])):
            label = f"{workload} trace={int(trace)}"
            result = run.run_workload(workload, 1, 0, trace, tiny=True, echo=quiet)
            if not result["correct"]:
                problems.append(f"{label}: outputs incorrect or digest changed when traced")
            if result["failed"]:
                problems.append(f"{label}: {result['failed']} operations failed")
            if list(result["metrics"]) != expected:
                problems.append(f"{label}: printed metrics differ from the named ones")
            if not trace and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric reads 0")
            if trace:
                unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
                if not 0 <= unattributed <= MAX_UNATTRIBUTED:
                    problems.append(
                        f"{label}: trace.unattributed_frac {unattributed:.3f} "
                        f"outside [0, {MAX_UNATTRIBUTED}]"
                    )
            print(f"{label}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
