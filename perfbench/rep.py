"""Run one repetition of a workload in this (fresh) interpreter.

Usage: ``python3 perfbench/rep.py '<config json>' <trace 0|1>``, from the
root of a checkout with ``src`` on ``PYTHONPATH``.  Prints one JSON object:
set-up and run times, the host-speed probe, peak RSS, operation counts,
output checks, the outcome digest and, when traced, the per-layer metrics.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import jobs  # noqa: E402


def speed_probe(samples: int = 8) -> list[float]:
    """Seconds of each of ``samples`` runs of a fixed interpreter-bound kernel.

    The kernel does what the program's hot loops do -- dict traffic, float
    arithmetic, sorting, heap operations -- and nothing the program can
    change, so its typical time tracks how fast the shared host runs right
    now.
    """
    import heapq

    times = []
    for _ in range(samples):
        t0 = perf_counter()
        table: dict[tuple[str, int], float] = {}
        acc = 0.0
        for i in range(20_000):
            key = ("k", i % 997)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += (i % 13) * 1.25 - acc * 1e-6
        ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        heap: list[tuple[int, int]] = []
        for i in range(5_000):
            heapq.heappush(heap, ((i * 7919) % 10_007, i))
        while heap:
            heapq.heappop(heap)
        times.append(perf_counter() - t0)
        if not ordered or acc != acc:
            raise RuntimeError("speed probe produced no result")
    return times


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    traced = argv[1] == "1"
    job = jobs.build(config)
    setup_s = perf_counter() - _T0
    probe = speed_probe()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        job.attach(tracer)
    t0 = perf_counter()
    job.run()
    wall_s = perf_counter() - t0
    # Before the checks, whose reads allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = probe + speed_probe()
    layers = job.layers(tracer, wall_s) if tracer is not None else None
    checks = job.checks()
    ops, ops_failed = job.ops()
    summary = job.summary()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": statistics.median(probe),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "ops_failed": ops_failed,
        "checks": checks,
        "digest": jobs.digest_of(summary),
        "summary": summary,
        "layers": layers,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
