"""The four benchmark workloads and the inputs each run makes from a seed.

This module imports nothing from the program: the harness turns a
(workload, seed, repetition) triple into a plain JSON config here, and the
child interpreter that runs one repetition receives only that config.
Repetitions of one run use distinct sub-seeds drawn from the run's seed, so
a run's median averages over several inputs of the same shape.
"""

from __future__ import annotations

import copy
import random

#: Shape of each workload.  Seeds are filled in by :func:`make_config`.
SHAPES: dict[str, dict] = {
    # Today's bench simulation shape: 36 nodes, hourly DRS, 15-min scrapes.
    # DRS and scrape-time demand evaluation do most of the work.
    "steady": {
        "kind": "sim",
        "topology": {"paper_scale": 0.02},
        "sim": {
            "duration_days": 3.0,
            "initial_vms": 150,
            "arrival_rate_per_hour": 6.0,
            "scrape_interval_s": 900.0,
            "drs_interval_s": 3600.0,
        },
    },
    # The request path: 92 nodes, a high arrival rate, resizes at a quarter
    # of it, maintenance windows, scrapes every four hours and no DRS pass.
    "churn": {
        "kind": "sim",
        "topology": {"paper_scale": 0.05},
        "sim": {
            "duration_days": 1.0,
            "initial_vms": 200,
            "arrival_rate_per_hour": 60.0,
            "resize_rate_per_hour": 15.0,
            "maintenance_rate_per_day": 4.0,
            "scrape_interval_s": 4 * 3600.0,
            "drs_interval_s": None,
        },
    },
    # The chaos lab grown to 4 AZs x 2 BBs x 8 nodes, plus one 3-node HANA
    # block per AZ, under the default correlated-fault mix and the full
    # resilience stack.  With the lab's two AZs (and, about once in 150
    # repetitions, with three) overlapping AZ outages leave no node up, and
    # creates and evacuations fail.
    "chaos": {
        "kind": "sim",
        "topology": {
            "chaos": {"azs": 4, "building_blocks_per_az": 2, "nodes_per_bb": 8, "hana_nodes": 3},
        },
        "sim": {
            "duration_days": 2.0,
            "initial_vms": 80,
            "arrival_rate_per_hour": 12.0,
            "scrape_interval_s": 900.0,
            "drs_interval_s": 3600.0,
        },
        "faults": True,
        "resilience": True,
    },
    # The figure pipeline at the shape of benchmarks/conftest.py, then the
    # experiments report and the calibration checks.
    "figures": {
        "kind": "figures",
        "generator": {
            "scale": 0.05,
            "days": 30,
            "sampling_seconds": 1800,
            "vm_series_limit": 50,
        },
    },
}

#: Overrides for the self-test's tiny-length runs.
TINY: dict[str, dict] = {
    "steady": {"sim": {"duration_days": 0.25, "initial_vms": 40}},
    "churn": {"sim": {"duration_days": 0.1, "initial_vms": 40}},
    "chaos": {"sim": {"duration_days": 0.5, "initial_vms": 30}},
    "figures": {"generator": {"scale": 0.02, "days": 3, "sampling_seconds": 3600}},
}

WORKLOADS = tuple(SHAPES)

#: The simulations request flavors up to this much RAM.  The >= 3 TB HANA
#: flavors fit only the special-purpose HANA-XL blocks (two nodes each at
#: these scales), which pack placement fragments within a simulated day or
#: two; their node-fit rejections would make the failure count depend on
#: the seed.
MAX_RAM_GIB = 2048


def make_config(workload: str, seed: int, rep: int, tiny: bool = False) -> dict:
    """The JSON config of repetition ``rep`` of ``workload`` under ``seed``.

    The same triple always gives the same config.
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    config = copy.deepcopy(SHAPES[workload])
    if tiny:
        for section, values in TINY[workload].items():
            config[section].update(values)
    rng = random.Random(f"{workload}:{seed}:{rep}")
    config["workload"] = workload
    if config["kind"] == "figures":
        config["generator"]["seed"] = rng.randrange(1, 2**31)
        return config
    config["max_ram_gib"] = MAX_RAM_GIB
    sim = config["sim"]
    sim["seed"] = rng.randrange(1, 2**31)
    if sim["drs_interval_s"] is None:
        # Past the run's end: no DRS pass is ever scheduled.
        sim["drs_interval_s"] = 2 * 86_400.0 * sim["duration_days"]
    if config.get("faults"):
        config["faults"] = {"seed": rng.randrange(1, 2**31)}
    if config.get("resilience"):
        config["resilience"] = {"seed": rng.randrange(1, 2**31)}
    return config
