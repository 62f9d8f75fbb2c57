"""Shared fixtures.

The generated dataset is expensive (seconds), so one small instance is
shared session-wide; tests must not mutate it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.datagen import GeneratorConfig, generate_dataset
from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
from repro.infrastructure.topology import (
    BuildingBlockSpec,
    DatacenterSpec,
    TopologySpec,
    build_region,
)


@pytest.fixture(autouse=True)
def _global_random_guard(request, monkeypatch):
    """Fail loudly when a test drains the global ``random`` stream unseeded.

    Simulation determinism is load-bearing for this repo (same seed ⇒
    byte-identical traces), so production code must only draw from private
    seeded generators.  A test that consumes ``random``'s *global* state
    without seeding it first is order-dependent: its outcome silently
    changes when another test runs before it.  This guard snapshots the
    global state, records whether ``random.seed`` was called, and fails
    any test that advanced the stream without seeding.  Opt out with
    ``@pytest.mark.uses_global_random`` for tests that deliberately
    exercise unseeded global randomness.
    """
    if request.node.get_closest_marker("uses_global_random"):
        yield
        return
    before = random.getstate()
    seeded = False
    real_seed = random.seed

    def recording_seed(*args, **kwargs):
        nonlocal seeded
        seeded = True
        return real_seed(*args, **kwargs)

    monkeypatch.setattr(random, "seed", recording_seed)
    yield
    after = random.getstate()
    # Restore regardless so one offender cannot poison later tests.
    random.setstate(before)
    if after != before and not seeded:
        pytest.fail(
            f"{request.node.nodeid} consumed the global `random` stream "
            "without seeding it — draw from a private seeded "
            "random.Random/numpy Generator instead, call random.seed(...) "
            "first, or mark the test @pytest.mark.uses_global_random"
        )


@pytest.fixture(scope="session")
def small_config() -> GeneratorConfig:
    return GeneratorConfig(
        scale=0.02,
        sampling_seconds=3600,
        vm_series_limit=25,
        seed=20240731,
    )


@pytest.fixture(scope="session")
def small_dataset(small_config):
    """A ~36-node, ~1,100-VM, 30-day dataset shared across tests."""
    return generate_dataset(small_config)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def catalog():
    return default_catalog()


def make_node(
    node_id: str = "n0", vcpus: float = 64, memory_gib: float = 512
) -> ComputeNode:
    return ComputeNode(
        node_id=node_id,
        physical=Capacity(
            vcpus=vcpus,
            memory_mb=memory_gib * 1024,
            disk_gb=4096,
            network_gbps=200,
        ),
    )


def make_bb(
    bb_id: str = "bb0",
    nodes: int = 4,
    vcpus: float = 64,
    memory_gib: float = 512,
    policy: str = "spread",
    cpu_ratio: float = 4.0,
) -> BuildingBlock:
    bb = BuildingBlock(
        bb_id=bb_id,
        overcommit=OvercommitPolicy(cpu_ratio=cpu_ratio),
        policy=policy,
    )
    for i in range(nodes):
        bb.add_node(make_node(f"{bb_id}-n{i}", vcpus, memory_gib))
    return bb


def build_tiny_region_spec() -> TopologySpec:
    """Two DCs, four BBs (two general, one HANA-XL, one HANA), 12 nodes."""
    general = BuildingBlockSpec(
        bb_id="dc1-gp-00",
        node_count=4,
        node_capacity=Capacity(
            vcpus=64, memory_mb=512 * 1024, disk_gb=4096, network_gbps=200
        ),
    )
    general2 = BuildingBlockSpec(
        bb_id="dc2-gp-00",
        node_count=3,
        node_capacity=Capacity(
            vcpus=64, memory_mb=512 * 1024, disk_gb=4096, network_gbps=200
        ),
    )
    hana_xl = BuildingBlockSpec(
        bb_id="dc1-hana-00",
        node_count=3,
        node_capacity=Capacity(
            vcpus=224, memory_mb=12288 * 1024, disk_gb=32768, network_gbps=200
        ),
        overcommit=OvercommitPolicy(cpu_ratio=2.0),
        aggregate_class="hana_xl",
        policy="pack",
    )
    hana_plain = BuildingBlockSpec(
        bb_id="dc1-hana-01",
        node_count=2,
        node_capacity=Capacity(
            vcpus=224, memory_mb=12288 * 1024, disk_gb=32768, network_gbps=200
        ),
        overcommit=OvercommitPolicy(cpu_ratio=2.0),
        aggregate_class="hana",
        policy="pack",
    )
    return TopologySpec(
        region_id="test-region",
        datacenters=(
            DatacenterSpec(
                dc_id="dc1",
                az_id="az1",
                building_blocks=(general, hana_xl, hana_plain),
            ),
            DatacenterSpec(dc_id="dc2", az_id="az2", building_blocks=(general2,)),
        ),
    )


@pytest.fixture
def tiny_region_spec() -> TopologySpec:
    return build_tiny_region_spec()


@pytest.fixture
def tiny_region(tiny_region_spec):
    return build_region(tiny_region_spec)
