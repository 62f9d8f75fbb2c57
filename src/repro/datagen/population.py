"""VM population sampling calibrated to Tables 1 and 2.

``FLAVOR_MIX`` (defined next to the catalogue in
:mod:`repro.infrastructure.flavors`) assigns selection weights to the
default flavor catalogue so that the sampled population reproduces the
paper's marginal distributions:

- by vCPU (Table 1): small ≤4 → 62.7%, medium ≤16 → 31.6%,
  large ≤64 → 4.0%, xlarge >64 → 1.6%;
- by RAM GiB (Table 2): small ≤2 → 2.2%, medium ≤64 → 91.3%,
  large ≤128 → 1.7%, xlarge >128 → 4.8%.

Lifetimes and demand processes come from the per-profile models in
:mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.infrastructure.flavors import (
    FLAVOR_MIX,
    Flavor,
    FlavorCatalog,
    default_catalog,
)
from repro.sampling import categorical_cdf, draw
from repro.workloads.demand import DemandModel, VMDemand
from repro.workloads.lifetime import sample_lifetime
from repro.workloads.profiles import profile_for_flavor

@dataclass
class VMRecord:
    """One sampled VM before/after placement."""

    vm_id: str
    flavor: Flavor
    profile_name: str
    tenant: str
    created_at: float
    deleted_at: float | None  # None = alive past the window end
    demand: VMDemand
    node_id: str | None = None
    bb_id: str | None = None
    dc_id: str | None = None
    az: str | None = None
    #: (time, source_node, target_node) migrations within the window.
    migrations: list[tuple[float, str, str]] = field(default_factory=list)
    #: (time, old_flavor, new_flavor) resizes within the window.
    resizes: list[tuple[float, Flavor, Flavor]] = field(default_factory=list)

    @property
    def alive_at_start(self) -> bool:
        return self.created_at <= 0 or self.created_at < self.deleted_or_inf

    @property
    def deleted_or_inf(self) -> float:
        return np.inf if self.deleted_at is None else self.deleted_at

    def lifetime_seconds(self, now: float) -> float:
        end = self.deleted_at if self.deleted_at is not None else now
        return max(0.0, end - self.created_at)


def _pick_flavors(
    catalog: FlavorCatalog, rng: np.random.Generator, n: int
) -> list[Flavor]:
    names = [name for name, w in FLAVOR_MIX if w > 0]
    weights = np.asarray([w for _, w in FLAVOR_MIX if w > 0])
    weights = weights / weights.sum()
    choices = rng.choice(len(names), size=n, p=weights)
    return [catalog.get(names[int(c)]) for c in choices]


def sample_population(
    n_initial: int,
    window_start: float,
    window_end: float,
    rng: np.random.Generator,
    churn_fraction: float = 0.15,
    catalog: FlavorCatalog | None = None,
    n_tenants: int = 40,
) -> list[VMRecord]:
    """Sample the VM population of one region.

    ``n_initial`` VMs exist when the window opens (their ``created_at`` lies
    in the past, giving the retrospective lifetimes of Fig 15); an
    additional ``churn_fraction * n_initial`` VMs arrive during the window.
    Deletions happen when a VM's sampled residual lifetime expires inside
    the window.
    """
    if n_initial < 1:
        raise ValueError("n_initial must be positive")
    catalog = catalog or default_catalog()
    demand_model = DemandModel(rng)
    records: list[VMRecord] = []

    def make_record(index: int, created_at: float, initial: bool) -> VMRecord:
        flavor = flavors[index]
        profile = profile_for_flavor(flavor, rng)
        demand = demand_model.demand_for(flavor, profile)
        if initial:
            # VMs observed alive at the window start are a length-biased
            # sample of the lifetime distribution (a VM of lifetime L is
            # alive at a random instant with probability proportional to L).
            # Draw a few candidates, pick one with probability ~ L, then
            # place the observation instant uniformly inside the lifetime.
            candidates = np.asarray(
                [sample_lifetime(profile.name, rng) for _ in range(4)]
            )
            pick = draw(categorical_cdf(candidates / candidates.sum()), rng)
            lifetime = float(candidates[pick])
            age = float(rng.uniform(0.0, lifetime))
            created = window_start - age
            deleted = created + lifetime
        else:
            created = created_at
            deleted = created + sample_lifetime(profile.name, rng)
        deleted_at = deleted if deleted < window_end else None
        return VMRecord(
            vm_id=f"vm-{index:06d}",
            flavor=flavor,
            profile_name=profile.name,
            tenant=f"tenant-{rng.integers(0, n_tenants):03d}",
            created_at=created,
            deleted_at=deleted_at,
            demand=demand,
        )

    n_churn = int(round(n_initial * churn_fraction))
    flavors = _pick_flavors(catalog, rng, n_initial + n_churn)
    for i in range(n_initial):
        records.append(make_record(i, window_start, initial=True))
    arrival_times = np.sort(rng.uniform(window_start, window_end, n_churn))
    for j, arrival in enumerate(arrival_times):
        records.append(make_record(n_initial + j, float(arrival), initial=False))
    return records
