"""The unified scenario configuration: one spec for every runnable workload.

Every CLI in this repo ultimately runs the same thing — a seeded
:class:`~repro.simulation.runner.RegionSimulation` over some topology
with some mix of scheduler / fault / resilience knobs — yet each grew
its own config shape (``repro faults --config`` took flat
:class:`~repro.faults.config.FaultConfig` fields, ``repro chaos
--config`` took ``{"faults": ..., "resilience": ...}`` sections).
:class:`ScenarioSpec` collapses that surface into one JSON-able value
object that composes all three layers plus the simulation knobs, and is
the unit the :mod:`repro.sweep` engine shards across worker processes.

Canonical JSON shape (all keys optional, unknown keys rejected)::

    {
      "topology": "lab" | "chaos" | "paper",
      "building_blocks": 3, "nodes_per_bb": 4,          # lab
      "building_blocks_per_az": 2,                      # chaos
      "region_scale": 0.02,                             # paper
      "duration_days": 1.0, "seed": 7,
      "arrival_rate_per_hour": 12.0, "initial_vms": 120,
      "scrape_interval_s": 900.0, "drs_interval_s": 3600.0,
      "scheduler_factory": "nova",
      "scheduler":  {"max_attempts": 3, "alternates": 3},
      "faults":     { ... FaultConfig fields ... },
      "resilience": { ... ResilienceConfig fields ... }
    }

The old per-CLI shapes (flat FaultConfig fields, bare
``{"faults": ..., "resilience": ...}`` sections) are rejected with an
error naming this shape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro._finite import require_finite
from repro.faults.config import FaultConfig
from repro.infrastructure.topology import (
    TopologySpec,
    chaos_region_spec,
    lab_region_spec,
    paper_region_spec,
)
from repro.resilience.config import ResilienceConfig
from repro.scheduler.config import SchedulerConfig

if TYPE_CHECKING:  # the runner import is deferred to run() to avoid cycles
    from repro.simulation.runner import SimulationResult

#: Topologies a spec can name.  ``lab`` is the flat one-DC region the
#: fault scenarios use, ``chaos`` the two-AZ region of the chaos
#: scenario, ``paper`` the paper-shaped region at ``region_scale``.
TOPOLOGIES = ("lab", "chaos", "paper")

#: SchedulerConfig fields that are JSON-able scalars; ``filters`` /
#: ``weighers`` hold live objects and cannot round-trip through a spec.
_SCHEDULER_SCALAR_FIELDS = ("max_attempts", "alternates")

#: Nested sections of the canonical dict shape.
_SECTIONS = ("scheduler", "faults", "resilience")


def scheduler_config_to_dict(config: SchedulerConfig) -> dict:
    """JSON-able view of a SchedulerConfig; rejects live filter objects."""
    if config.filters is not None or config.weighers is not None:
        raise ValueError(
            "a SchedulerConfig with custom filter/weigher objects cannot "
            "be serialised into a ScenarioSpec"
        )
    return {name: getattr(config, name) for name in _SCHEDULER_SCALAR_FIELDS}


def scheduler_config_from_dict(data: object) -> SchedulerConfig:
    """Build a SchedulerConfig from parsed JSON; ``ValueError`` on problems."""
    if not isinstance(data, dict):
        raise ValueError(
            f"scheduler config must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_SCHEDULER_SCALAR_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown scheduler config keys: {', '.join(unknown)} "
            f"(known: {', '.join(_SCHEDULER_SCALAR_FIELDS)})"
        )
    try:
        return SchedulerConfig(**data)
    except TypeError as exc:
        raise ValueError(f"invalid scheduler config: {exc}") from exc


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described, runnable simulation scenario.

    The frozen composition of topology + workload + the three optional
    config layers.  ``from_dict``/``to_dict`` round-trip losslessly, so a
    spec has a stable content hash (:meth:`sha256`) — the identity the
    sweep engine journals to make resume safe against grid edits.
    """

    # -- topology ----------------------------------------------------------
    topology: str = "lab"
    building_blocks: int = 3
    nodes_per_bb: int = 4
    building_blocks_per_az: int = 2
    region_scale: float = 0.02
    # -- workload ----------------------------------------------------------
    duration_days: float = 1.0
    seed: int = 7
    arrival_rate_per_hour: float = 12.0
    initial_vms: int = 120
    scrape_interval_s: float = 900.0
    drs_interval_s: float = 3600.0
    scheduler_factory: str = "nova"
    # -- composed layers (None = subsystem disabled / defaults) ------------
    scheduler: SchedulerConfig | None = None
    faults: FaultConfig | None = None
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {', '.join(TOPOLOGIES)}, "
                f"got {self.topology!r}"
            )
        require_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.building_blocks < 1 or self.nodes_per_bb < 1:
            raise ValueError("need at least one building block and node")
        if self.building_blocks_per_az < 1:
            raise ValueError("building_blocks_per_az must be >= 1")
        if self.region_scale <= 0:
            raise ValueError("region_scale must be positive")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.arrival_rate_per_hour < 0 or self.initial_vms < 0:
            raise ValueError("arrival rate and initial_vms must be >= 0")
        if self.scrape_interval_s <= 0 or self.drs_interval_s <= 0:
            raise ValueError("scrape/DRS intervals must be positive")
        if self.scheduler_factory not in ("nova", "holistic"):
            raise ValueError(
                f"scheduler_factory must be 'nova' or 'holistic', "
                f"got {self.scheduler_factory!r}"
            )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Complete, JSON-able, deterministic view (sections only when set)."""
        doc: dict = {
            "topology": self.topology,
            "building_blocks": self.building_blocks,
            "nodes_per_bb": self.nodes_per_bb,
            "building_blocks_per_az": self.building_blocks_per_az,
            "region_scale": self.region_scale,
            "duration_days": self.duration_days,
            "seed": self.seed,
            "arrival_rate_per_hour": self.arrival_rate_per_hour,
            "initial_vms": self.initial_vms,
            "scrape_interval_s": self.scrape_interval_s,
            "drs_interval_s": self.drs_interval_s,
            "scheduler_factory": self.scheduler_factory,
        }
        if self.scheduler is not None:
            doc["scheduler"] = scheduler_config_to_dict(self.scheduler)
        if self.faults is not None:
            doc["faults"] = {
                f.name: getattr(self.faults, f.name)
                for f in fields(FaultConfig)
            }
        if self.resilience is not None:
            doc["resilience"] = {
                f.name: getattr(self.resilience, f.name)
                for f in fields(ResilienceConfig)
            }
        return doc

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioSpec":
        """Build a spec from parsed JSON; ``ValueError`` on any problem.

        Unknown keys are rejected by name (a typo must not silently fall
        back to a default), nested sections are parsed through each
        layer's own validating ``from_dict``.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"scenario config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        scalar_names = [
            f.name for f in fields(cls) if f.name not in _SECTIONS
        ]
        known = set(scalar_names) | set(_SECTIONS)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs: dict = {
            name: data[name] for name in scalar_names if name in data
        }
        if "scheduler" in data:
            kwargs["scheduler"] = scheduler_config_from_dict(data["scheduler"])
        if "faults" in data:
            kwargs["faults"] = FaultConfig.from_dict(data["faults"])
        if "resilience" in data:
            kwargs["resilience"] = ResilienceConfig.from_dict(
                data["resilience"]
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid scenario config: {exc}") from exc

    def canonical_json(self) -> str:
        """Compact canonical rendering — input of :meth:`sha256`."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )

    def sha256(self) -> str:
        """Content hash: the spec's identity in sweep journals/reports."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # -- execution ---------------------------------------------------------

    def topology_spec(self) -> TopologySpec:
        """The region this spec runs against."""
        if self.topology == "paper":
            return paper_region_spec(scale=self.region_scale)
        if self.topology == "chaos":
            return chaos_region_spec(self.building_blocks_per_az, self.nodes_per_bb)
        return lab_region_spec(self.building_blocks, self.nodes_per_bb)

    def simulation_config(self):
        """The :class:`~repro.simulation.runner.SimulationConfig` this
        spec describes."""
        from repro.simulation.runner import SimulationConfig

        return SimulationConfig(
            duration_days=self.duration_days,
            scrape_interval_s=self.scrape_interval_s,
            drs_interval_s=self.drs_interval_s,
            arrival_rate_per_hour=self.arrival_rate_per_hour,
            initial_vms=self.initial_vms,
            seed=self.seed,
            scheduler_factory=self.scheduler_factory,
            scheduler_config=self.scheduler,
            faults=self.faults,
            resilience=self.resilience,
        )

    def run(self, journal=None) -> "SimulationResult":
        """Run the scenario once; returns the full simulation result."""
        from repro.simulation.runner import RegionSimulation

        sim = RegionSimulation(
            self.topology_spec(), self.simulation_config(), journal=journal
        )
        return sim.run()


# -- retired per-CLI config shapes -------------------------------------------
#
# Before ScenarioSpec, ``repro faults --config`` took flat FaultConfig
# fields and ``repro chaos --config`` took bare ``{"faults": ...,
# "resilience": ...}`` sections.  Neither is accepted any more; the CLI
# recognises them only to name the expected shape in its error.


def looks_like_legacy_faults_dict(data: dict) -> bool:
    """True when ``data`` is the retired flat FaultConfig shape.

    Every key must be a FaultConfig field and at least one must be a
    FaultConfig-only field: keys both configs share (``seed``) are a valid
    ScenarioSpec overlay on their own.
    """
    fault_fields = {f.name for f in fields(FaultConfig)}
    fault_only = fault_fields - {f.name for f in fields(ScenarioSpec)}
    keys = set(data)
    return keys <= fault_fields and bool(keys & fault_only)


def looks_like_legacy_chaos_dict(data: dict) -> bool:
    """True when ``data`` is the retired sections-only chaos shape."""
    return bool(data) and set(data) <= {"faults", "resilience"}
