"""The FilterScheduler: Nova's filter/weigher pipeline with retries.

Implements the scheduling flow of Fig 3: collect all hosts, apply the filter
chain, rank survivors through the weigher pipeline, then claim the best
candidate against placement.  Nova's greedy-with-retries behaviour is
reproduced: if the claim races and fails, the next-ranked alternate is
tried, up to ``max_attempts``.

Configuration goes through :class:`~repro.scheduler.config.SchedulerConfig`.

There is one hot path.  Candidate states come from an incremental
:class:`~repro.scheduler.index.HostStateIndex` instead of a per-request
region rescan; when the chain checks free vCPUs, the index's free-vCPU
buckets pre-narrow the candidates; filters run cheapest-first, skip the
ones a request cannot trip (``relevant``) and stop once no host is left.
Survivors, and therefore placements, equal those of the naive rescan in
declared filter order: ``repro.verify.oracle``'s ``_RescanScheduler``
keeps that reference and the differential oracle pins the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.infrastructure.hierarchy import Region
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.filters import ComputeFilter, VCpuFilter, default_filters
from repro.scheduler.hoststate import HostState
from repro.scheduler.index import HostStateIndex
from repro.scheduler.placement import AllocationError, PlacementService
from repro.scheduler.policies import weighers_for_flavor
from repro.scheduler.request import RequestSpec
from repro.scheduler.stats import SCHEDULER_STAT_KEYS, normalize_stats
from repro.scheduler.weighers import Weigher, WeigherPipeline


class NoValidHost(Exception):
    """No host survived filtering, or all claim attempts failed."""


@dataclass
class SchedulingResult:
    """Outcome of one placement request."""

    vm_id: str
    host_id: str
    score: float
    attempts: int
    #: Hosts ranked below the winner (Nova's alternates for retries).
    alternates: list[str] = field(default_factory=list)
    filtered_counts: dict[str, int] = field(default_factory=dict)


class FilterScheduler:
    """Initial placement of VMs onto compute hosts (building blocks)."""

    def __init__(
        self,
        region: Region,
        placement: PlacementService,
        config: SchedulerConfig | None = None,
    ) -> None:
        if config is None:
            config = SchedulerConfig()
        self.region = region
        self.placement = placement
        self.config = config
        self.filters = (
            list(config.filters) if config.filters is not None else default_filters()
        )
        self._fixed_weighers = (
            list(config.weighers) if config.weighers is not None else None
        )
        self.max_attempts = config.max_attempts
        self.alternates = config.alternates
        self.stats = {key: 0 for key in SCHEDULER_STAT_KEYS}
        # Cheapest filters first for short-circuiting; the survivor *set*
        # is order-independent (filters are pure predicates), so this
        # never changes placements, only work done.
        self._ordered_filters = sorted(
            self.filters, key=lambda flt: getattr(flt, "cost", 1)
        )
        # Bucket pre-selection is only sound when the chain contains a
        # free-vCPU capacity check that would eliminate the same hosts.
        self._vcpu_gated = any(
            isinstance(flt, (ComputeFilter, VCpuFilter)) for flt in self.filters
        )
        self._index = HostStateIndex(region, placement)
        self._pipelines: dict[str, WeigherPipeline] = {}
        #: Optional ``(host_id, ok)`` callback fired after every claim
        #: attempt in :meth:`schedule` — admission control's per-building-
        #: block circuit breakers listen here.
        self.claim_observer = None

    # -- host collection -----------------------------------------------------

    def invalidate_host(self, host_id: str) -> None:
        """Tell the index a host mutated outside placement (e.g. failed)."""
        self._index.invalidate(host_id)

    @property
    def index(self) -> HostStateIndex:
        """The incremental host-state index."""
        return self._index

    def stats_snapshot(self) -> dict[str, int]:
        """Canonical counter snapshot (shared stats() API)."""
        return normalize_stats(self.stats, SCHEDULER_STAT_KEYS)

    # -- subclass hooks ------------------------------------------------------

    def _prepare_states(self, states: list[HostState]) -> list[HostState]:
        """Decorate candidate states before filtering (subclass hook)."""
        return states

    def _weighers_for(self, spec: RequestSpec) -> list[Weigher]:
        """Weigher set for one request (subclass hook)."""
        if self._fixed_weighers is not None:
            return self._fixed_weighers
        return weighers_for_flavor(spec.flavor)

    def _weigher_cache_key(self, spec: RequestSpec) -> str | None:
        """Cache key for the weigher pipeline; None disables caching."""
        return spec.flavor.family

    def _pipeline_for(self, spec: RequestSpec) -> WeigherPipeline:
        key = self._weigher_cache_key(spec)
        if key is None:
            return WeigherPipeline(self._weighers_for(spec))
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = WeigherPipeline(self._weighers_for(spec))
            self._pipelines[key] = pipeline
        return pipeline

    # -- scheduling -------------------------------------------------------------

    def select_destinations(
        self, spec: RequestSpec
    ) -> tuple[list[tuple[HostState, float]], dict[str, int]]:
        """Filter + weigh; returns ranked candidates and per-filter counts.

        ``counts`` holds ``"initial"`` (candidates after bucket
        pre-selection) and, for each filter that ran, the hosts left after
        it.
        """
        index = self._index
        index.refresh()
        if self._vcpu_gated:
            hosts = index.candidates(spec.flavor.vcpus)
        else:
            hosts = index.states()
        hosts = self._prepare_states(hosts)
        counts: dict[str, int] = {"initial": len(hosts)}
        for flt in self._ordered_filters:
            if not hosts:
                break
            if flt.relevant(spec):
                hosts = flt.filter_all(hosts, spec)
                counts[flt.name] = len(hosts)
        if not hosts:
            return [], counts
        ranked = self._pipeline_for(spec).rank(hosts, spec)
        return ranked, counts

    def schedule(self, spec: RequestSpec) -> SchedulingResult:
        """Place one request, claiming resources via placement.

        Raises :class:`NoValidHost` when no candidate passes filtering or
        every claim attempt fails.
        """
        self.stats["requests"] += 1
        attempts = 0
        current = spec
        last_counts: dict[str, int] = {}
        while attempts < self.max_attempts:
            ranked, counts = self.select_destinations(current)
            last_counts = counts
            if not ranked:
                break
            attempts += 1
            best, score = ranked[0]
            try:
                self.placement.claim(current.vm_id, best.host_id, current.requested())
            except AllocationError:
                # The greedy pick raced with another claim; exclude and retry.
                self.stats["retries"] += 1
                if self.claim_observer is not None:
                    self.claim_observer(best.host_id, False)
                current = current.excluding(best.host_id)
                continue
            self.stats["placed"] += 1
            if self.claim_observer is not None:
                self.claim_observer(best.host_id, True)
            return SchedulingResult(
                vm_id=spec.vm_id,
                host_id=best.host_id,
                score=score,
                attempts=attempts,
                alternates=[h.host_id for h, _ in ranked[1 : 1 + self.alternates]],
                filtered_counts=counts,
            )
        self.stats["failed"] += 1
        raise NoValidHost(
            f"no valid host for {spec.vm_id} "
            f"(flavor={spec.flavor.name}, attempts={attempts}, "
            f"filter_counts={last_counts})"
        )
