"""The novel placement strategies the paper's findings motivate (§7).

Three extensions of the vanilla filter/weigher pipeline:

- :class:`ContentionAwareScheduler` — weighs candidates by historic CPU
  contention, steering new VMs away from hot hosts ("incorporating both
  current and historic utilization data, for example the contention
  metrics");
- :class:`LifetimeAwareScheduler` — separates predicted-short-lived from
  long-lived workloads to curb fragmentation ("placement strategies that
  incorporate workload lifetime can reduce migrations and mitigate
  resource fragmentation");
- :class:`HolisticNodeScheduler` — one-layer scheduling directly onto
  individual nodes, removing the Nova→DRS split ("a holistic scheduler
  that assigns VMs directly to individual hosts").
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.infrastructure.hierarchy import Region
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.filters import Filter, default_filters
from repro.scheduler.hoststate import HostState
from repro.scheduler.pipeline import FilterScheduler, NoValidHost, SchedulingResult
from repro.scheduler.placement import PlacementService
from repro.scheduler.policies import weighers_for_flavor
from repro.scheduler.request import RequestSpec
from repro.scheduler.stats import SCHEDULER_STAT_KEYS, normalize_stats
from repro.scheduler.weighers import Weigher, WeigherPipeline


class ContentionWeigher(Weigher):
    """Penalises hosts by an externally supplied contention score.

    ``scores`` maps host_id to a recent contention percentage (e.g. the
    p95 of ``vrops_hostsystem_cpu_contention_percentage`` over the member
    nodes).  Missing hosts score as contention-free.
    """

    name = "ContentionWeigher"

    def __init__(self, scores: Mapping[str, float], multiplier: float = 2.0) -> None:
        super().__init__(multiplier)
        self.scores = scores

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return -float(self.scores.get(host.host_id, 0.0))


class LifetimeAffinityWeigher(Weigher):
    """Prefers hosts whose churn class matches the VM's predicted lifetime.

    Hosts advertise their dominant residency via ``metadata["churn_class"]``
    ("short" or "long"); the request predicts its own via the
    ``expected_lifetime_s`` scheduler hint.  Mixing short-lived VMs into
    long-lived hosts strands capacity when they exit; this weigher keeps
    the populations separate.
    """

    name = "LifetimeAffinityWeigher"

    #: Lifetimes below this count as short-lived (1 day).
    SHORT_THRESHOLD_S = 86_400.0

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        hint = spec.scheduler_hints.get("expected_lifetime_s")
        host_class = host.metadata.get("churn_class")
        if hint is None or host_class not in ("short", "long"):
            return 0.0
        vm_class = "short" if float(hint) < self.SHORT_THRESHOLD_S else "long"
        return 1.0 if vm_class == host_class else -1.0


class ContentionAwareScheduler(FilterScheduler):
    """FilterScheduler with historic-contention weighting.

    Rides on the base pipeline (index, short-circuiting, caching) by
    overriding only the :meth:`_weighers_for` hook.
    """

    def __init__(
        self,
        region: Region,
        placement: PlacementService,
        contention_scores: Mapping[str, float],
        contention_multiplier: float = 2.0,
        config: SchedulerConfig | None = None,
    ) -> None:
        super().__init__(region, placement, config)
        self.contention_scores = contention_scores
        self.contention_multiplier = contention_multiplier
        self._contention_weigher = ContentionWeigher(
            contention_scores, contention_multiplier
        )

    def _weighers_for(self, spec: RequestSpec) -> list[Weigher]:
        return [*super()._weighers_for(spec), self._contention_weigher]


class LifetimeAwareScheduler(FilterScheduler):
    """FilterScheduler with lifetime-affinity weighting.

    ``churn_classes`` maps host_id to "short" or "long"; unmapped hosts are
    neutral.  Requests carry their prediction in the
    ``expected_lifetime_s`` scheduler hint.  Candidate states are decorated
    via the :meth:`_prepare_states` hook (the stamp is idempotent, so it is
    safe on the long-lived states the index caches).
    """

    def __init__(
        self,
        region: Region,
        placement: PlacementService,
        churn_classes: Mapping[str, str],
        affinity_multiplier: float = 1.5,
        config: SchedulerConfig | None = None,
    ) -> None:
        super().__init__(region, placement, config)
        self.churn_classes = churn_classes
        self.affinity_multiplier = affinity_multiplier
        self._lifetime_weigher = LifetimeAffinityWeigher(affinity_multiplier)

    def _prepare_states(self, states: list[HostState]) -> list[HostState]:
        for state in states:
            churn = self.churn_classes.get(state.host_id)
            if churn:
                state.metadata["churn_class"] = churn
        return states

    def _weighers_for(self, spec: RequestSpec) -> list[Weigher]:
        return [*super()._weighers_for(spec), self._lifetime_weigher]


class HolisticNodeScheduler:
    """One-layer scheduler assigning VMs directly to individual nodes.

    Candidates are nodes, not building blocks, so spread/pack decisions see
    intra-BB state that the two-layer Nova→DRS split hides.  Placement
    claims still book against the node's building block provider, keeping
    the Nova-visible accounting consistent.
    """

    def __init__(
        self,
        region: Region,
        placement: PlacementService,
        config: SchedulerConfig | None = None,
        filters: list[Filter] | None = None,
        weighers: list[Weigher] | None = None,
    ) -> None:
        if config is not None:
            filters = list(config.filters) if config.filters is not None else filters
            weighers = (
                list(config.weighers) if config.weighers is not None else weighers
            )
        self.region = region
        self.placement = placement
        self.filters = filters if filters is not None else default_filters()
        self._fixed_weighers = weighers
        self.stats = {key: 0 for key in SCHEDULER_STAT_KEYS}

    def stats_snapshot(self) -> dict[str, int]:
        """Canonical counter snapshot (shared stats() API)."""
        return normalize_stats(self.stats, SCHEDULER_STAT_KEYS)

    def node_states(self) -> list[HostState]:
        """Per-node candidate states (free capacity under the BB policy)."""
        states = []
        for bb in self.region.iter_building_blocks():
            for node in bb.iter_nodes():
                free = node.free(bb.overcommit)
                allocatable = node.allocatable(bb.overcommit)
                states.append(
                    HostState(
                        host_id=node.node_id,
                        az=node.az,
                        aggregate_class=bb.aggregate_class,
                        policy=bb.policy,
                        free_vcpus=free.vcpus,
                        free_ram_mb=free.memory_mb,
                        free_disk_gb=free.disk_gb,
                        total_vcpus=allocatable.vcpus,
                        total_ram_mb=allocatable.memory_mb,
                        total_disk_gb=allocatable.disk_gb,
                        num_instances=node.vm_count,
                        tenants=node.tenants(),
                        enabled=not node.maintenance,
                        metadata={"bb_id": bb.bb_id},
                    )
                )
        return states

    def schedule(self, spec: RequestSpec) -> SchedulingResult:
        """Pick a node, claim against its BB provider, return the result.

        The winning node id is in ``SchedulingResult.host_id``; the backing
        building block is recorded in ``filtered_counts['bb']`` via the
        node's metadata (callers needing it should use
        :meth:`node_building_block`).
        """
        self.stats["requests"] += 1
        hosts = self.node_states()
        counts: dict[str, int] = {"initial": len(hosts)}
        for flt in self.filters:
            hosts = flt.filter_all(hosts, spec)
            counts[flt.name] = len(hosts)
        if not hosts:
            self.stats["failed"] += 1
            raise NoValidHost(f"no valid node for {spec.vm_id}")
        weighers = self._fixed_weighers or weighers_for_flavor(spec.flavor)
        ranked = WeigherPipeline(weighers).rank(hosts, spec)
        best, score = ranked[0]
        bb_id = best.metadata["bb_id"]
        self.placement.claim(spec.vm_id, bb_id, spec.requested())
        self.stats["placed"] += 1
        return SchedulingResult(
            vm_id=spec.vm_id,
            host_id=best.host_id,
            score=score,
            attempts=1,
            alternates=[h.host_id for h, _ in ranked[1:4]],
            filtered_counts=counts,
        )

    def node_building_block(self, node_id: str) -> str:
        """The building block id owning ``node_id``."""
        return self.region.find_node(node_id).building_block
