"""Nova-style weighers: score and rank surviving candidates.

Nova normalises each weigher's raw scores to [0, 1] across the candidate
list, multiplies by the weigher's multiplier, and sums (§2.2, Fig 3).  A
positive multiplier on a free-resource weigher spreads load (prefer emptier
hosts); a negative multiplier packs it (prefer fuller hosts) — the mechanism
behind the pack-vs-spread policy split of §3.2.
"""

from __future__ import annotations

import abc

from repro.scheduler.hoststate import HostState
from repro.scheduler.request import RequestSpec


class Weigher(abc.ABC):
    """Base weigher with a Nova-style multiplier."""

    name = "Weigher"

    def __init__(self, multiplier: float = 1.0) -> None:
        self.multiplier = multiplier

    @abc.abstractmethod
    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        """Unnormalised score; higher means more preferred at multiplier 1."""

    def raw_weights(self, hosts: list[HostState], spec: RequestSpec) -> list[float]:
        """Batch form of :meth:`raw_weight`; override to skip per-host
        dispatch on the scheduling hot path."""
        raw_weight = self.raw_weight
        return [raw_weight(h, spec) for h in hosts]

    def __repr__(self) -> str:
        return f"<{self.name} x{self.multiplier}>"


class CPUWeigher(Weigher):
    """Scores by free vCPUs (Nova CPUWeigher)."""

    name = "CPUWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return host.free_vcpus

    def raw_weights(self, hosts: list[HostState], spec: RequestSpec) -> list[float]:
        return [h.free_vcpus for h in hosts]


class RAMWeigher(Weigher):
    """Scores by free memory (Nova RAMWeigher)."""

    name = "RAMWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return host.free_ram_mb

    def raw_weights(self, hosts: list[HostState], spec: RequestSpec) -> list[float]:
        return [h.free_ram_mb for h in hosts]


class DiskWeigher(Weigher):
    """Scores by free local storage."""

    name = "DiskWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return host.free_disk_gb

    def raw_weights(self, hosts: list[HostState], spec: RequestSpec) -> list[float]:
        return [h.free_disk_gb for h in hosts]


class NumInstancesWeigher(Weigher):
    """Scores by instance count; positive multiplier prefers fewer VMs."""

    name = "NumInstancesWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return -float(host.num_instances)

    def raw_weights(self, hosts: list[HostState], spec: RequestSpec) -> list[float]:
        return [-float(h.num_instances) for h in hosts]


class IoOpsWeigher(Weigher):
    """Scores by in-flight provisioning operations (Nova IoOpsWeigher).

    A positive multiplier prefers hosts with *fewer* concurrent
    build/resize/migrate operations, spreading provisioning I/O load.
    """

    name = "IoOpsWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        return -float(host.num_io_ops)


class FitnessWeigher(Weigher):
    """Best-fit weigher: prefers hosts whose free capacity most tightly
    wraps the request (smaller leftover dominant share scores higher).

    Not in vanilla Nova — included as the "extension point" §7 recommends.
    """

    name = "FitnessWeigher"

    def raw_weight(self, host: HostState, spec: RequestSpec) -> float:
        requested = spec.requested()
        leftovers = []
        if host.total_vcpus > 0:
            leftovers.append((host.free_vcpus - requested.vcpus) / host.total_vcpus)
        if host.total_ram_mb > 0:
            leftovers.append((host.free_ram_mb - requested.memory_mb) / host.total_ram_mb)
        if not leftovers:
            return 0.0
        return -max(leftovers)


class WeigherPipeline:
    """Normalise, scale, and sum weigher scores across candidates."""

    def __init__(self, weighers: list[Weigher]) -> None:
        if not weighers:
            raise ValueError("need at least one weigher")
        self.weighers = weighers

    def rank(
        self, hosts: list[HostState], spec: RequestSpec
    ) -> list[tuple[HostState, float]]:
        """Candidates with combined scores, best first.

        Ties break by host_id for determinism.
        """
        if not hosts:
            return []
        # Candidate lists are small (a handful of BBs survive filtering), so
        # plain-Python min-max beats numpy's per-call overhead here.
        combined = [0.0] * len(hosts)
        for weigher in self.weighers:
            raw = weigher.raw_weights(hosts, spec)
            lo = min(raw)
            span = max(raw) - lo
            if span < 1e-12:
                continue  # constant column normalises to all-zeros
            multiplier = weigher.multiplier
            for i, value in enumerate(raw):
                combined[i] += multiplier * ((value - lo) / span)
        order = sorted(
            range(len(hosts)), key=lambda i: (-combined[i], hosts[i].host_id)
        )
        return [(hosts[i], combined[i]) for i in order]
