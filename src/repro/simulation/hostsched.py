"""Host-level CPU scheduler model: ready time and contention.

The paper defines *CPU contention* as "time a virtual CPU (vCPU) is ready to
execute instructions but cannot be scheduled on a physical CPU (pCPU)"
(§5.1), matching VMware's CPU-ready/contention counters.  This module
derives both from aggregate vCPU demand versus pCPU supply over a sampling
window:

- Let ``D`` be the summed physical-core-equivalent demand of resident vCPUs
  and ``C`` the node's physical core count.  Demand beyond ``C`` cannot be
  scheduled.
- The unsatisfied demand over a window of ``w`` seconds is
  ``max(0, D - C) * w`` core-seconds.  Normalised per physical core this is
  the window's **CPU ready time**, ``max(0, D - C) / C * w`` — the average
  time each pCPU had runnable-but-waiting vCPUs queued on it.  Saturated
  nodes can exceed the wall-clock window (e.g. the ~30-minute outliers of
  Fig 8 in a 300 s window) because multiple waiting vCPUs stack per core.
- **Contention percentage** is the ready share of total demanded time:
  ``max(0, D - C) / D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class NodeWindowUsage:
    """Resolved CPU usage of one node over one sampling window."""

    demand_cores: float  # aggregate vCPU demand in core-equivalents
    delivered_cores: float  # demand actually scheduled (<= physical cores)
    cpu_used_fraction: float  # delivered / physical, 0..1
    cpu_ready_ms: float  # summed vCPU ready time in the window
    cpu_contention_fraction: float  # ready / demanded time, 0..1


class HostCpuModel:
    """Maps vCPU demand to delivered CPU, ready time, and contention."""

    def __init__(self, physical_cores, efficiency: float = 1.0) -> None:
        """``efficiency`` discounts usable cores (hypervisor overhead).

        ``physical_cores`` is one node's core count, or an array of them:
        :meth:`resolve_series` then resolves one window per node.
        """
        if np.any(np.asarray(physical_cores) <= 0):
            raise ValueError("physical_cores must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be within (0, 1]")
        self.physical_cores = physical_cores
        self.usable_cores = physical_cores * efficiency

    def resolve_window(self, demand_cores: float, window_seconds: float) -> NodeWindowUsage:
        """Resolve one sampling window of aggregate demand."""
        if demand_cores < 0:
            raise ValueError("demand_cores must be non-negative")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        delivered = min(demand_cores, self.usable_cores)
        unsatisfied = max(0.0, demand_cores - self.usable_cores)
        ready_ms = unsatisfied / self.usable_cores * window_seconds * 1000.0
        contention = unsatisfied / demand_cores if demand_cores > 0 else 0.0
        return NodeWindowUsage(
            demand_cores=demand_cores,
            delivered_cores=delivered,
            cpu_used_fraction=delivered / self.physical_cores,
            cpu_ready_ms=ready_ms,
            cpu_contention_fraction=contention,
        )

    def resolve_series(
        self, demand_cores: np.ndarray, window_seconds: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`resolve_window` over a demand array, equal to
        it element for element, bit for bit.

        Returns ``(cpu_used_fraction, cpu_ready_ms, contention_fraction)``.
        """
        demand = np.asarray(demand_cores, dtype=float)
        if np.any(demand < 0):
            raise ValueError("demand_cores must be non-negative")
        delivered = np.minimum(demand, self.usable_cores)
        unsatisfied = np.maximum(0.0, demand - self.usable_cores)
        used_fraction = delivered / self.physical_cores
        ready_ms = unsatisfied / self.usable_cores * window_seconds * 1000.0
        with np.errstate(divide="ignore", invalid="ignore"):
            contention = np.where(demand > 0, unsatisfied / demand, 0.0)
        return used_fraction, ready_ms, contention

    def fair_share(self, demands: np.ndarray) -> np.ndarray:
        """Per-VM delivered cores under proportional-share scheduling.

        When aggregate demand exceeds supply every vCPU is throttled
        proportionally — the noisy-neighbour effect (§3.2): a VM's delivered
        CPU depends on what its co-residents demand.
        """
        demands = np.asarray(demands, dtype=float)
        total = demands.sum()
        if total <= self.usable_cores:
            return demands.copy()
        return demands * (self.usable_cores / total)
