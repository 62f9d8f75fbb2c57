"""Unified scheduler configuration.

Historically :class:`~repro.scheduler.pipeline.FilterScheduler` grew one
keyword argument per knob (filters, weighers, max_attempts, alternates)
and callers wired policy selection by hand via ``weighers_for_flavor``.
:class:`SchedulerConfig` collapses that surface into one value object that
every entry point (simulation runner, fault scenarios, rebalancer,
benchmarks, examples) passes to ``FilterScheduler(region, placement,
config)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # avoid import cycles; only needed for type checkers
    from repro.scheduler.filters import Filter
    from repro.scheduler.weighers import Weigher


@dataclass(frozen=True)
class SchedulerConfig:
    """Everything that shapes one FilterScheduler's behaviour.

    ``filters`` / ``weighers`` of ``None`` mean "use the deployment
    defaults": the SAP-like filter chain and the per-flavor pack/spread
    policy weighers (§3.2).  ``use_index`` enables the incremental
    :class:`~repro.scheduler.index.HostStateIndex`; ``track_filter_counts``
    keeps the legacy per-filter elimination trace on every result (turn it
    off on hot paths — survivors are identical, only the trace is dropped,
    and capacity bucket pre-selection plus cost-ordered short-circuiting
    kick in).
    """

    filters: Sequence["Filter"] | None = None
    weighers: Sequence["Weigher"] | None = None
    max_attempts: int = 3
    alternates: int = 3
    use_index: bool = True
    track_filter_counts: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.alternates < 0:
            raise ValueError("alternates must be >= 0")

    def fast(self) -> "SchedulerConfig":
        """This config with the per-filter trace disabled (hot-path mode)."""
        return replace(self, track_filter_counts=False)
