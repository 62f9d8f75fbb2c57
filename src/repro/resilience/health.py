"""Host health tracking, flap detection, and quarantine.

The control plane only ever sees a host through its heartbeats.  The
:class:`HostHealthService` samples every node's observed up/down state on
a fixed cadence, logs transitions, and declares a node *flapping* when it
oscillates too often inside the detection window.  Flapping nodes are
**quarantined**: fenced from new placements (``ComputeNode.quarantined``,
which the scheduler's node selection, the QuarantineFilter, and the
``HostStateIndex`` through the node's health notification all respect)
while keeping any resident VMs — quarantine is a fence, not an eviction.

The quarantine lifecycle is ``HEALTHY → QUARANTINED → PROBATION →
HEALTHY``, with seeded jitter on quarantine durations and exponential
escalation on repeat offenders; a failure observed during probation
re-quarantines immediately.  Once a configured fraction of a building
block's nodes is quarantined the whole block is quarantined too
(blast-radius containment) and the scheduler filter rejects it outright.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.infrastructure.hierarchy import ComputeNode, Region
from repro.resilience.config import ResilienceConfig
from repro.resilience.report import ResilienceReport
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import QUARANTINE_END


class HealthState(enum.Enum):
    """Control-plane health classification of one node."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass
class _NodeRecord:
    """Per-node observation history and quarantine bookkeeping."""

    last_observed_down: bool = False
    transitions: deque = field(default_factory=deque)
    state: HealthState = HealthState.HEALTHY
    quarantine_count: int = 0
    probation_until: float = 0.0
    #: Bumped on every quarantine so stale QUARANTINE_END events are inert.
    epoch: int = 0


class HostHealthService:
    """Heartbeat-driven flap detection and quarantine for one region."""

    def __init__(
        self,
        region: Region,
        config: ResilienceConfig,
        report: ResilienceReport,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.region = region
        self.config = config
        self.report = report
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._records: dict[str, _NodeRecord] = {}
        self._nodes: list[ComputeNode] = list(region.iter_nodes())
        for node in self._nodes:
            self._records[node.node_id] = _NodeRecord(
                last_observed_down=node.failed
            )
        self._bb_nodes: dict[str, list[ComputeNode]] = {}
        for node in self._nodes:
            self._bb_nodes.setdefault(node.building_block, []).append(node)
        #: Building blocks currently quarantined as a unit; the scheduler's
        #: QuarantineFilter consults this set.
        self.quarantined_bbs: set[str] = set()
        #: Resident-VM snapshot taken at quarantine time, per node — the
        #: invariant checker asserts no additions while quarantined.
        self.quarantine_residents: dict[str, frozenset[str]] = {}
        #: Anything exposing ``invalidate_host(bb_id)`` (the scheduler).
        self.scheduler: Any = None
        #: Optional write-ahead hook: called with a JSON-able record on
        #: every quarantine transition (quarantine / extend / readmit),
        #: before the transition is applied to node state.
        self.journal_sink: Any = None

    # -- wiring ---------------------------------------------------------------

    def attach_scheduler(self, scheduler: Any) -> None:
        """Give the service a scheduler to invalidate on quarantine flips."""
        self.scheduler = scheduler

    @property
    def quarantined_hosts(self) -> frozenset[str]:
        """Quarantined scheduling targets: fenced BBs plus fenced nodes.

        Covers both granularities so the QuarantineFilter works for the
        BB-level FilterScheduler and the node-level holistic scheduler.
        """
        nodes = {
            node_id
            for node_id, rec in self._records.items()
            if rec.state is HealthState.QUARANTINED
        }
        return frozenset(nodes) | frozenset(self.quarantined_bbs)

    def state_of(self, node_id: str) -> HealthState:
        return self._records[node_id].state

    # -- heartbeat loop --------------------------------------------------------

    def on_heartbeat(self, engine: SimulationEngine, now: float) -> None:
        """One heartbeat sweep: observe, log transitions, detect flapping."""
        self.report.heartbeats += 1
        config = self.config
        for node in self._nodes:  # fixed order: part of the replay contract
            rec = self._records[node.node_id]
            observed_down = node.failed
            if observed_down != rec.last_observed_down:
                rec.last_observed_down = observed_down
                rec.transitions.append(now)
                self.report.transitions_observed += 1
                if rec.state is HealthState.PROBATION and observed_down:
                    # Failed again while on probation: straight back in,
                    # with the escalated duration.
                    self.report.probation_failures += 1
                    self._quarantine(engine, node, now)
                    continue
            window_start = now - config.flap_window_s
            while rec.transitions and rec.transitions[0] < window_start:
                rec.transitions.popleft()
            if (
                rec.state is HealthState.HEALTHY
                and len(rec.transitions) >= config.flap_threshold
            ):
                self.report.flaps_detected += 1
                self._quarantine(engine, node, now)
            elif rec.state is HealthState.PROBATION and now >= rec.probation_until:
                rec.state = HealthState.HEALTHY
                rec.quarantine_count = 0
                self.report.probations_passed += 1

    # -- quarantine lifecycle ---------------------------------------------------

    def _quarantine(
        self, engine: SimulationEngine, node: ComputeNode, now: float
    ) -> None:
        rec = self._records[node.node_id]
        if self.journal_sink is not None:
            self.journal_sink(
                {"t": "quarantine", "node": node.node_id, "time": now,
                 "epoch": rec.epoch + 1, "count": rec.quarantine_count + 1}
            )
        if rec.quarantine_count > 0:
            self.report.re_quarantines += 1
        rec.quarantine_count += 1
        rec.state = HealthState.QUARANTINED
        rec.epoch += 1
        rec.transitions.clear()
        node.quarantined = True
        self.quarantine_residents[node.node_id] = frozenset(node.vms)
        self.report.quarantines += 1
        self.report.quarantined_nodes.append(node.node_id)
        duration = min(
            self.config.quarantine_max_s,
            self.config.quarantine_base_s
            * self.config.quarantine_backoff ** (rec.quarantine_count - 1),
        )
        if self.config.quarantine_jitter_s > 0:
            duration += float(self.rng.uniform(0, self.config.quarantine_jitter_s))
        engine.schedule(
            now + duration,
            QUARANTINE_END,
            node_id=node.node_id,
            epoch=rec.epoch,
        )
        self._update_bb_quarantine(node.building_block)

    def on_quarantine_end(
        self, engine: SimulationEngine, node_id: str, epoch: int
    ) -> None:
        """Probation gate: re-admit the node, or extend if it is still down."""
        rec = self._records[node_id]
        if rec.state is not HealthState.QUARANTINED or rec.epoch != epoch:
            return  # stale event from an earlier quarantine
        node = next(n for n in self._nodes if n.node_id == node_id)
        if node.failed:
            # Still hard-down at expiry: keep the fence, probe again later.
            if self.journal_sink is not None:
                self.journal_sink(
                    {"t": "quarantine-extend", "node": node_id,
                     "time": engine.now, "epoch": epoch}
                )
            engine.schedule(
                engine.now + self.config.quarantine_base_s,
                QUARANTINE_END,
                node_id=node_id,
                epoch=epoch,
            )
            return
        if self.journal_sink is not None:
            self.journal_sink(
                {"t": "readmit", "node": node_id, "time": engine.now,
                 "epoch": epoch}
            )
        node.quarantined = False
        self.quarantine_residents.pop(node_id, None)
        rec.state = HealthState.PROBATION
        rec.probation_until = engine.now + self.config.probation_s
        rec.transitions.clear()
        rec.last_observed_down = node.failed
        self.report.readmissions += 1
        self._update_bb_quarantine(node.building_block)

    def _update_bb_quarantine(self, bb_id: str) -> None:
        nodes = self._bb_nodes.get(bb_id, [])
        if not nodes:
            return
        fraction = sum(1 for n in nodes if n.quarantined) / len(nodes)
        was = bb_id in self.quarantined_bbs
        if fraction >= self.config.bb_quarantine_fraction:
            if not was:
                self.quarantined_bbs.add(bb_id)
                self.report.bb_quarantines += 1
        elif was:
            self.quarantined_bbs.discard(bb_id)
        if self.scheduler is not None:
            invalidate = getattr(self.scheduler, "invalidate_host", None)
            if invalidate is not None:
                invalidate(bb_id)

    # -- snapshot / restore -----------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able snapshot of all quarantine/flap bookkeeping."""
        return {
            "records": {
                node_id: {
                    "state": rec.state.value,
                    "last_observed_down": rec.last_observed_down,
                    "transitions": list(rec.transitions),
                    "quarantine_count": rec.quarantine_count,
                    "probation_until": rec.probation_until,
                    "epoch": rec.epoch,
                }
                for node_id, rec in sorted(self._records.items())
            },
            "quarantined_bbs": sorted(self.quarantined_bbs),
            "quarantine_residents": {
                node_id: sorted(vms)
                for node_id, vms in sorted(self.quarantine_residents.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate an :meth:`export_state` snapshot, re-fencing nodes.

        Node ``quarantined`` flags are re-applied to this service's
        region so the scheduler-visible fences match the snapshot.
        """
        for node_id, saved in state["records"].items():
            rec = self._records[node_id]
            rec.state = HealthState(saved["state"])
            rec.last_observed_down = bool(saved["last_observed_down"])
            rec.transitions = deque(float(t) for t in saved["transitions"])
            rec.quarantine_count = int(saved["quarantine_count"])
            rec.probation_until = float(saved["probation_until"])
            rec.epoch = int(saved["epoch"])
        self.quarantined_bbs = set(state["quarantined_bbs"])
        self.quarantine_residents = {
            node_id: frozenset(vms)
            for node_id, vms in state["quarantine_residents"].items()
        }
        for node in self._nodes:
            node.quarantined = (
                self._records[node.node_id].state is HealthState.QUARANTINED
            )
