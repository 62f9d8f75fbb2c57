"""Minimal deterministic discrete-event engine.

Events are ordered by (time, sequence number), so same-time events run in
scheduling order and replays are exactly reproducible.  The heap holds
``(time, seq, event)`` tuples: ``seq`` is unique, so the tuple comparison,
which runs in C, never reaches the event.  Handlers are registered per
event kind; a handler may schedule further events.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Event:
    """A scheduled simulation event."""

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: dict[str, Any] = field(compare=False, default_factory=dict)


Handler = Callable[["SimulationEngine", Event], None]


class SimulationEngine:
    """Priority-queue event loop with per-kind handlers."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._handlers: dict[str, Handler] = {}
        #: Per-kind index of queued events (seq → event), maintained by
        #: schedule/step so iter_pending(kind) is O(pending of that kind)
        #: instead of a full-queue scan — runner/faults poll it every tick.
        self._pending_by_kind: dict[str, dict[int, Event]] = {}
        self.now = start_time
        self.processed = 0
        #: Optional write-ahead hook: called with a JSON-able record for
        #: every sim-clock advance (one per dispatched event), *before*
        #: the handler runs — the clock position is durable even if the
        #: handler dies mid-flight.  None keeps the hot loop branch-cheap.
        self.journal_sink: Callable[[dict], None] | None = None

    def on(self, kind: str, handler: Handler) -> None:
        """Register the handler for an event kind (one handler per kind)."""
        if kind in self._handlers:
            raise ValueError(f"handler already registered for {kind!r}")
        self._handlers[kind] = handler

    def schedule(self, time: float, kind: str, **payload: Any) -> Event:
        """Enqueue an event.

        ``time == self.now`` is explicitly allowed: the event runs after the
        currently executing handler, in scheduling order (same-time FIFO).
        Past-dated times (a negative delay relative to ``now``) and NaN
        times are errors — NaN would silently corrupt the heap ordering.
        """
        if math.isnan(time):
            raise ValueError(f"cannot schedule {kind!r} at NaN time")
        if time < self.now:
            raise ValueError(
                f"cannot schedule {kind!r} at {time} before current time "
                f"{self.now} (negative delay)"
            )
        seq = next(self._seq)
        event = Event(time=time, seq=seq, kind=kind, payload=payload)
        heapq.heappush(self._queue, (time, seq, event))
        index = self._pending_by_kind.get(kind)
        if index is None:
            index = self._pending_by_kind[kind] = {}
        index[seq] = event
        return event

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def iter_pending(self, kind: str | None = None) -> list[Event]:
        """Snapshot of queued events (optionally one kind), unordered.

        Used by the invariant checker to verify that every ERROR VM still
        has a recovery event in flight; the heap's internal order is not
        meaningful, so callers must not rely on it.
        """
        if kind is None:
            return [entry[2] for entry in self._queue]
        index = self._pending_by_kind.get(kind)
        return list(index.values()) if index else []

    def step(self) -> Event | None:
        """Process one event; returns it, or None when the queue is empty."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)[2]
        del self._pending_by_kind[event.kind][event.seq]
        self.now = event.time
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise KeyError(f"no handler registered for event kind {event.kind!r}")
        if self.journal_sink is not None:
            self.journal_sink(
                {"t": "clock", "time": event.time, "seq": event.seq,
                 "kind": event.kind}
            )
        handler(self, event)
        self.processed += 1
        return event

    def run_until(self, end_time: float) -> int:
        """Process events with ``time <= end_time``; returns the count."""
        n = 0
        while self._queue and self._queue[0][0] <= end_time:
            self.step()
            n += 1
        self.now = max(self.now, end_time)
        return n

    def run(self) -> int:
        """Drain the queue completely; returns the processed count."""
        n = 0
        while self.step() is not None:
            n += 1
        return n

    @property
    def pending(self) -> int:
        return len(self._queue)
