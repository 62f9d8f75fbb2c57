"""Span tracing from outside the program.

The tracer wraps public bound methods (as instance attributes) and module
functions of the objects one benchmark run builds, so nothing under
``src/`` changes.  Spans are aggregated in memory -- calls, inclusive
("busy") time, self time (busy minus the time covered by child spans) and,
for a few names, every duration for percentiles -- and reported once when
the run ends.
"""

from __future__ import annotations

import inspect
import math
from time import perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Span:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "busy", "self_time", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        #: Child-time accumulators, one per open span; index 0 is the root.
        self._stack: list[float] = [0.0]
        #: Open spans per group, so a group's busy time counts only its
        #: outermost spans (a read that calls another read is one read).
        self._group_depth: dict[str, int] = {}
        #: Per event: the VM a scheduler call placed, and the time spent in
        #: request-level scheduling calls (for node-fit rejects and the
        #: create path's time outside the scheduler).
        self.placed_vm: str | None = None
        self.request_time = 0.0
        self.outside_scheduler_s = 0.0

    # -- recording -------------------------------------------------------------

    def span(self, name: str, keep_durations: bool = False) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(keep_durations)
        return span

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, span: Span, duration: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += duration
        span.calls += 1
        span.busy += duration
        span.self_time += duration - child
        if span.durations is not None:
            span.durations.append(duration)

    def wrap(self, name, fn, keep_durations=False, group=None, on_result=None):
        """A callable that records a span named ``name`` around ``fn``."""
        span = self.span(name, keep_durations)
        group_span = self.span(group) if group else None
        stack = self._stack
        depth = self._group_depth
        close = self._close

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(span, group_span, group, fn)

        def wrapper(*args, **kwargs):
            if group_span is not None:
                depth[group] = depth.get(group, 0) + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                close(span, duration)
                if group_span is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        group_span.calls += 1
                        group_span.busy += duration
            if on_result is not None:
                on_result(args, kwargs, result, duration)
            return result

        return wrapper

    def _wrap_generator(self, span, group_span, group, fn):
        """Generators are timed across their ``next()`` steps only."""
        stack = self._stack
        depth = self._group_depth

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            outermost = group_span is not None and depth.get(group, 0) == 0
            if outermost:
                group_span.calls += 1
            span.calls += 1
            while True:
                if group_span is not None:
                    depth[group] = depth.get(group, 0) + 1
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - t0
                    child = stack.pop()
                    stack[-1] += duration
                    span.busy += duration
                    span.self_time += duration - child
                    if group_span is not None:
                        depth[group] -= 1
                        if outermost:
                            group_span.busy += duration
                yield item

        return wrapper

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper.

        ``owner`` is an instance (the wrapper shadows the bound method), a
        class (every instance, including ones the run creates later) or a
        module (callers that look the function up in that module).
        """
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def patch_engine(self, engine, keep_durations_for=()) -> None:
        """Record one span per dispatched event, named after its kind.

        ``SimulationEngine.run_until`` calls ``self.step()``, so an
        instance attribute is picked up by a running simulation.
        """
        step = engine.step
        stack = self._stack
        keep = frozenset(keep_durations_for)

        def traced_step():
            self.placed_vm = None
            self.request_time = 0.0
            stack.append(0.0)
            t0 = perf_counter()
            event = step()
            duration = perf_counter() - t0
            if event is None:
                stack.pop()
                return None
            self._close(self.span("event." + event.kind, event.kind in keep), duration)
            if event.kind in ("vm.create", "admission.retry"):
                self.outside_scheduler_s += duration - self.request_time
            return event

        engine.step = traced_step

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span is not None else 0

    def busy(self, name: str) -> float:
        span = self.spans.get(name)
        return span.busy if span is not None else 0.0

    def self_time(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_time if span is not None else 0.0

    def pct(self, name: str, q: float) -> float:
        span = self.spans.get(name)
        if span is None or not span.durations:
            return 0.0
        return percentile(span.durations, q)
