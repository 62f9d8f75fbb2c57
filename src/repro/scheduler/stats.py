"""Canonical counter names shared by schedulers and the placement service.

Scheduler implementations and :class:`~repro.scheduler.placement.PlacementService`
each keep simple operation counters.  This module pins the canonical
vocabulary and provides one ``stats_of`` accessor a consumer can point
at either object without caring which it got.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Canonical counter keys for scheduling pipelines.
SCHEDULER_STAT_KEYS = ("requests", "placed", "failed", "retries")

#: Canonical counter keys for the placement service.
PLACEMENT_STAT_KEYS = ("claims", "releases", "moves", "failed")

def normalize_stats(
    raw: Mapping[str, int], keys: tuple[str, ...] | None = None
) -> dict[str, int]:
    """Return an int-valued copy of ``raw``.

    When ``keys`` is given, every canonical key is present in the result
    (missing counters default to 0) and other keys are preserved as-is.
    """
    out: dict[str, int] = {k: 0 for k in keys} if keys else {}
    for key, value in raw.items():
        out[key] = int(value)
    return out


def stats_of(obj: Any) -> dict[str, int]:
    """Canonical counter snapshot of a scheduler or placement service.

    Accepts anything exposing either a ``stats()`` method or a ``stats``
    mapping attribute and returns a normalized copy.
    """
    raw = obj.stats
    if callable(raw):
        raw = raw()
    if not isinstance(raw, Mapping):
        raise TypeError(f"{type(obj).__name__}.stats is not a counter mapping")
    return normalize_stats(raw)
