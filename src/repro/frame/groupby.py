"""Group-by aggregation for :class:`repro.frame.Frame`."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.frame.frame import Frame

AGGREGATIONS: dict[str, Callable[[np.ndarray], Any]] = {
    "sum": lambda a: np.sum(np.asarray(a, dtype=float)),
    "mean": lambda a: np.mean(np.asarray(a, dtype=float)),
    "min": lambda a: np.min(np.asarray(a, dtype=float)),
    "max": lambda a: np.max(np.asarray(a, dtype=float)),
    "std": lambda a: np.std(np.asarray(a, dtype=float)),
    "median": lambda a: np.median(np.asarray(a, dtype=float)),
    "p95": lambda a: np.percentile(np.asarray(a, dtype=float), 95),
    "count": len,
    "first": lambda a: a[0],
    "last": lambda a: a[-1],
}


class GroupBy:
    """Lazy grouping of a frame by one or more key columns."""

    def __init__(self, frame: Frame, keys: Sequence[str]) -> None:
        self._frame = frame
        self._keys = list(keys)
        self._groups: dict[tuple, list[int]] = {}
        key_cols = [frame[k] for k in self._keys]
        for i in range(len(frame)):
            key = tuple(col[i] for col in key_cols)
            self._groups.setdefault(key, []).append(i)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, Frame]:
        """Mapping of group key tuple to the group's sub-frame."""
        return {
            key: self._frame.take(np.asarray(rows, dtype=int))
            for key, rows in self._groups.items()
        }

    def agg(self, **specs: str | tuple[str, str] | Callable) -> Frame:
        """Aggregate each group into one output row.

        Each keyword is an output column.  Its value is either

        - ``"colname:aggname"`` — e.g. ``cpu="cpu_used:mean"``,
        - a ``(colname, aggname)`` tuple, or
        - a callable receiving the group sub-frame.
        """
        records: list[dict[str, Any]] = []
        for key, rows in sorted(self._groups.items(), key=lambda kv: _sortable(kv[0])):
            sub = self._frame.take(np.asarray(rows, dtype=int))
            record: dict[str, Any] = dict(zip(self._keys, key))
            for out_name, spec in specs.items():
                record[out_name] = _apply(sub, spec)
            records.append(record)
        return type(self._frame).from_records(records)

    def apply(self, func: Callable[[Frame], dict[str, Any]]) -> Frame:
        """Map each group's sub-frame through ``func`` returning a row dict."""
        records = []
        for key, rows in sorted(self._groups.items(), key=lambda kv: _sortable(kv[0])):
            sub = self._frame.take(np.asarray(rows, dtype=int))
            record = dict(zip(self._keys, key))
            record.update(func(sub))
            records.append(record)
        return type(self._frame).from_records(records)

    def size(self) -> Frame:
        """Row counts per group as a frame with a ``count`` column."""
        return self.agg(count=lambda sub: len(sub))


def _sortable(key: tuple) -> tuple:
    return tuple(str(k) if not isinstance(k, (int, float, np.number)) else k for k in key)


def _apply(sub: Frame, spec: str | tuple[str, str] | Callable) -> Any:
    if callable(spec):
        return spec(sub)
    if isinstance(spec, str):
        col_name, _, agg_name = spec.partition(":")
        if not agg_name:
            raise ValueError(f"aggregation spec {spec!r} must be 'column:agg'")
    else:
        col_name, agg_name = spec
    try:
        agg = AGGREGATIONS[agg_name]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {agg_name!r}; known: {sorted(AGGREGATIONS)}"
        ) from None
    return agg(sub[col_name])
