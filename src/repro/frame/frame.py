"""Columnar table built on numpy arrays.

A :class:`Frame` is an ordered mapping of column name to a 1-D numpy array.
All columns share one length.  Operations never mutate in place unless the
method name says so; they return new frames sharing column arrays where safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable

import numpy as np

from repro.frame.groupby import GroupBy


def _as_column(values: Any, length: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D numpy array, broadcasting scalars."""
    if isinstance(values, np.ndarray):
        arr = values
    elif np.isscalar(values) or values is None:
        if length is None:
            raise ValueError("cannot broadcast a scalar without a known length")
        arr = np.full(length, values)
    else:
        values = list(values)
        if values and isinstance(values[0], str):
            arr = np.asarray(values, dtype=object)
        else:
            arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if length is not None and len(arr) != length:
        raise ValueError(f"column length {len(arr)} != frame length {length}")
    return arr


class Frame:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    columns:
        Mapping of column name to column data.  Scalars broadcast to the
        length of the first non-scalar column.
    """

    def __init__(self, columns: Mapping[str, Any] | None = None) -> None:
        self._columns: dict[str, np.ndarray] = {}
        if not columns:
            return
        length: int | None = None
        # First pass: find the length from any sized value.
        for value in columns.values():
            if hasattr(value, "__len__") and not isinstance(value, str):
                length = len(value)
                break
        for name, value in columns.items():
            arr = _as_column(value, length)
            if length is None:
                length = len(arr)
            self._columns[name] = arr

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "Frame":
        """Build a frame from an iterable of dict rows.

        Missing keys become ``None`` (object dtype columns).
        """
        rows = list(records)
        if not rows:
            return cls()
        names: list[str] = []
        seen: set[str] = set()
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        data: dict[str, list[Any]] = {name: [] for name in names}
        for row in rows:
            for name in names:
                data[name].append(row.get(name))
        return cls({name: values for name, values in data.items()})

    @classmethod
    def empty(cls, names: Sequence[str]) -> "Frame":
        """An empty frame with the given column names."""
        return cls({name: np.asarray([]) for name in names})

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self.names != other.names or len(self) != len(other):
            return False
        return all(
            np.array_equal(self._columns[n], other._columns[n]) for n in self.names
        )

    def __repr__(self) -> str:
        return f"Frame({len(self)} rows x {len(self._columns)} cols: {self.names})"

    @property
    def names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self._columns))

    def column(self, name: str) -> np.ndarray:
        """The column array for ``name`` (alias of ``frame[name]``)."""
        return self._columns[name]

    def row(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a plain dict."""
        return {name: col[index] for name, col in self._columns.items()}

    def rows(self) -> Iterable[dict[str, Any]]:
        """Iterate rows as dicts (slow path; prefer column math)."""
        for i in range(len(self)):
            yield self.row(i)

    def to_records(self) -> list[dict[str, Any]]:
        """All rows as a list of dicts."""
        return list(self.rows())

    # -- column-level edits (return new frames) -----------------------------

    def with_column(self, name: str, values: Any) -> "Frame":
        """A copy of this frame with column ``name`` added or replaced."""
        new = dict(self._columns)
        new[name] = _as_column(values, len(self) if self._columns else None)
        return Frame(new)

    def without(self, *names: str) -> "Frame":
        """A copy without the given columns."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"columns not present: {missing}")
        return Frame({n: c for n, c in self._columns.items() if n not in names})

    def select(self, names: Sequence[str]) -> "Frame":
        """A copy with only the given columns, in the given order."""
        return Frame({name: self._columns[name] for name in names})

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        """A copy with columns renamed per ``mapping``."""
        return Frame({mapping.get(n, n): c for n, c in self._columns.items()})

    # -- row-level operations ------------------------------------------------

    def take(self, indices: Any) -> "Frame":
        """Rows selected by an index array / list."""
        idx = np.asarray(indices)
        return Frame({n: c[idx] for n, c in self._columns.items()})

    def filter(self, mask: Any) -> "Frame":
        """Rows where the boolean ``mask`` is true."""
        m = np.asarray(mask, dtype=bool)
        if len(m) != len(self):
            raise ValueError(f"mask length {len(m)} != frame length {len(self)}")
        return Frame({n: c[m] for n, c in self._columns.items()})

    def where(self, predicate: Callable[[dict[str, Any]], bool]) -> "Frame":
        """Rows where ``predicate(row_dict)`` is true (slow path)."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.rows()), dtype=bool, count=len(self)
        )
        return self.filter(mask)

    def head(self, n: int = 5) -> "Frame":
        return self.take(np.arange(min(n, len(self))))

    def sort(self, by: str | Sequence[str], reverse: bool = False) -> "Frame":
        """Rows sorted by one or more columns (stable)."""
        keys = [by] if isinstance(by, str) else list(by)
        # np.lexsort sorts by the *last* key first, so reverse the key list.
        order = np.lexsort([self._sort_key(k) for k in reversed(keys)])
        if reverse:
            order = order[::-1]
        return self.take(order)

    def _sort_key(self, name: str) -> np.ndarray:
        col = self._columns[name]
        if col.dtype == object:
            return np.asarray([str(v) for v in col])
        return col

    def concat(self, other: "Frame") -> "Frame":
        """Rows of ``self`` followed by rows of ``other`` (same columns)."""
        if not self._columns:
            return other
        if not other._columns:
            return self
        if set(self.names) != set(other.names):
            raise ValueError(
                f"column mismatch: {sorted(self.names)} vs {sorted(other.names)}"
            )
        merged = {}
        for name in self.names:
            a, b = self._columns[name], other._columns[name]
            if a.dtype == object or b.dtype == object:
                merged[name] = np.asarray(list(a) + list(b), dtype=object)
            else:
                merged[name] = np.concatenate([a, b])
        return Frame(merged)

    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of a column."""
        col = self._columns[name]
        if col.dtype == object:
            return np.asarray(sorted({str(v) for v in col}), dtype=object)
        return np.unique(col)

    # -- group-by / join ------------------------------------------------------

    def groupby(self, by: str | Sequence[str]) -> GroupBy:
        """Group rows by one or more key columns."""
        keys = [by] if isinstance(by, str) else list(by)
        return GroupBy(self, keys)

    def join(self, other: "Frame", on: str, how: str = "inner") -> "Frame":
        """Join with ``other`` on column ``on``.

        Supports ``inner`` and ``left``.  Right-side key duplicates keep the
        first occurrence (lookup-join semantics — sufficient for enriching a
        fact table with dimension attributes).
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type: {how}")
        right_index: dict[Any, int] = {}
        right_keys = other._columns[on]
        for i in range(len(other) - 1, -1, -1):
            right_index[right_keys[i]] = i
        left_keys = self._columns[on]
        left_rows: list[int] = []
        right_rows: list[int] = []
        matched: list[bool] = []
        for i, key in enumerate(left_keys):
            j = right_index.get(key)
            if j is not None:
                left_rows.append(i)
                right_rows.append(j)
                matched.append(True)
            elif how == "left":
                left_rows.append(i)
                right_rows.append(-1)
                matched.append(False)
        out: dict[str, Any] = {}
        for name in self.names:
            out[name] = self._columns[name][np.asarray(left_rows, dtype=int)]
        matched_arr = np.asarray(matched, dtype=bool)
        for name in other.names:
            if name == on:
                continue
            col = other._columns[name]
            taken = col[np.asarray([max(j, 0) for j in right_rows], dtype=int)]
            if how == "left" and not matched_arr.all():
                taken = np.asarray(list(taken), dtype=object)
                taken[~matched_arr] = None
            out_name = name if name not in out else f"{name}_right"
            out[out_name] = taken
        return Frame(out)

    # -- convenience ---------------------------------------------------------

    def describe(self, name: str) -> dict[str, float]:
        """Summary statistics of a numeric column."""
        col = np.asarray(self._columns[name], dtype=float)
        if len(col) == 0:
            return {"count": 0}
        return {
            "count": float(len(col)),
            "mean": float(np.mean(col)),
            "std": float(np.std(col)),
            "min": float(np.min(col)),
            "p50": float(np.percentile(col, 50)),
            "p95": float(np.percentile(col, 95)),
            "max": float(np.max(col)),
        }
