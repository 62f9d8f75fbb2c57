"""Minimal columnar data table used throughout the analysis pipeline.

The public SAP dataset ships as CSV files; the original authors analysed it
with pandas.  This environment has no pandas, so :mod:`repro.frame` provides
the small, typed subset of tabular operations the analyses need: column
selection, row filtering, group-by aggregation, sorting, joins, and CSV
round-tripping.  Columns are numpy arrays, so vectorised math works directly.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Frame": "frame",
    "GroupBy": "groupby",
    "read_csv": "csvio",
    "write_csv": "csvio",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
