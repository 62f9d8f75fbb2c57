"""One byte-stable reporting surface for every CLI artifact.

Every subsystem in this repo ends in a deterministic JSON report — the
fault report, the chaos summary, the verify report, the crash report,
the sweep report.  Historically each grew its own ``to_json`` and each
CLI hand-rolled its ``--out`` write, which made "byte-identical across
runs/workers/hosts" a per-subsystem promise instead of a structural one.

:class:`ReportBase` centralises the contract:

- :meth:`~ReportBase.canonical_json` — the one rendering every consumer
  agrees on: ``json.dumps(to_dict(), indent=2, sort_keys=True,
  allow_nan=False)`` plus exactly one trailing newline.  ``allow_nan``
  is off because NaN is not JSON and silently breaks ``cmp``-based CI
  gates;
- :meth:`~ReportBase.sha256` — the content address CI jobs compare;
- :meth:`~ReportBase.diff_against` — a unified diff against a prior
  report (object, text, or file), the vocabulary of every regression
  message in this repo;
- :meth:`~ReportBase.write` — the single ``--out`` writer: canonical
  bytes, atomic replace, so a killed CLI can never leave a half-report.

Concrete reports implement :meth:`to_dict` (already deterministic:
sorted collections, rounded floats, no wall-clock or host identity) and
inherit the rest.
"""

from __future__ import annotations

import hashlib
import json
from difflib import unified_diff
from pathlib import Path
from typing import Protocol, runtime_checkable


@runtime_checkable
class Report(Protocol):
    """Structural protocol: anything with a deterministic dict view."""

    def to_dict(self) -> dict: ...


def canonical_json(doc: dict) -> str:
    """The repo-wide canonical rendering of one report document."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def canonical_bytes(report: Report) -> bytes:
    """Canonical UTF-8 bytes of a report — what :func:`write_report` writes."""
    return canonical_json(report.to_dict()).encode("utf-8")


def report_sha256(report: Report) -> str:
    """Hex SHA-256 of the canonical bytes (the CI comparison handle)."""
    return hashlib.sha256(canonical_bytes(report)).hexdigest()


def report_diff(
    prior: "Report | str | bytes | Path", current: Report, *, context: int = 3
) -> str:
    """Unified diff from a prior report to ``current``; "" when identical.

    ``prior`` may be another report object, canonical-JSON text/bytes, or
    a path to a previously written report file.
    """
    if isinstance(prior, Path):
        prior_text = prior.read_text()
    elif isinstance(prior, bytes):
        prior_text = prior.decode("utf-8")
    elif isinstance(prior, str):
        prior_text = prior
    else:
        prior_text = canonical_json(prior.to_dict())
    current_text = canonical_json(current.to_dict())
    if prior_text == current_text:
        return ""
    return "".join(
        unified_diff(
            prior_text.splitlines(keepends=True),
            current_text.splitlines(keepends=True),
            fromfile="prior",
            tofile="current",
            n=context,
        )
    )


def write_report(report: Report, path: str | Path) -> Path:
    """Write canonical bytes with a power-safe atomic replace.

    Routed through :func:`repro.iofaults.layer.atomic_write_bytes`
    (IO points ``report.*``): temp file, fsync, ``os.replace``, parent
    directory fsync — a crash *or power cut* mid-write leaves either the
    old artifact or the complete new one, never a torn file, and any
    failure surfaces as a structured
    :class:`~repro.iofaults.layer.IoFaultError`.  The storage layer is
    imported here, not at the top, because most processes that build a
    report never write one.
    """
    from repro.iofaults.layer import atomic_write_bytes

    return atomic_write_bytes(
        Path(path), canonical_bytes(report), points="report"
    )


class ReportBase:
    """Mixin giving a report the canonical-bytes / hash / diff / write API.

    Subclasses provide :meth:`to_dict`; everything else is derived so no
    report can drift from the repo-wide byte-stability contract.
    """

    def to_dict(self) -> dict:  # pragma: no cover - always overridden
        raise NotImplementedError(
            f"{type(self).__name__} must implement to_dict()"
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def canonical_bytes(self) -> bytes:
        return canonical_bytes(self)

    def sha256(self) -> str:
        return report_sha256(self)

    def diff_against(
        self, prior: "Report | str | bytes | Path", *, context: int = 3
    ) -> str:
        """Unified diff from ``prior`` to this report; "" when identical."""
        return report_diff(prior, self, context=context)

    def write(self, path: str | Path) -> Path:
        """Write this report's canonical bytes atomically to ``path``."""
        return write_report(self, path)
