"""The one finiteness check for the configuration dataclasses."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


def require_finite(config: object, prefix: str = "") -> None:
    """Reject the first numeric field of dataclass ``config`` that is inf or NaN.

    An infinite rate or interval never stops scheduling events, and NaN
    passes any range check written as a plain comparison (all its
    comparisons are false), so configs call this before such checks.  The
    message names the field, after ``prefix``.
    """
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{prefix}{field.name} must be finite, got {value!r}")
