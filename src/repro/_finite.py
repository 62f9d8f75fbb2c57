"""The one finiteness check for the configuration dataclasses."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


def require_finite(config: object) -> None:
    """Reject the first numeric field of dataclass ``config`` that is inf or NaN.

    An infinite rate or interval never stops scheduling events, and NaN
    passes every range check (all its comparisons are false), so configs
    call this before their range checks.
    """
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")
