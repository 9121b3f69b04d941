"""Strict JSON output for the files the repository writes.

Python's :mod:`json` writes non-finite floats as the bare tokens ``NaN`` /
``Infinity``, which standard JSON parsers reject.  :func:`dumps_strict` maps
every non-finite float to ``null`` and then dumps with ``allow_nan=False``,
so a non-finite value that slips past the mapping raises instead of
producing an unreadable file.
"""

from __future__ import annotations

import json
import math
from typing import Any


def strict_json_value(value: Any) -> Any:
    """``value`` with every non-finite float (nested anywhere) replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict_json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json_value(item) for item in value]
    return value


def dumps_strict(value: Any, **kwargs) -> str:
    """``json.dumps`` with non-finite floats written as ``null``."""
    return json.dumps(strict_json_value(value), allow_nan=False, **kwargs)
