"""Input validation helpers used across the library.

These helpers fail loudly with actionable error messages instead of letting
malformed arrays propagate into numerical code.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def check_array(
    value,
    name: str = "array",
    dtype=np.float64,
    ndim: Optional[int] = None,
    min_samples: int = 0,
    allow_empty: bool = True,
) -> np.ndarray:
    """Convert ``value`` to a numpy array and validate its shape.

    Parameters
    ----------
    value:
        Array-like input.
    name:
        Name used in error messages.
    dtype:
        Target dtype (``None`` keeps the input dtype).
    ndim:
        Required number of dimensions, if any.
    min_samples:
        Minimum length along the first axis.
    allow_empty:
        Whether zero-length arrays are acceptable.
    """
    array = np.asarray(value, dtype=dtype)
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {array.ndim}")
    if not allow_empty and array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if array.ndim >= 1 and array.shape[0] < min_samples:
        raise ValueError(
            f"{name} must contain at least {min_samples} samples, got {array.shape[0]}"
        )
    return array


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Raise unless ``value`` is positive (strictly by default)."""
    value = float(value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str = "value") -> float:
    """Raise unless ``value`` lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def ensure_2d(value, name: str = "array") -> np.ndarray:
    """Coerce a 1-D array into a column matrix, keep 2-D arrays unchanged."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 1:
        return array.reshape(-1, 1)
    if array.ndim == 2:
        return array
    raise ValueError(f"{name} must be 1-D or 2-D, got {array.ndim} dimensions")


def check_consistent_length(*arrays: Sequence) -> int:
    """Verify all arrays share the same first-axis length and return it."""
    lengths = {len(array) for array in arrays if array is not None}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent sample counts: {sorted(lengths)}")
    if not lengths:
        raise ValueError("at least one array is required")
    return lengths.pop()


def check_fitted(obj, attributes: Tuple[str, ...]) -> None:
    """Raise ``RuntimeError`` unless every attribute in ``attributes`` is set."""
    missing = [attr for attr in attributes if getattr(obj, attr, None) is None]
    if missing:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted; call fit() before using it "
            f"(missing: {', '.join(missing)})"
        )
