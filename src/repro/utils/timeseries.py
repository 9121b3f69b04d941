"""Time-series helpers: scaling, windowing and resampling."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_array, check_fitted, ensure_2d


class StandardScaler:
    """Feature-wise standardization to zero mean and unit variance."""

    def __init__(self, epsilon: float = 1e-8):
        self.epsilon = float(epsilon)
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, data) -> "StandardScaler":
        matrix = ensure_2d(data, "data")
        self.mean_ = matrix.mean(axis=0)
        self.std_ = matrix.std(axis=0)
        return self

    def transform(self, data) -> np.ndarray:
        check_fitted(self, ("mean_", "std_"))
        return self.transform_unchecked(ensure_2d(data, "data"))

    def transform_unchecked(self, matrix: np.ndarray) -> np.ndarray:
        """:meth:`transform` minus validation, for trusted hot-path callers.

        ``matrix`` must already be a fitted-width 2-D float array.  Kept next
        to :meth:`transform` so there is exactly one scaling formula — the
        serving fast path's bitwise-parity guarantee depends on that.
        """
        return (matrix - self.mean_) / (self.std_ + self.epsilon)

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)

    def inverse_transform(self, data) -> np.ndarray:
        check_fitted(self, ("mean_", "std_"))
        matrix = ensure_2d(data, "data")
        return matrix * (self.std_ + self.epsilon) + self.mean_


class MinMaxScaler:
    """Feature-wise rescaling into a target range (default ``[0, 1]``)."""

    def __init__(self, feature_range: Tuple[float, float] = (0.0, 1.0), epsilon: float = 1e-12):
        if feature_range[1] <= feature_range[0]:
            raise ValueError("feature_range upper bound must exceed lower bound")
        self.feature_range = (float(feature_range[0]), float(feature_range[1]))
        self.epsilon = float(epsilon)
        self.min_: Optional[np.ndarray] = None
        self.max_: Optional[np.ndarray] = None

    def fit(self, data) -> "MinMaxScaler":
        matrix = ensure_2d(data, "data")
        self.min_ = matrix.min(axis=0)
        self.max_ = matrix.max(axis=0)
        return self

    def transform(self, data) -> np.ndarray:
        check_fitted(self, ("min_", "max_"))
        matrix = ensure_2d(data, "data")
        low, high = self.feature_range
        span = np.maximum(self.max_ - self.min_, self.epsilon)
        scaled = (matrix - self.min_) / span
        return scaled * (high - low) + low

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)

    def inverse_transform(self, data) -> np.ndarray:
        check_fitted(self, ("min_", "max_"))
        matrix = ensure_2d(data, "data")
        low, high = self.feature_range
        span = np.maximum(self.max_ - self.min_, self.epsilon)
        unit = (matrix - low) / (high - low)
        return unit * span + self.min_


class SampleRing:
    """Fixed-capacity ring of the most recent samples of one stream.

    The O(1)-memory building block of the streaming serving layer: pushing a
    sample overwrites the oldest entry, and :meth:`window` returns the
    buffered history in time order.  The feature width is taken from the
    first pushed sample.
    """

    __slots__ = ("capacity", "_buffer", "_cursor", "_count")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._buffer: Optional[np.ndarray] = None
        self._cursor = 0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of valid buffered samples (at most ``capacity``)."""
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def push(self, sample: np.ndarray) -> None:
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim != 1:
            raise ValueError(f"sample must be a 1-D feature vector, got shape {sample.shape}")
        if self._buffer is None:
            self._buffer = np.zeros((self.capacity, len(sample)))
        self._buffer[self._cursor] = sample
        self._cursor = (self._cursor + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def _ordered(self, length: int) -> np.ndarray:
        start = self._cursor + self.capacity - length
        order = (start + np.arange(length)) % self.capacity
        return self._buffer[order]

    def window(self) -> Optional[np.ndarray]:
        """The full ``(capacity, features)`` history in time order, or None."""
        if not self.full:
            return None
        return self._ordered(self.capacity).copy()

    def tail_with(self, incoming: np.ndarray) -> Optional[np.ndarray]:
        """The window formed by the last ``capacity - 1`` samples plus ``incoming``.

        None until ``capacity - 1`` samples have been buffered.
        """
        if self._count < self.capacity - 1:
            return None
        incoming = np.asarray(incoming, dtype=np.float64)
        if self.capacity == 1:
            return incoming[np.newaxis].copy()
        return np.vstack([self._ordered(self.capacity - 1), incoming[np.newaxis]])

    def reset(self) -> None:
        self._buffer = None
        self._cursor = 0
        self._count = 0


def exponential_moving_average(series, alpha: float = 0.3) -> np.ndarray:
    """Smooth a 1-D series with an exponential moving average."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    values = check_array(series, "series", ndim=1)
    if values.size == 0:
        return values
    smoothed = np.empty_like(values)
    smoothed[0] = values[0]
    for index in range(1, len(values)):
        smoothed[index] = alpha * values[index] + (1.0 - alpha) * smoothed[index - 1]
    return smoothed


def resample_series(series, target_length: int) -> np.ndarray:
    """Linearly resample a 1-D series to ``target_length`` points."""
    if target_length <= 0:
        raise ValueError(f"target_length must be positive, got {target_length}")
    values = check_array(series, "series", ndim=1, allow_empty=False)
    if len(values) == 1:
        return np.full(target_length, values[0])
    source_positions = np.linspace(0.0, 1.0, num=len(values))
    target_positions = np.linspace(0.0, 1.0, num=target_length)
    return np.interp(target_positions, source_positions, values)


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation of a 1-D series up to ``max_lag`` (inclusive)."""
    values = check_array(series, "series", ndim=1, allow_empty=False)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    centered = values - values.mean()
    denominator = float(np.dot(centered, centered))
    if denominator == 0.0:
        return np.concatenate([[1.0], np.zeros(max_lag)])
    result = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag == 0:
            result[lag] = 1.0
        else:
            result[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denominator
    return result
