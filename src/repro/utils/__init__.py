"""Shared utilities: seeded randomness, validation, and time-series helpers."""

from repro.utils.rng import RandomState
from repro.utils.validation import (
    check_array,
    check_positive,
    check_probability,
    ensure_2d,
)
from repro.utils.timeseries import (
    StandardScaler,
    MinMaxScaler,
    SampleRing,
    sliding_windows,
    exponential_moving_average,
    resample_series,
)

__all__ = [
    "RandomState",
    "check_array",
    "check_positive",
    "check_probability",
    "ensure_2d",
    "StandardScaler",
    "MinMaxScaler",
    "SampleRing",
    "sliding_windows",
    "exponential_moving_average",
    "resample_series",
]
