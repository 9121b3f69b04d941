"""Constraints on adversarially manipulated inputs.

The paper's threat model allows the adversary to manipulate only the CGM
measurements (intercepted over Bluetooth) and requires the manipulated values
to stay physiologically plausible:

* fasting scenario: manipulated CGM values in [125, 499] mg/dL,
* postprandial scenario: manipulated CGM values in [180, 499] mg/dL,

where 499 mg/dL is the highest glucose value reported in the OhioT1DM dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.cohort import CGM_COLUMN
from repro.glucose.states import (
    FASTING_HYPER_THRESHOLD,
    MAX_PLAUSIBLE_GLUCOSE,
    POSTPRANDIAL_HYPER_THRESHOLD,
    Scenario,
)


class Constraint:
    """Interface for admissibility checks and projections of candidate inputs.

    The scalar methods (:meth:`is_satisfied`, :meth:`project`) are the
    reference implementations.  The batched attack engine calls the vectorized
    twins (:meth:`satisfied_mask`, :meth:`project_batch`), whose defaults loop
    the scalar methods; hot-path constraints override them with fused array
    operations that are pinned to the scalar reference by
    ``tests/test_property_based.py``.
    """

    def is_satisfied(self, window: np.ndarray, original: np.ndarray) -> bool:
        """True when the candidate window is admissible."""
        raise NotImplementedError

    def project(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        """Return the closest admissible window to ``window``."""
        raise NotImplementedError

    def satisfied_mask(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        """Admissibility of a stack of candidates against one original window.

        ``windows`` has shape ``(n, history, features)``; returns a boolean
        array of length ``n`` equal to ``[is_satisfied(w, original) for w in
        windows]``.
        """
        windows = np.asarray(windows, dtype=np.float64)
        return np.fromiter(
            (self.is_satisfied(window, original) for window in windows),
            dtype=bool,
            count=len(windows),
        )

    def project_batch(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        """Project a stack of candidates against one original window.

        Equal to ``np.stack([project(w, original) for w in windows])``.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if len(windows) == 0:
            return windows.copy()
        return np.stack([self.project(window, original) for window in windows])


@dataclass
class GlucoseRangeConstraint(Constraint):
    """Manipulated CGM values must lie within a plausible hyperglycemic range.

    Only samples that the adversary actually modified are required to fall in
    ``[low, high]``; untouched samples keep their original (benign) values.

    Attributes
    ----------
    low, high:
        Bounds on manipulated CGM values in mg/dL.
    feature_column:
        Column of the CGM signal inside the feature window.
    tolerance:
        Numerical tolerance when deciding whether a sample was modified.
    """

    low: float
    high: float = MAX_PLAUSIBLE_GLUCOSE
    feature_column: int = CGM_COLUMN
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.low >= self.high:
            raise ValueError(f"low ({self.low}) must be below high ({self.high})")

    #: Same defaults as :func:`numpy.allclose`, used for the non-CGM channels.
    _RTOL = 1e-5
    _ATOL = 1e-8

    def _modified_mask(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        return (
            np.abs(window[:, self.feature_column] - original[:, self.feature_column])
            > self.tolerance
        )

    def is_satisfied(self, window: np.ndarray, original: np.ndarray) -> bool:
        # This runs once per candidate edge of every search depth — the
        # hottest non-model code in an attack campaign — so it is written as
        # two fused comparisons with no np.delete/np.allclose temporaries.
        window = np.asarray(window, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        if window.shape != original.shape:
            raise ValueError("window and original must have the same shape")
        # Only the CGM channel may be touched (allclose semantics elsewhere).
        close = np.abs(window - original) <= self._ATOL + self._RTOL * np.abs(original)
        close[:, self.feature_column] = True
        if not close.all():
            return False
        cgm = window[:, self.feature_column]
        modified = self._modified_mask(window, original)
        in_range = (cgm >= self.low) & (cgm <= self.high)
        return bool(np.all(in_range | ~modified))

    def project(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        # Restore every non-CGM channel the transformation may have touched.
        projected = original.copy()
        cgm = window[:, self.feature_column]
        modified = self._modified_mask(window, original)
        projected[:, self.feature_column] = np.where(
            modified, np.clip(cgm, self.low, self.high), cgm
        )
        return projected

    # ------------------------------------------------------------- batched twins
    def satisfied_mask(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        # Vectorized twin of is_satisfied: one fused pass over the whole
        # candidate stack of a search depth instead of one call per edge.
        windows = np.asarray(windows, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        if windows.shape[1:] != original.shape:
            raise ValueError("windows and original must have the same window shape")
        close = np.abs(windows - original) <= self._ATOL + self._RTOL * np.abs(original)
        close[:, :, self.feature_column] = True
        cgm = windows[:, :, self.feature_column]
        modified = np.abs(cgm - original[:, self.feature_column]) > self.tolerance
        in_range = (cgm >= self.low) & (cgm <= self.high)
        return close.all(axis=(1, 2)) & np.all(in_range | ~modified, axis=1)

    def project_batch(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        if windows.shape[1:] != original.shape:
            raise ValueError("windows and original must have the same window shape")
        projected = np.broadcast_to(original, windows.shape).copy()
        cgm = windows[:, :, self.feature_column]
        modified = np.abs(cgm - original[:, self.feature_column]) > self.tolerance
        projected[:, :, self.feature_column] = np.where(
            modified, np.clip(cgm, self.low, self.high), cgm
        )
        return projected


def constraint_for_scenario(scenario: Scenario) -> GlucoseRangeConstraint:
    """The paper's CGM manipulation constraint for a scenario."""
    if scenario == Scenario.FASTING:
        return GlucoseRangeConstraint(low=FASTING_HYPER_THRESHOLD)
    if scenario == Scenario.POSTPRANDIAL:
        return GlucoseRangeConstraint(low=POSTPRANDIAL_HYPER_THRESHOLD)
    raise ValueError(f"unknown scenario {scenario!r}")


@dataclass
class CompositeConstraint(Constraint):
    """Logical AND over several constraints (projection applies them in order)."""

    constraints: Sequence[Constraint]

    def is_satisfied(self, window: np.ndarray, original: np.ndarray) -> bool:
        return all(constraint.is_satisfied(window, original) for constraint in self.constraints)

    def project(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        projected = window
        for constraint in self.constraints:
            projected = constraint.project(projected, original)
        return projected

    def satisfied_mask(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        mask = np.ones(len(windows), dtype=bool)
        for constraint in self.constraints:
            mask &= constraint.satisfied_mask(windows, original)
        return mask

    def project_batch(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        projected = np.asarray(windows, dtype=np.float64)
        for constraint in self.constraints:
            projected = constraint.project_batch(projected, original)
        return projected


@dataclass
class MaxModifiedSamplesConstraint(Constraint):
    """Limit how many CGM samples within the window the adversary may modify.

    This models a stealthier adversary who cannot rewrite the whole Bluetooth
    stream without being noticed; it is used by the ablation benchmarks.
    """

    max_modified: int
    feature_column: int = CGM_COLUMN
    tolerance: float = 1e-9

    def _modified_mask(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        return (
            np.abs(window[:, self.feature_column] - original[:, self.feature_column])
            > self.tolerance
        )

    def is_satisfied(self, window: np.ndarray, original: np.ndarray) -> bool:
        return int(self._modified_mask(np.asarray(window), np.asarray(original)).sum()) <= self.max_modified

    def satisfied_mask(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        modified = (
            np.abs(windows[:, :, self.feature_column] - original[:, self.feature_column])
            > self.tolerance
        )
        return modified.sum(axis=1) <= self.max_modified

    def project(self, window: np.ndarray, original: np.ndarray) -> np.ndarray:
        window = np.array(window, dtype=np.float64, copy=True)
        original = np.asarray(original, dtype=np.float64)
        modified = np.where(self._modified_mask(window, original))[0]
        if len(modified) <= self.max_modified:
            return window
        # Keep the latest (most influential) modifications and revert the rest.
        # (The explicit zero case matters: modified[-0:] would keep everything.)
        keep = set(modified[-self.max_modified :]) if self.max_modified > 0 else set()
        for index in modified:
            if index not in keep:
                window[index, self.feature_column] = original[index, self.feature_column]
        return window

    def project_batch(self, windows: np.ndarray, original: np.ndarray) -> np.ndarray:
        # Vectorized twin of project: one fused pass over the whole candidate
        # stack.  "Keep the latest max_modified modifications" becomes a
        # suffix-count test — a modification survives iff at most
        # ``max_modified`` modifications exist from its position to the end
        # of the window (itself included).
        windows = np.array(windows, dtype=np.float64, copy=True)
        original = np.asarray(original, dtype=np.float64)
        if len(windows) == 0:
            return windows
        if windows.shape[1:] != original.shape:
            raise ValueError("windows and original must have the same window shape")
        original_cgm = original[:, self.feature_column]
        modified = np.abs(windows[:, :, self.feature_column] - original_cgm) > self.tolerance
        suffix_counts = np.cumsum(modified[:, ::-1], axis=1)[:, ::-1]
        revert = modified & (suffix_counts > self.max_modified)
        cgm = windows[:, :, self.feature_column]
        windows[:, :, self.feature_column] = np.where(
            revert, np.broadcast_to(original_cgm, cgm.shape), cgm
        )
        return windows
