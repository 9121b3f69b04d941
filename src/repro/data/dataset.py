"""Model-facing dataset views: forecasting windows and detection windows."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.data.cohort import CGM_COLUMN, Cohort, FEATURE_NAMES, PatientRecord
from repro.utils.timeseries import StandardScaler
from repro.utils.validation import check_array

#: Default forecasting history: 12 five-minute samples = one hour of context.
DEFAULT_HISTORY = 12

#: Default forecasting horizon: 6 five-minute samples = 30 minutes ahead,
#: the standard prediction horizon for OhioT1DM glucose forecasting.
DEFAULT_HORIZON = 6


class ForecastingDataset:
    """Supervised windows for glucose forecasting.

    Builds ``(history, n_features)`` input windows and scalar CGM targets
    ``horizon`` steps ahead, optionally pooled across several patients (this
    is how the paper's *aggregate* model is trained).

    Parameters
    ----------
    history:
        Number of past samples fed to the forecaster.
    horizon:
        Number of steps ahead of the window end that the target lies.
    """

    def __init__(self, history: int = DEFAULT_HISTORY, horizon: int = DEFAULT_HORIZON):
        if history <= 0 or horizon <= 0:
            raise ValueError("history and horizon must be positive")
        self.history = int(history)
        self.horizon = int(horizon)

    def window_count(self, length: int) -> int:
        """How many windows :meth:`windows_from_features` builds from ``length`` samples."""
        return max(0, length - self.history - self.horizon + 1)

    def windows_from_features(
        self, features: np.ndarray, patient_label: str = ""
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Build windows/targets/target-indices from a raw feature matrix."""
        features = check_array(features, "features", ndim=2)
        count = self.window_count(features.shape[0])
        if count == 0:
            return (
                np.empty((0, self.history, features.shape[1])),
                np.empty((0,)),
                [],
            )
        windows = []
        targets = []
        target_indices = []
        for start in range(count):
            end = start + self.history
            target_index = end + self.horizon - 1
            windows.append(features[start:end])
            targets.append(features[target_index, CGM_COLUMN])
            target_indices.append(target_index)
        return np.stack(windows), np.asarray(targets), target_indices

    def from_record(
        self, record: PatientRecord, split: str = "train"
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Build windows for a single patient record."""
        return self.windows_from_features(record.features(split), record.label)

    def from_cohort(
        self, cohort: Cohort, split: str = "train"
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Pool windows from every patient in the cohort (aggregate model)."""
        all_windows = []
        all_targets = []
        labels: List[str] = []
        for record in cohort:
            windows, targets, _ = self.from_record(record, split)
            if len(windows) == 0:
                continue
            all_windows.append(windows)
            all_targets.append(targets)
            labels.extend([record.label] * len(windows))
        if not all_windows:
            return np.empty((0, self.history, len(FEATURE_NAMES))), np.empty((0,)), []
        return np.concatenate(all_windows), np.concatenate(all_targets), labels


class WindowScaler:
    """Fit a feature-wise scaler on flattened windows and apply it to windows.

    The scaler is fit on the training windows only and reused for test and
    adversarial windows, which mirrors deployment (the attacker cannot change
    the model's normalization statistics).
    """

    def __init__(self):
        self._scaler = StandardScaler()
        self.n_features_: Optional[int] = None

    def fit(self, windows: np.ndarray) -> "WindowScaler":
        windows = check_array(windows, "windows", ndim=3)
        self.n_features_ = windows.shape[2]
        flat = windows.reshape(-1, self.n_features_)
        self._scaler.fit(flat)
        return self

    def transform(self, windows: np.ndarray) -> np.ndarray:
        windows = check_array(windows, "windows", ndim=3)
        if self.n_features_ is None:
            raise RuntimeError("WindowScaler is not fitted")
        flat = windows.reshape(-1, self.n_features_)
        return self._scaler.transform(flat).reshape(windows.shape)

    def fit_transform(self, windows: np.ndarray) -> np.ndarray:
        return self.fit(windows).transform(windows)

    def transform_samples_unchecked(self, samples: np.ndarray) -> np.ndarray:
        """Scale raw ``(n, features)`` samples with the fitted window statistics.

        Window scaling is feature-wise over flattened rows, so scaling a sample
        once at arrival is numerically identical to scaling it inside every
        window it later appears in — the invariant the streaming serving path
        relies on to do O(1) scaling work per tick.  Inputs are not
        validated: callers pass a float64 ``(n, n_features)`` array (see
        ``GlucosePredictor.push_stream``).
        """
        return self._scaler.transform_unchecked(samples)

    def signature(self) -> bytes:
        """Bytes fingerprinting the fitted statistics (for model-identity hashing)."""
        if self.n_features_ is None:
            raise RuntimeError("WindowScaler is not fitted")
        return (
            np.ascontiguousarray(self._scaler.mean_).tobytes()
            + np.ascontiguousarray(self._scaler.std_).tobytes()
        )

    @property
    def cgm_mean(self) -> float:
        return float(self._scaler.mean_[CGM_COLUMN])

    @property
    def cgm_std(self) -> float:
        return float(self._scaler.std_[CGM_COLUMN])

    @property
    def target_scale(self) -> float:
        """The CGM divisor of :meth:`scale_target` (standard deviation plus a guard)."""
        return self.cgm_std + 1e-8

    def scale_target(self, targets: np.ndarray) -> np.ndarray:
        """Scale CGM targets with the CGM channel statistics."""
        return (np.asarray(targets, dtype=np.float64) - self.cgm_mean) / self.target_scale

    def unscale_target(self, scaled: np.ndarray) -> np.ndarray:
        """Invert :meth:`scale_target`."""
        return np.asarray(scaled, dtype=np.float64) * self.target_scale + self.cgm_mean


def flatten_windows(windows: np.ndarray) -> np.ndarray:
    """Flatten ``(n, T, F)`` windows into ``(n, T*F)`` vectors for kNN/OCSVM."""
    windows = check_array(windows, "windows", ndim=3)
    return windows.reshape(windows.shape[0], -1)
