"""Common interface and helpers for anomaly detectors.

Every detector consumes feature windows of shape ``(n, history, features)``
(the same windows the forecaster sees) and produces:

* ``scores(windows)`` — a continuous anomaly score, larger = more anomalous,
* ``predict(windows)`` — binary labels, 1 = malicious/anomalous, 0 = benign.

Unsupervised detectors (OneClassSVM, MAD-GAN, distance-based kNN) are fit on
benign windows only and calibrate a score threshold on the benign training
distribution.  The supervised kNN classifier additionally accepts labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import flatten_windows
from repro.utils.timeseries import StandardScaler
from repro.utils.validation import check_array, check_fitted, check_probability


class AnomalyDetector:
    """Base class for anomaly detectors operating on feature windows.

    It also holds the training-set prologue every static detector shares:
    keep the benign rows (:meth:`_benign`), fit a feature scaler on them
    (:meth:`_fit_scaler` on flat vectors, :meth:`_scale` on windows), and
    cap the set at ``max_samples`` rows (:meth:`_subsample`).  Window
    detectors set ``sequence_length`` / ``n_features``; subsampling ones
    set ``max_samples`` and a ``_rng``.
    """

    #: Human-readable detector name used in experiment reports.
    name: str = "detector"
    #: Time to fit on one training window and score the experiment's test
    #: set, in microseconds per training window, measured per family on the
    #: ``paper`` workload (a family without a measurement keeps this
    #: default).  :class:`~repro.eval.SelectiveTrainingExperiment` costs
    #: each fit by it to balance its fits over the CPUs; only ratios matter.
    fit_cost_per_window: float = 100.0
    #: Feature scaler, fitted on the benign training set; None until fit.
    _scaler: Optional[StandardScaler] = None

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "AnomalyDetector":
        raise NotImplementedError

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Continuous anomaly scores (larger = more anomalous)."""
        raise NotImplementedError

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary predictions: 1 for anomalous/malicious, 0 for benign."""
        raise NotImplementedError

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _flatten(windows: np.ndarray) -> np.ndarray:
        windows = check_array(windows, "windows", ndim=3, min_samples=1)
        return flatten_windows(windows)

    # ------------------------------------------------------- training prologue
    @staticmethod
    def _benign(samples, labels: Optional[np.ndarray]):
        """The rows of ``samples`` labelled 0 (all of them when ``labels`` is None)."""
        if labels is None:
            return samples
        labels = check_array(labels, "labels", ndim=1)
        samples = np.asarray(samples)[labels == 0]
        if len(samples) == 0:
            raise ValueError("no benign samples (label 0) to fit on")
        return samples

    def _subsample(self, samples: np.ndarray) -> np.ndarray:
        """At most ``max_samples`` rows of ``samples``, drawn without replacement."""
        if len(samples) > self.max_samples:
            index = self._rng.choice(len(samples), size=self.max_samples, replace=False)
            samples = samples[index]
        return samples

    def _fit_scaler(self, flat: np.ndarray) -> np.ndarray:
        self._scaler = StandardScaler().fit(flat)
        return self._scaler.transform(flat)

    def _apply_scaler(self, flat: np.ndarray) -> np.ndarray:
        if self._scaler is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self._scaler.transform(flat)

    def _scale(self, windows: np.ndarray, fit: bool = False) -> np.ndarray:
        """Standardize ``(n, sequence_length, n_features)`` windows frame by frame."""
        windows = check_array(windows, "windows", ndim=3, min_samples=1)
        if windows.shape[1] != self.sequence_length or windows.shape[2] != self.n_features:
            raise ValueError(
                f"windows must have shape (n, {self.sequence_length}, {self.n_features}), "
                f"got {windows.shape}"
            )
        flat = windows.reshape(-1, self.n_features)
        scaled = self._fit_scaler(flat) if fit else self._apply_scaler(flat)
        return scaled.reshape(windows.shape)

    def _training_windows(self, windows, labels: Optional[np.ndarray]) -> np.ndarray:
        """The scaled benign training windows, capped at ``max_samples``; fits the scaler."""
        windows = self._benign(windows, labels)
        return self._subsample(self._scale(np.asarray(windows, dtype=np.float64), fit=True))


@dataclass
class ThresholdCalibrator:
    """Convert continuous anomaly scores into binary decisions.

    The threshold is the ``quantile``-th quantile of the benign training
    scores: a benign false-positive budget of ``1 - quantile`` is accepted in
    exchange for sensitivity to anomalous scores.
    """

    quantile: float = 0.95
    threshold_: Optional[float] = None

    def fit(self, benign_scores: np.ndarray) -> "ThresholdCalibrator":
        check_probability(self.quantile, "quantile")
        benign_scores = check_array(benign_scores, "benign_scores", ndim=1, allow_empty=False)
        self.threshold_ = float(np.quantile(benign_scores, self.quantile))
        return self

    def predict(self, scores: np.ndarray) -> np.ndarray:
        check_fitted(self, ("threshold_",))
        scores = check_array(scores, "scores", ndim=1)
        return (scores > self.threshold_).astype(int)
