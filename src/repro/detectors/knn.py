"""k-nearest-neighbour detectors.

The paper uses scikit-learn's ``KNeighborsClassifier`` with ``k=7``, uniform
weights, and the Minkowski metric with ``p=2`` (Appendix B).  This module
implements that classifier from scratch, plus an unsupervised distance-based
variant (mean distance to the k nearest benign neighbours) that needs no
malicious samples at training time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detectors.base import AnomalyDetector, ThresholdCalibrator
from repro.nn.functional import rowwise_matmul
from repro.utils.validation import check_array, check_consistent_length, check_fitted


def minkowski_distances(queries: np.ndarray, references: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Pairwise Minkowski distances between query and reference row vectors.

    Each query's row is independent of the batch it came in
    (:func:`~repro.nn.functional.rowwise_matmul`), so scoring windows one
    at a time, in chunks, or merged across serving lanes gives the same bits.
    """
    return _distances_from_powers(_minkowski_powers(queries, references, p), p)


def _minkowski_powers(queries: np.ndarray, references: np.ndarray, p: float) -> np.ndarray:
    """Pairwise ``sum |q - r| ** p`` (for ``p == 2`` the squared-expansion form).

    :func:`_distances_from_powers` turns them into distances with a monotone
    non-decreasing map, so ranking powers ranks distances.
    """
    queries = np.asarray(queries, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    if queries.ndim != 2 or references.ndim != 2:
        raise ValueError("queries and references must be 2-D")
    if queries.shape[1] != references.shape[1]:
        raise ValueError("queries and references must share the feature dimension")
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 2.0:
        # Squared-expansion form is far faster for the Euclidean case.
        query_norms = np.sum(queries**2, axis=1)[:, np.newaxis]
        reference_norms = np.sum(references**2, axis=1)[np.newaxis, :]
        powers = query_norms + reference_norms
        powers -= rowwise_matmul(2.0 * queries, references.T)
        return powers
    differences = np.abs(queries[:, np.newaxis, :] - references[np.newaxis, :, :])
    return np.sum(differences**p, axis=2)


def _distances_from_powers(powers: np.ndarray, p: float) -> np.ndarray:
    if p == 2.0:
        return np.sqrt(np.maximum(powers, 0.0))
    return np.power(powers, 1.0 / p)


class KNNClassifierDetector(AnomalyDetector):
    """Supervised kNN malicious-sample classifier (the paper's configuration).

    Parameters mirror scikit-learn's ``KNeighborsClassifier`` defaults used in
    the paper: ``n_neighbors=7``, uniform weights, Minkowski ``p=2``.

    The anomaly score is the fraction of the k nearest training neighbours
    labelled malicious; ``predict`` applies the usual majority vote.
    """

    name = "kNN"
    fit_cost_per_window = 15

    def __init__(
        self,
        n_neighbors: int = 7,
        p: float = 2.0,
        weights: str = "uniform",
        batch_size: int = 512,
    ):
        if n_neighbors <= 0:
            raise ValueError("n_neighbors must be positive")
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = int(n_neighbors)
        self.p = float(p)
        self.weights = weights
        self.batch_size = int(batch_size)
        self._train_features: Optional[np.ndarray] = None
        self._train_labels: Optional[np.ndarray] = None

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "KNNClassifierDetector":
        if labels is None:
            raise ValueError(
                "KNNClassifierDetector is supervised; provide labels (0 benign, 1 malicious)"
            )
        flat = self._flatten(windows)
        labels = check_array(labels, "labels", ndim=1)
        check_consistent_length(flat, labels)
        unique = set(np.unique(labels).tolist())
        if not unique <= {0.0, 1.0}:
            raise ValueError(f"labels must be binary 0/1, got {sorted(unique)}")
        self._train_features = self._fit_scaler(flat)
        self._train_labels = labels.astype(int)
        return self

    def _neighbor_votes(self, flat: np.ndarray) -> np.ndarray:
        check_fitted(self, ("_train_features",))
        scaled = self._apply_scaler(flat)
        k = min(self.n_neighbors, len(self._train_features))
        votes = np.empty(len(scaled))
        for start in range(0, len(scaled), self.batch_size):
            batch = scaled[start : start + self.batch_size]
            distances = minkowski_distances(batch, self._train_features, self.p)
            neighbor_index = np.argpartition(distances, k - 1, axis=1)[:, :k]
            neighbor_labels = self._train_labels[neighbor_index]
            if self.weights == "uniform":
                votes[start : start + len(batch)] = neighbor_labels.mean(axis=1)
            else:
                neighbor_distances = np.take_along_axis(distances, neighbor_index, axis=1)
                inverse = 1.0 / np.maximum(neighbor_distances, 1e-12)
                votes[start : start + len(batch)] = (
                    (neighbor_labels * inverse).sum(axis=1) / inverse.sum(axis=1)
                )
        return votes

    def scores(self, windows: np.ndarray) -> np.ndarray:
        return self._neighbor_votes(self._flatten(windows))

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return (self.scores(windows) >= 0.5).astype(int)


class KNNDistanceDetector(AnomalyDetector):
    """Unsupervised kNN detector: mean distance to the k nearest benign points.

    Fit only on benign windows; the decision threshold is calibrated as a
    quantile of the benign training scores.
    """

    name = "kNN-distance"

    def __init__(self, n_neighbors: int = 7, p: float = 2.0, quantile: float = 0.95, batch_size: int = 512):
        if n_neighbors <= 0:
            raise ValueError("n_neighbors must be positive")
        self.n_neighbors = int(n_neighbors)
        self.p = float(p)
        self.batch_size = int(batch_size)
        self.calibrator = ThresholdCalibrator(quantile=quantile)
        self._train_features: Optional[np.ndarray] = None

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "KNNDistanceDetector":
        flat = self._benign(self._flatten(windows), labels)
        self._train_features = self._fit_scaler(flat)
        self.calibrator.fit(self._training_scores())
        return self

    def _mean_knn_distance(self, scaled: np.ndarray, exclude_self: bool = False) -> np.ndarray:
        k = min(self.n_neighbors, len(self._train_features) - int(exclude_self))
        k = max(k, 1)
        result = np.empty(len(scaled))
        # Rank on the powers, finish only the k kept: the finishing map is
        # monotone non-decreasing, so the k values and their sorted order —
        # hence the mean's bits — equal those of sorting every distance.
        skip = int(exclude_self)  # the zero distance to the point itself
        last = min(k + skip, len(self._train_features)) - 1
        for start in range(0, len(scaled), self.batch_size):
            batch = scaled[start : start + self.batch_size]
            powers = _minkowski_powers(batch, self._train_features, self.p)
            powers.partition(last, axis=1)  # in place: the block is ours
            nearest = np.sort(powers[:, : last + 1], axis=1)
            distances = _distances_from_powers(nearest[:, skip:], self.p)
            result[start : start + len(batch)] = distances.mean(axis=1)
        return result

    def _training_scores(self) -> np.ndarray:
        return self._mean_knn_distance(self._train_features, exclude_self=True)

    def scores(self, windows: np.ndarray) -> np.ndarray:
        check_fitted(self, ("_train_features",))
        scaled = self._apply_scaler(self._flatten(windows))
        return self._mean_knn_distance(scaled)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return self.calibrator.predict(self.scores(windows))
