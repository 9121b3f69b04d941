"""Batch invariance: a detector's score for a row never depends on its batch.

The serving scheduler merges every lane's rows into one ``predict`` per
stateless detector per tick, and the sharded fabric splits the same rows
across processes.  Both are legal only because each row's score is bitwise
the same whatever batch it is scored in.  Every property here splits a batch
at random points (single-row pieces drawn often) and requires the
concatenated piece scores to equal the full-batch scores byte for byte.

kNN and OC-SVM products go through :func:`repro.nn.functional.rowwise_matmul`
(fixed 8-row BLAS calls), which the first property pins over drawn shapes,
including ones where a plain float64 matmul rounds a row differently per
batch size.  The HMM uses no BLAS product.  The LSTM-VAE scores its batch
padded to whole 8-window blocks (:func:`repro.nn.functional.pad_rows`) in
one pass through the LSTM kernels, so its invariance also rests on how
OpenBLAS rounds full blocks of a larger batch; it is checked at hidden
sizes 8 to 32 (the repository serves 8, 12 and 16).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors import (
    GaussianHMMDetector,
    KNNClassifierDetector,
    KNNDistanceDetector,
    LSTMVAEDetector,
    OneClassSVMDetector,
)
from repro.nn.functional import rowwise_matmul

from tests.conftest import make_toy_windows


def _shuffled(seed: int, n_benign: int, n_malicious: int):
    windows, labels = make_toy_windows(n_benign, n_malicious, seed=seed)
    order = np.random.default_rng(seed).permutation(len(windows))
    return windows[order], labels[order]


TRAIN_WINDOWS, TRAIN_LABELS = _shuffled(3, 300, 100)
QUERIES = _shuffled(4, 450, 150)[0]


def _views(windows: np.ndarray, unit: str) -> np.ndarray:
    return windows[:, -1:, :] if unit == "sample" else windows


@st.composite
def split_batches(draw, max_rows: int = 80):
    """``(start, rows, cuts)``: a slice of :data:`QUERIES` and its cut points."""
    rows = draw(st.integers(1, max_rows))
    start = draw(st.integers(0, len(QUERIES) - rows))
    return start, rows, draw(cut_points(rows))


@st.composite
def cut_points(draw, rows: int):
    """Sorted cut points inside a ``rows``-row batch; often isolates one row."""
    cuts = set()
    if rows > 1:
        for _ in range(draw(st.integers(0, 6))):
            cut = draw(st.integers(1, rows - 1))
            cuts.add(cut)
            if cut + 1 < rows and draw(st.booleans()):
                cuts.add(cut + 1)
    return sorted(cuts)


def assert_batch_invariant(score, views: np.ndarray, cuts) -> None:
    full = score(views)
    bounds = [0, *cuts, len(views)]
    pieces = np.concatenate([score(views[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    assert pieces.dtype == full.dtype and pieces.shape == full.shape
    assert pieces.tobytes() == full.tobytes(), f"cuts {cuts} changed a score"


@lru_cache(maxsize=None)
def knn_distance(references: int, unit: str) -> KNNDistanceDetector:
    return KNNDistanceDetector(n_neighbors=5).fit(_views(TRAIN_WINDOWS[:references], unit))


@lru_cache(maxsize=None)
def knn_classifier(references: int, unit: str, weights: str) -> KNNClassifierDetector:
    return KNNClassifierDetector(n_neighbors=5, weights=weights).fit(
        _views(TRAIN_WINDOWS[:references], unit), TRAIN_LABELS[:references]
    )


@lru_cache(maxsize=None)
def ocsvm(kernel: str, unit: str) -> OneClassSVMDetector:
    return OneClassSVMDetector(
        kernel=kernel, gamma="scale", coef0=0.5, nu=0.2, max_samples=150, seed=0
    ).fit(_views(TRAIN_WINDOWS[TRAIN_LABELS == 0], unit))


@lru_cache(maxsize=None)
def lstm_vae(hidden_size: int, latent_dim: int) -> LSTMVAEDetector:
    return LSTMVAEDetector(
        epochs=1, hidden_size=hidden_size, latent_dim=latent_dim, batch_size=32,
        max_samples=200, seed=0,
    ).fit(TRAIN_WINDOWS[TRAIN_LABELS == 0])


@lru_cache(maxsize=None)
def hmm(n_states: int) -> GaussianHMMDetector:
    return GaussianHMMDetector(n_states=n_states, n_iter=3, max_samples=200, seed=0).fit(
        TRAIN_WINDOWS[TRAIN_LABELS == 0]
    )


units = st.sampled_from(["sample", "window"])


class TestRowwiseMatmul:
    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([1, 4, 12, 48, 100]),
        columns=st.sampled_from([1, 3, 10, 37, 255, 257, 839]),
        batch=split_batches(max_rows=120),
    )
    def test_rows_independent_of_the_batch(self, width, columns, batch):
        generator = np.random.default_rng(width * 1000 + columns)
        left = generator.normal(size=(len(QUERIES), width))
        right = generator.normal(size=(width, columns))
        start, rows, cuts = batch
        assert_batch_invariant(
            lambda block: rowwise_matmul(block, right), left[start : start + rows], cuts
        )

    def test_equals_the_product(self):
        generator = np.random.default_rng(0)
        left, right = generator.normal(size=(13, 5)), generator.normal(size=(5, 7))
        np.testing.assert_allclose(rowwise_matmul(left, right), left @ right, rtol=1e-12)
        column = right[:, :1]
        assert rowwise_matmul(left, column).shape == (13, 1)


class TestDetectorBatchInvariance:
    @settings(max_examples=25, deadline=None)
    @given(references=st.integers(8, 400), unit=units, batch=split_batches())
    def test_knn_distance(self, references, unit, batch):
        start, rows, cuts = batch
        detector = knn_distance(references, unit)
        assert_batch_invariant(detector.scores, _views(QUERIES[start : start + rows], unit), cuts)

    @settings(max_examples=10, deadline=None)
    @given(unit=units, cuts=cut_points(513))
    def test_knn_distance_across_the_512_row_chunk(self, unit, cuts):
        detector = knn_distance(400, unit)
        assert detector.batch_size == 512
        views = _views(QUERIES[:513], unit)
        assert_batch_invariant(detector.scores, views, [512])
        assert_batch_invariant(detector.scores, views, cuts)

    @settings(max_examples=20, deadline=None)
    @given(
        references=st.integers(8, 400),
        unit=units,
        weights=st.sampled_from(["uniform", "distance"]),
        batch=split_batches(),
    )
    def test_knn_classifier(self, references, unit, weights, batch):
        start, rows, cuts = batch
        detector = knn_classifier(references, unit, weights)
        assert_batch_invariant(detector.scores, _views(QUERIES[start : start + rows], unit), cuts)

    @settings(max_examples=20, deadline=None)
    @given(
        kernel=st.sampled_from(["rbf", "sigmoid", "linear", "poly"]),
        unit=units,
        batch=split_batches(),
    )
    def test_one_class_svm(self, kernel, unit, batch):
        start, rows, cuts = batch
        detector = ocsvm(kernel, unit)
        assert_batch_invariant(detector.scores, _views(QUERIES[start : start + rows], unit), cuts)

    @settings(max_examples=15, deadline=None)
    @given(
        shape=st.sampled_from([(8, 3), (12, 3), (16, 3), (32, 4)]),
        batch=split_batches(max_rows=40),
    )
    def test_lstm_vae(self, shape, batch):
        start, rows, cuts = batch
        assert_batch_invariant(lstm_vae(*shape).scores, QUERIES[start : start + rows], cuts)

    @settings(max_examples=15, deadline=None)
    @given(n_states=st.sampled_from([3, 4]), batch=split_batches(max_rows=40))
    def test_gaussian_hmm(self, n_states, batch):
        start, rows, cuts = batch
        assert_batch_invariant(hmm(n_states).scores, QUERIES[start : start + rows], cuts)

    @pytest.mark.parametrize(
        "build, unit",
        [
            (lambda: knn_distance(400, "sample"), "sample"),
            (lambda: knn_distance(400, "window"), "window"),
            (lambda: knn_classifier(400, "window", "distance"), "window"),
            (lambda: ocsvm("rbf", "sample"), "sample"),
            (lambda: ocsvm("sigmoid", "window"), "window"),
            (lambda: lstm_vae(8, 3), "window"),
            (lambda: lstm_vae(12, 3), "window"),
            (lambda: lstm_vae(16, 3), "window"),
            (lambda: lstm_vae(32, 4), "window"),
            (lambda: hmm(4), "window"),
        ],
    )
    def test_every_row_alone(self, build, unit):
        """A tick of batch-1 lanes scores each window alone; unpadded, about
        one toy window in fifteen scores differently in a one-row call."""
        views = _views(QUERIES[:150], unit)
        assert_batch_invariant(build().scores, views, list(range(1, len(views))))
