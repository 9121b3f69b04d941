"""One-class support vector machine (ν-OC-SVM) trained with an SMO-style solver.

Implements Schölkopf's one-class SVM dual:

    minimize    0.5 * αᵀ Q α
    subject to  0 ≤ α_i ≤ 1/(ν n),   Σ α_i = 1

with the kernel matrix ``Q_ij = k(x_i, x_j)``.  The decision function is
``f(x) = Σ α_i k(x_i, x) - ρ`` and a sample is flagged anomalous when
``f(x) < 0``.

The paper's configuration (Appendix B) uses the sigmoid kernel with
``coef0=10``, ``gamma='auto'``, and ``ν=0.5``; those are the defaults here.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.nn.functional import row_blocks, rowwise_matmul
from repro.utils.rng import as_random_state
from repro.utils.validation import check_fitted


def _resolve_gamma(gamma, n_features: int, data: np.ndarray) -> float:
    """Resolve 'auto' / 'scale' / float gamma the same way scikit-learn does."""
    if gamma == "auto":
        return 1.0 / n_features
    if gamma == "scale":
        variance = float(data.var())
        return 1.0 / (n_features * variance) if variance > 0 else 1.0 / n_features
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma


def kernel_matrix(
    left: np.ndarray,
    right: np.ndarray,
    kernel: str,
    gamma: float,
    coef0: float,
    degree: int,
    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.matmul,
) -> np.ndarray:
    """Compute the kernel matrix between two sample sets.

    ``matmul(left, right.T)`` forms the inner products.  Scoring passes
    :func:`~repro.nn.functional.rowwise_matmul`, so a sample's kernel row
    does not depend on the batch it came in.  Each kernel is finished in
    the buffer its first full-size result allocated, by the same operations
    in the same order as the plain expressions (for the sigmoid
    ``tanh(gamma * left @ right.T + coef0)``), so the bits are theirs.
    """
    if kernel == "linear":
        return matmul(left, right.T)
    if kernel == "rbf":
        values = np.sum(left**2, axis=1)[:, np.newaxis] + np.sum(right**2, axis=1)[np.newaxis, :]
        values -= matmul(2.0 * left, right.T)
        np.maximum(values, 0.0, out=values)
        values *= -gamma
        return np.exp(values, out=values)
    if kernel not in ("sigmoid", "poly"):
        raise ValueError(f"unknown kernel {kernel!r}; choose linear, rbf, sigmoid, or poly")
    values = matmul(left, right.T)
    values *= gamma
    values += coef0
    if kernel == "sigmoid":
        return np.tanh(values, out=values)
    values **= degree
    return values


class OneClassSVMDetector(AnomalyDetector):
    """ν-one-class SVM anomaly detector.

    Parameters
    ----------
    kernel, gamma, coef0, degree, nu, tol, max_iter:
        Standard OC-SVM hyper-parameters (defaults follow the paper's
        Appendix B).
    max_samples:
        Training windows are subsampled to at most this many points so the
        kernel matrix stays tractable on a laptop; the paper's "All Patients"
        configuration would otherwise build a ~10⁴×10⁴ matrix.
    seed:
        Seed for the subsampling and the SMO working-pair selection.
    """

    name = "OneClassSVM"
    fit_cost_per_window = 30

    def __init__(
        self,
        kernel: str = "sigmoid",
        gamma="auto",
        coef0: float = 10.0,
        degree: int = 3,
        nu: float = 0.5,
        tol: float = 1e-3,
        max_iter: int = 20000,
        max_samples: int = 1500,
        seed=0,
    ):
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {nu}")
        if max_samples <= 1:
            raise ValueError("max_samples must exceed 1")
        self.kernel = kernel
        self.gamma = gamma
        self.coef0 = float(coef0)
        self.degree = int(degree)
        self.nu = float(nu)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.max_samples = int(max_samples)
        self._rng = as_random_state(seed)

        self.support_vectors_: Optional[np.ndarray] = None
        self.dual_coef_: Optional[np.ndarray] = None
        self.rho_: Optional[float] = None
        self.gamma_: Optional[float] = None

    # ------------------------------------------------------------------ fitting
    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "OneClassSVMDetector":
        flat = self._benign(self._flatten(windows), labels)
        scaled = self._subsample(self._fit_scaler(flat))

        n_samples, n_features = scaled.shape
        self.gamma_ = _resolve_gamma(self.gamma, n_features, scaled)
        gram = kernel_matrix(scaled, scaled, self.kernel, self.gamma_, self.coef0, self.degree)

        alpha, rho = self._solve_dual(gram)
        support_mask = alpha > 1e-8
        self.support_vectors_ = scaled[support_mask]
        self.dual_coef_ = alpha[support_mask]
        self.rho_ = rho
        self._train_scaled = scaled
        return self

    def _solve_dual(self, gram: np.ndarray):
        """SMO-style pairwise coordinate descent on the OC-SVM dual."""
        n_samples = gram.shape[0]
        upper = 1.0 / (self.nu * n_samples)
        alpha = np.full(n_samples, 1.0 / n_samples)
        gradient = gram @ alpha  # gradient of 0.5 a'Qa is Qa

        rng = self._rng
        for iteration in range(self.max_iter):
            # Working-pair selection: most violating pair among a random subset
            # (full max-violating selection every iteration is O(n^2) overall).
            candidate_count = min(n_samples, 256)
            candidates = rng.choice(n_samples, size=candidate_count, replace=False)
            can_increase = candidates[alpha[candidates] < upper - 1e-12]
            can_decrease = candidates[alpha[candidates] > 1e-12]
            if len(can_increase) == 0 or len(can_decrease) == 0:
                break
            i = can_increase[int(np.argmin(gradient[can_increase]))]
            j = can_decrease[int(np.argmax(gradient[can_decrease]))]
            if i == j:
                continue
            violation = gradient[j] - gradient[i]
            if violation < self.tol and iteration > 50:
                break

            eta = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
            max_delta = min(upper - alpha[i], alpha[j])
            if max_delta <= 0:
                continue
            if eta > 1e-12:
                delta = min(max_delta, violation / eta)
            else:
                # Non-PSD kernels (e.g. sigmoid) can yield eta <= 0; move to the
                # box edge when that direction decreases the objective.
                delta = max_delta if violation > 0 else 0.0
            if delta <= 0:
                continue
            alpha[i] += delta
            alpha[j] -= delta
            gradient += delta * (gram[:, i] - gram[:, j])

        free_mask = (alpha > 1e-8) & (alpha < upper - 1e-8)
        if np.any(free_mask):
            rho = float(np.mean(gradient[free_mask]))
        else:
            rho = float(np.median(gradient[alpha > 1e-8])) if np.any(alpha > 1e-8) else 0.0
        return alpha, rho

    # ---------------------------------------------------------------- inference
    def decision_function(self, windows: np.ndarray) -> np.ndarray:
        """Signed distance to the learned boundary (negative = anomalous).

        Both products go through :func:`~repro.nn.functional.rowwise_matmul`
        (``kernel @ dual_coef_`` alone would be a gemv, which rounds a row
        differently at every batch size), so a window's score is the same
        in any batch.
        """
        check_fitted(self, ("support_vectors_", "dual_coef_", "rho_"))
        scaled = self._apply_scaler(self._flatten(windows))
        support = self.support_vectors_
        decision = np.empty(len(scaled))
        for rows in row_blocks(len(scaled), len(support) * support.itemsize):
            kernel = kernel_matrix(
                scaled[rows], support, self.kernel, self.gamma_, self.coef0, self.degree,
                matmul=rowwise_matmul,
            )
            decision[rows] = rowwise_matmul(kernel, self.dual_coef_[:, np.newaxis])[:, 0]
        decision -= self.rho_
        return decision

    def scores(self, windows: np.ndarray) -> np.ndarray:
        return -self.decision_function(windows)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return (self.decision_function(windows) < 0.0).astype(int)
