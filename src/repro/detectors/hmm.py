"""Gaussian-emission HMM anomaly detector scored by window log-likelihood.

The cheap non-NN contrast point of the detector family (exemplar: the
hrl-assistive ``learning_hmm`` likelihood classifier): a ``n_states``-state
hidden Markov model with diagonal-Gaussian emissions is fitted to benign
windows by Baum-Welch (scaled forward-backward), and a window's anomaly score
is its negative log-likelihood under the model — an attacked window walks off
the benign state manifold and its forward probabilities collapse.

Scoring is deterministic and built from row-independent broadcast-reduce
kernels (no BLAS matmuls whose rounding depends on batch shape), so a
window's score is bitwise the same whatever batch it is scored in: the
serving fabric's cross-lane ``predict`` calls reproduce offline scoring
**bitwise**, and sharded serving layouts are bitwise-invariant
(``docs/detectors.md``).  Streams are scored statelessly, one batched
forward pass over each tick's windows: a per-stream forward band was slower
than this at 64 and 1024 streams.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.detectors.base import AnomalyDetector, ThresholdCalibrator
from repro.nn.fused import LOG_2PI
from repro.utils.rng import as_random_state
from repro.utils.validation import check_fitted

#: Emission-probability floor shared by every forward pass.  An extreme
#: anomaly can drive all state densities to exactly 0.0, which would poison
#: the forward recursion (and Baum-Welch) with NaNs; flooring keeps the
#: recursion finite — such a window scores log-likelihood ≈ −700/step, far
#: beyond any calibrated threshold.
EMISSION_FLOOR = 1e-300


class GaussianHMMDetector(AnomalyDetector):
    """HMM-likelihood detector fitted by Baum-Welch on benign windows.

    Parameters
    ----------
    sequence_length, n_features:
        Window geometry (paper defaults: 12 samples, 4 signals).
    n_states:
        Number of hidden states.
    n_iter:
        Baum-Welch iterations.  The per-iteration data log-likelihood is
        recorded in ``loglik_history_`` and is monotonically non-decreasing
        (the EM fixed-point property ``tests/test_detectors_vae_hmm.py``
        pins).
    var_floor:
        Lower bound added to every emission variance in the M-step — keeps
        densities finite when a state collapses onto near-constant frames.
    self_transition:
        Initial probability mass on the diagonal of the transition matrix
        (the rest is spread uniformly); benign physiology dwells in regimes,
        so a sticky initialization converges in fewer iterations.
    quantile:
        Benign-score quantile calibrating the decision threshold.
    seed:
        Seed for the emission-mean initialization (frames drawn from the
        training set).  Fitting is deterministic given the seed; scoring
        consumes no randomness at all.
    """

    name = "HMM"
    fit_cost_per_window = 45

    def __init__(
        self,
        sequence_length: int = 12,
        n_features: int = 4,
        n_states: int = 4,
        n_iter: int = 10,
        var_floor: float = 1e-3,
        self_transition: float = 0.8,
        quantile: float = 0.95,
        max_samples: int = 3000,
        seed=0,
    ):
        if n_states <= 0:
            raise ValueError("n_states must be positive")
        if n_iter <= 0:
            raise ValueError("n_iter must be positive")
        if var_floor <= 0:
            raise ValueError("var_floor must be positive")
        if not 0.0 < self_transition < 1.0:
            raise ValueError("self_transition must be in (0, 1)")
        self.sequence_length = int(sequence_length)
        self.n_features = int(n_features)
        self.n_states = int(n_states)
        self.n_iter = int(n_iter)
        self.var_floor = float(var_floor)
        self.self_transition = float(self_transition)
        self.max_samples = int(max_samples)
        self._rng = as_random_state(seed)
        self.calibrator = ThresholdCalibrator(quantile=quantile)
        self.startprob_: Optional[np.ndarray] = None
        self.transmat_: Optional[np.ndarray] = None
        self.means_: Optional[np.ndarray] = None
        self.vars_: Optional[np.ndarray] = None
        self.loglik_history_: Optional[List[float]] = None

    # ---------------------------------------------------------------- emissions
    def _emission_probs(self, frames: np.ndarray) -> np.ndarray:
        """Per-state diagonal-Gaussian densities for ``(..., n_features)`` frames.

        Pure elementwise/broadcast arithmetic — each frame's row of the
        result is computed independently of how many other frames share the
        call, which is what makes scores independent of batch composition.
        """
        diff = frames[..., np.newaxis, :] - self.means_
        log_prob = -0.5 * (
            self.n_features * LOG_2PI
            + np.log(self.vars_).sum(axis=-1)
            + (diff * diff / self.vars_).sum(axis=-1)
        )
        return np.maximum(np.exp(log_prob), EMISSION_FLOOR)

    @staticmethod
    def _advance(alphas: np.ndarray, transmat: np.ndarray, probs: np.ndarray):
        """One scaled forward step for a stack of alpha rows.

        ``alphas`` is ``(m, n_states)``; the transition product is the
        broadcast-reduce ``(alphas[:, :, None] * A).sum(axis=1)`` — NOT a
        BLAS matmul, whose rounding would depend on ``m`` and break the
        bitwise serving/offline/sharded equivalence.  Returns the
        normalized alphas and the per-row scale ``c`` (its log accumulates
        into the window log-likelihood).
        """
        advanced = (alphas[:, :, np.newaxis] * transmat).sum(axis=1) * probs
        scale = advanced.sum(axis=1)
        return advanced / scale[:, np.newaxis], scale

    # ----------------------------------------------------------------- training
    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None, obs=None) -> "GaussianHMMDetector":
        """Baum-Welch on benign windows; calibrate the NLL threshold.

        ``labels`` (optional) filters to benign rows (label 0).  ``obs``
        threads an :class:`~repro.obs.Observer` into the EM loop
        (``train.steps_total`` / ``train.step_batch`` per iteration); None
        records nothing and changes no arithmetic.
        """
        scaled = self._training_windows(windows, labels)
        count, timesteps, n_features = scaled.shape
        n_states = self.n_states

        frames = scaled.reshape(-1, n_features)
        chosen = self._rng.choice(len(frames), size=n_states, replace=False)
        self.means_ = frames[chosen].copy()
        self.vars_ = np.tile(frames.var(axis=0) + self.var_floor, (n_states, 1))
        self.startprob_ = np.full(n_states, 1.0 / n_states)
        off_diagonal = (1.0 - self.self_transition) / n_states
        self.transmat_ = np.full((n_states, n_states), off_diagonal) + (
            self.self_transition * np.eye(n_states)
        )
        self.transmat_ /= self.transmat_.sum(axis=1, keepdims=True)

        history: List[float] = []
        for _ in range(self.n_iter):
            loglik = self._em_iteration(scaled)
            history.append(loglik)
            if obs is not None:
                obs.registry.inc("train.steps_total")
                obs.registry.observe("train.step_batch", count)
        self.loglik_history_ = history

        benign_scores = -self._window_logliks(scaled)
        self.calibrator.fit(benign_scores)
        return self

    def _em_iteration(self, scaled: np.ndarray) -> float:
        """One scaled forward-backward E-step + M-step; returns the pre-update log-likelihood."""
        count, timesteps, n_features = scaled.shape
        n_states = self.n_states
        probs = self._emission_probs(scaled)  # (n, T, K)

        alphas = np.empty((count, timesteps, n_states))
        scales = np.empty((count, timesteps))
        alpha = self.startprob_ * probs[:, 0]
        scale = alpha.sum(axis=1)
        alphas[:, 0] = alpha / scale[:, np.newaxis]
        scales[:, 0] = scale
        for step in range(1, timesteps):
            alphas[:, step], scales[:, step] = self._advance(
                alphas[:, step - 1], self.transmat_, probs[:, step]
            )
        loglik = float(np.log(scales).sum())

        betas = np.empty((count, timesteps, n_states))
        betas[:, -1] = 1.0
        for step in range(timesteps - 2, -1, -1):
            downstream = probs[:, step + 1] * betas[:, step + 1]
            betas[:, step] = (self.transmat_ * downstream[:, np.newaxis, :]).sum(axis=2) / scales[
                :, step + 1, np.newaxis
            ]

        gamma = alphas * betas
        gamma /= gamma.sum(axis=2, keepdims=True)
        # xi[t, i, j] ∝ alpha_t[i] · A[i, j] · b_{t+1}[j] · beta_{t+1}[j]
        xi = (
            alphas[:, :-1, :, np.newaxis]
            * self.transmat_
            * (probs[:, 1:] * betas[:, 1:])[:, :, np.newaxis, :]
            / scales[:, 1:, np.newaxis, np.newaxis]
        )

        self.startprob_ = gamma[:, 0].mean(axis=0)
        self.startprob_ /= self.startprob_.sum()
        transition_counts = xi.sum(axis=(0, 1))
        self.transmat_ = transition_counts / transition_counts.sum(axis=1, keepdims=True)
        flat_gamma = gamma.reshape(-1, n_states)
        flat_frames = scaled.reshape(-1, n_features)
        weights = flat_gamma.sum(axis=0)
        self.means_ = (flat_gamma.T @ flat_frames) / weights[:, np.newaxis]
        centered = flat_frames[:, np.newaxis, :] - self.means_
        self.vars_ = (
            (flat_gamma[:, :, np.newaxis] * centered * centered).sum(axis=0)
            / weights[:, np.newaxis]
        ) + self.var_floor
        return loglik

    # ------------------------------------------------------------------ scoring
    def _window_logliks(self, scaled: np.ndarray) -> np.ndarray:
        """Scaled-forward log-likelihood of each ``(T, F)`` window, batched."""
        count, timesteps, _ = scaled.shape
        probs = self._emission_probs(scaled)
        logliks = np.zeros(count)
        alpha = self.startprob_ * probs[:, 0]
        scale = alpha.sum(axis=1)
        alpha = alpha / scale[:, np.newaxis]
        logliks += np.log(scale)
        for step in range(1, timesteps):
            alpha, scale = self._advance(alpha, self.transmat_, probs[:, step])
            logliks += np.log(scale)
        return logliks

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Negative window log-likelihood, larger = more anomalous.

        Deterministic, allocation-light, and row-independent: repeated calls,
        any batch composition, and every sharded layout return bitwise
        identical scores.
        """
        check_fitted(self, ("_scaler", "loglik_history_"))
        scaled = self._scale(np.asarray(windows, dtype=np.float64))
        return -self._window_logliks(scaled)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary decisions for raw windows: 1 = anomalous (see :meth:`scores`)."""
        return self.calibrator.predict(self.scores(windows))

    # -------------------------------------------------------------- addressing
    def state_hash(self) -> str:
        """Content address over HMM parameters, scaler, and threshold."""
        check_fitted(self, ("_scaler", "loglik_history_"))
        digest = hashlib.sha256()
        for array in (
            self.startprob_,
            self.transmat_,
            self.means_,
            self.vars_,
            self._scaler.mean_,
            self._scaler.std_,
        ):
            digest.update(str(np.asarray(array).shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(np.float64(self.calibrator.threshold_ or 0.0).tobytes())
        return digest.hexdigest()
