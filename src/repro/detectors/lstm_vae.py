"""LSTM-VAE anomaly detector scored by reconstruction negative log-likelihood.

The architecture follows the hrl_anomaly_detection LSTM-VAE exemplar: an
encoder LSTM summarizes a window into mean/log-variance heads, a latent is
reparameterized (``z = mu + exp(0.5 · logvar) · eps``), and a decoder LSTM
unrolls the latent back into a per-timestep Gaussian (mean + log-variance per
feature).  Training maximizes the ELBO through the fused engine — the
:func:`repro.nn.fused.fused_vae_loss_head` loss head seeds a hand-written
backward chain through the reparameterization trick (see
:meth:`_VAECore.fused_backward_train`) — with a graph twin pinned within 1e-8
(``tests/test_detectors_vae_hmm.py``).

Scoring is **deterministic**: the latent is the encoder mean (no sampling),
so repeated calls are bitwise identical and — unlike MAD-GAN, whose inversion
draws per-call latents — the LSTM-VAE joins the serving fabric's bitwise
parity gates (``check_parity.run_detector_family_smoke`` and the
``family_chaos`` twin rows).  Streams are scored statelessly: each tick is
one :meth:`LSTMVAEDetector.predict` over every lane's windows, and a
window's score does not depend on its batch, so streaming scores are
bitwise the offline ``scores`` and sharded layouts are bitwise equal to
single-process serving at every shard count.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.detectors.base import AnomalyDetector, ThresholdCalibrator
from repro.nn import Adam, BatchIterator, Dense, FusedTrainer, LSTM, Module, Tensor
from repro.nn.functional import pad_rows
from repro.nn.fused import LOG_2PI, fused_vae_loss_head
from repro.nn.tensor import as_tensor, stack
from repro.utils.rng import as_random_state
from repro.utils.validation import check_fitted


class _VAECore(Module):
    """Encoder LSTM → mu/logvar heads → decoder LSTM → Gaussian output heads.

    The decoder input is the latent repeated across every timestep (the
    sequence-to-sequence form of the hrl exemplar), so the latent gradient is
    the sum of the per-timestep decoder input gradients — exactly what
    :meth:`fused_backward_train` accumulates.
    """

    def __init__(self, sequence_length: int, n_features: int, latent_dim: int, hidden_size: int, seed=None):
        super().__init__()
        rng = as_random_state(seed)
        (
            encoder_seed,
            mu_seed,
            logvar_seed,
            decoder_seed,
            out_mean_seed,
            out_logvar_seed,
        ) = rng.spawn(6)
        self.sequence_length = int(sequence_length)
        self.n_features = int(n_features)
        self.latent_dim = int(latent_dim)
        self.hidden_size = int(hidden_size)
        self.encoder = LSTM(n_features, hidden_size, return_sequences=False, seed=encoder_seed)
        self.mu_head = Dense(hidden_size, latent_dim, seed=mu_seed)
        self.logvar_head = Dense(hidden_size, latent_dim, seed=logvar_seed)
        self.decoder = LSTM(latent_dim, hidden_size, return_sequences=True, seed=decoder_seed)
        self.out_mean = Dense(hidden_size, n_features, seed=out_mean_seed)
        self.out_logvar = Dense(hidden_size, n_features, seed=out_logvar_seed)
        #: Noise draw for the next training forward, ``(batch, latent_dim)``.
        #: Set by the trainer before each step; both the fused and the graph
        #: twin consume the identical array, which is what makes their
        #: fixed-seed loss curves match step-for-step.
        self._pending_eps: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ graph
    def forward(self, inputs, eps: Optional[np.ndarray] = None):
        """Autodiff twin of :meth:`fused_forward_train` (training reference)."""
        inputs = as_tensor(inputs)
        batch, timesteps, _ = inputs.shape
        if eps is None:
            eps = self._pending_eps
        if eps is None:
            raise ValueError("the VAE forward needs a reparameterization draw (eps)")
        encoded = self.encoder(inputs)
        mu = self.mu_head(encoded)
        logvar = self.logvar_head(encoded)
        sigma = (logvar * 0.5).exp()
        z = mu + sigma * np.asarray(eps, dtype=np.float64)
        # Repeating the latent across timesteps via stack makes its gradient
        # the sum over timesteps — mirrored by the fused path's axis-1 sum.
        z_sequence = stack([z] * timesteps, axis=1)
        decoded = self.decoder(z_sequence)
        flat = decoded.reshape(batch * timesteps, self.hidden_size)
        recon_mean = self.out_mean(flat).reshape(batch, timesteps, self.n_features)
        recon_logvar = self.out_logvar(flat).reshape(batch, timesteps, self.n_features)
        return recon_mean, recon_logvar, mu, logvar

    # ------------------------------------------------------------------ fused
    def fused_forward_train(self, inputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError(
                f"VAE expects inputs of shape (batch, time, features), got {inputs.shape}"
            )
        batch, timesteps, _ = inputs.shape
        eps = self._pending_eps
        if eps is None:
            raise ValueError("the VAE forward needs a reparameterization draw (eps)")
        eps = np.asarray(eps, dtype=np.float64)
        if eps.shape != (batch, self.latent_dim):
            raise ValueError(
                f"eps must have shape ({batch}, {self.latent_dim}), got {eps.shape}"
            )
        encoded, encoder_cache = self.encoder.fused_forward_train(inputs)
        mu, mu_cache = self.mu_head.fused_forward_train(encoded)
        logvar, logvar_cache = self.logvar_head.fused_forward_train(encoded)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps
        z_sequence = np.repeat(z[:, np.newaxis, :], timesteps, axis=1)
        decoded, decoder_cache = self.decoder.fused_forward_train(z_sequence)
        flat = decoded.reshape(batch * timesteps, self.hidden_size)
        recon_mean_flat, mean_cache = self.out_mean.fused_forward_train(flat)
        recon_logvar_flat, out_logvar_cache = self.out_logvar.fused_forward_train(flat)
        recon_mean = recon_mean_flat.reshape(batch, timesteps, self.n_features)
        recon_logvar = recon_logvar_flat.reshape(batch, timesteps, self.n_features)
        cache = (
            encoder_cache,
            mu_cache,
            logvar_cache,
            decoder_cache,
            mean_cache,
            out_logvar_cache,
            sigma,
            eps,
            (batch, timesteps),
        )
        return (recon_mean, recon_logvar, mu, logvar), cache

    def fused_backward_train(self, grad_output, cache) -> np.ndarray:
        (
            encoder_cache,
            mu_cache,
            logvar_cache,
            decoder_cache,
            mean_cache,
            out_logvar_cache,
            sigma,
            eps,
            (batch, timesteps),
        ) = cache
        d_recon_mean, d_recon_logvar, d_mu_direct, d_logvar_direct = grad_output
        flat_shape = (batch * timesteps, self.n_features)
        d_flat = self.out_mean.fused_backward_train(
            np.asarray(d_recon_mean, dtype=np.float64).reshape(flat_shape), mean_cache
        )
        d_flat = d_flat + self.out_logvar.fused_backward_train(
            np.asarray(d_recon_logvar, dtype=np.float64).reshape(flat_shape),
            out_logvar_cache,
        )
        d_decoded = d_flat.reshape(batch, timesteps, self.hidden_size)
        d_z_sequence = self.decoder.fused_backward_train(d_decoded, decoder_cache)
        d_z = d_z_sequence.sum(axis=1)
        # Reparameterization backward: z = mu + exp(0.5 · logvar) · eps, so
        # d_mu gets d_z directly and d_logvar gets d_z · eps · 0.5 · sigma;
        # the loss head's direct KL gradients ride on top.
        d_mu = d_z + np.asarray(d_mu_direct, dtype=np.float64)
        d_logvar = d_z * eps * (0.5 * sigma) + np.asarray(d_logvar_direct, dtype=np.float64)
        d_encoded = self.mu_head.fused_backward_train(d_mu, mu_cache)
        d_encoded = d_encoded + self.logvar_head.fused_backward_train(d_logvar, logvar_cache)
        return self.encoder.fused_backward_train(d_encoded, encoder_cache)


class LSTMVAEDetector(AnomalyDetector):
    """LSTM-VAE detector: per-window reconstruction NLL under the decoder Gaussian.

    Parameters
    ----------
    sequence_length, n_features:
        Window geometry (paper defaults: 12 samples, 4 signals).
    latent_dim, hidden_size:
        Bottleneck and LSTM widths.
    epochs, batch_size, learning_rate:
        ELBO training hyper-parameters (Adam, gradient clip 5.0 — the same
        budget the MAD-GAN twins train under).
    beta:
        KL weight in the ELBO (``loss = NLL + beta · KL``).
    quantile:
        Benign-score quantile calibrating the decision threshold.
    seed:
        Seed for weights, reparameterization draws, batching, subsampling.

    :meth:`fit` trains through :class:`FusedTrainer` with the hand-written
    backward chain; :meth:`fit_graph` is the autodiff reference twin.  Both
    consume identical reparameterization draws, so their fixed-seed loss
    curves match step-for-step and their gradients agree within 1e-8.
    Scoring is graph-free and deterministic (latent = encoder mean).

    The anomaly score of a window is the **max over timesteps** of the mean
    per-feature Gaussian NLL — like MAD-GAN's max-over-timesteps
    reconstruction error, a manipulation localized in the trailing samples is
    not diluted by the well-reconstructed rest of the window.
    """

    name = "LSTM-VAE"
    fit_cost_per_window = 120

    def __init__(
        self,
        sequence_length: int = 12,
        n_features: int = 4,
        latent_dim: int = 3,
        hidden_size: int = 16,
        epochs: int = 15,
        batch_size: int = 64,
        learning_rate: float = 0.005,
        beta: float = 1.0,
        quantile: float = 0.95,
        max_samples: int = 3000,
        seed=0,
    ):
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.sequence_length = int(sequence_length)
        self.n_features = int(n_features)
        self.latent_dim = int(latent_dim)
        self.hidden_size = int(hidden_size)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.beta = float(beta)
        self.max_samples = int(max_samples)
        self._rng = as_random_state(seed)
        core_seed = self._rng.spawn(1)[0]
        self._core = _VAECore(
            self.sequence_length, self.n_features, self.latent_dim, self.hidden_size, seed=core_seed
        )
        self.calibrator = ThresholdCalibrator(quantile=quantile)
        self.history_: Optional[List[float]] = None

    # ----------------------------------------------------------------- training
    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None, obs=None) -> "LSTMVAEDetector":
        """Train the ELBO on benign windows; calibrate the NLL threshold.

        ``labels`` (optional) filters to benign rows (label 0) — the VAE is
        unsupervised and must never see malicious windows.  ``obs`` threads an
        :class:`~repro.obs.Observer` into the :class:`FusedTrainer` step loop
        (``train.steps_total`` / ``train.step_batch`` / ``train.step_seconds``
        / ``train.grad_buffers``); None records nothing.
        """
        return self._fit(
            windows,
            labels,
            lambda optimizer: FusedTrainer(
                self._core,
                optimizer,
                loss=fused_vae_loss_head(self.beta),
                gradient_clip=5.0,
                obs=obs,
            ).step,
        )

    def fit_graph(
        self, windows: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> "LSTMVAEDetector":
        """:meth:`fit` through the autodiff graph (reference/benchmark path)."""

        def make_step(optimizer):
            return lambda batch, _target: self._vae_step_graph(
                batch, self._core._pending_eps, optimizer
            )

        return self._fit(windows, labels, make_step)

    def _fit(self, windows, labels, make_step) -> "LSTMVAEDetector":
        """Shared training loop; ``make_step(optimizer)`` returns the step."""
        scaled = self._training_windows(windows, labels)

        optimizer = Adam(self._core.parameters(), learning_rate=self.learning_rate)
        step = make_step(optimizer)
        # A fit on fewer windows than one batch trains one batch per epoch.
        iterator = BatchIterator(
            scaled,
            batch_size=min(self.batch_size, len(scaled)),
            shuffle=True,
            drop_last=True,
            seed=self._rng.derive("batches"),
        )
        history: List[float] = []
        for _ in range(self.epochs):
            losses = []
            for batch, _ in iterator:
                # One reparameterization draw per step, consumed identically
                # by the fused and graph twins (fixed-seed curve parity).
                eps = self._rng.normal(0.0, 1.0, size=(len(batch), self.latent_dim))
                self._core._pending_eps = eps
                losses.append(step(batch, batch))
            history.append(float(np.mean(losses)))
        self._core._pending_eps = None
        self.history_ = history

        benign_scores = self._nll_scores(scaled)
        self.calibrator.fit(benign_scores)
        return self

    def _vae_step_graph(self, batch: np.ndarray, eps: np.ndarray, optimizer) -> float:
        """One ELBO step through the autodiff graph (reference twin).

        Mirrors :meth:`FusedTrainer.step` stage for stage — zero-grad,
        forward, loss, backward, clip, update — with the loss built from the
        same elementwise-mean reductions as the fused head.
        """
        optimizer.zero_grad()
        recon_mean, recon_logvar, mu, logvar = self._core(Tensor(batch), eps)
        target = np.asarray(batch, dtype=np.float64)
        difference = recon_mean - target
        inv_var = (recon_logvar * -1.0).exp()
        nll = (recon_logvar + difference * difference * inv_var + LOG_2PI).sum() * (
            0.5 / recon_mean.size
        )
        kl = ((mu * mu) + logvar.exp() - logvar - 1.0).sum() * (0.5 / mu.size)
        loss = nll + kl * self.beta
        loss.backward()
        optimizer.clip_gradients(5.0)
        optimizer.step()
        return float(loss.item())

    # ------------------------------------------------------------------ scoring
    def _encode_mean(self, scaled: np.ndarray) -> np.ndarray:
        """Deterministic encoder pass: the latent is the posterior mean."""
        encoded = self._core.encoder.fast_forward(scaled)
        return self._core.mu_head.fast_forward(encoded)

    def _decode_scores(self, scaled: np.ndarray, latent_mean: np.ndarray) -> np.ndarray:
        """Per-window NLL of ``scaled`` under the decoder Gaussian at ``latent_mean``."""
        count, timesteps, _ = scaled.shape
        z_sequence = np.repeat(latent_mean[:, np.newaxis, :], timesteps, axis=1)
        decoded = self._core.decoder.fast_forward(z_sequence)
        flat = decoded.reshape(count * timesteps, self.hidden_size)
        mean = self._core.out_mean.fast_forward(flat).reshape(scaled.shape)
        logvar = self._core.out_logvar.fast_forward(flat).reshape(scaled.shape)
        difference = scaled - mean
        nll = 0.5 * (logvar + difference * difference * np.exp(-logvar) + LOG_2PI)
        per_timestep = nll.mean(axis=2)
        # Max over timesteps: a manipulation typically touches only the
        # trailing samples of a window (same rationale as MAD-GAN).
        return per_timestep.max(axis=1)

    def _nll_scores(self, scaled: np.ndarray) -> np.ndarray:
        return self._decode_scores(scaled, self._encode_mean(scaled))

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruction-NLL anomaly scores, larger = more anomalous.

        Deterministic (latent = encoder mean, no sampling): repeated calls on
        the same windows are bitwise identical, and any two replicas scoring
        the same batch — e.g. sharded vs single-process serving of one lane —
        agree bitwise.  A window's score does not depend on its batch either:
        the batch runs padded to whole 8-window blocks
        (:func:`~repro.nn.functional.pad_rows`), so no window meets the gemv
        path or OpenBLAS's narrower tail kernels
        (``tests/test_detectors_batch_invariance.py`` pins the property).
        """
        check_fitted(self, ("_scaler", "history_"))
        scaled = self._scale(np.asarray(windows, dtype=np.float64))
        return self._nll_scores(pad_rows(scaled))[: len(scaled)]

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary decisions for raw windows: 1 = anomalous (see :meth:`scores`)."""
        return self.calibrator.predict(self.scores(windows))

    # -------------------------------------------------------------- addressing
    def state_hash(self) -> str:
        """Content address over weights, scaler, and calibrated threshold.

        Two fitted detectors share a hash exactly when they would score every
        window identically — the property the sharded fabric's pickle
        round-trip gates pin (``tests/test_serialization.py``).
        """
        check_fitted(self, ("_scaler", "history_"))
        digest = hashlib.sha256()
        digest.update(self._core.state_hash().encode())
        digest.update(np.ascontiguousarray(self._scaler.mean_).tobytes())
        digest.update(np.ascontiguousarray(self._scaler.std_).tobytes())
        digest.update(np.float64(self.calibrator.threshold_ or 0.0).tobytes())
        digest.update(np.float64(self.beta).tobytes())
        return digest.hexdigest()
