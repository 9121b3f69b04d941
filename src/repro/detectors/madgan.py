"""MAD-GAN: multivariate anomaly detection with a recurrent GAN.

Follows Li et al. (2019): an LSTM generator maps latent sequences to synthetic
multivariate windows, an LSTM discriminator separates real from generated
windows, and anomalies are scored with the *discrimination and reconstruction*
(DR) score — a convex combination of

* the reconstruction error after inverting the generator (finding the latent
  sequence whose generated window best matches the test window), and
* the discriminator's "fake" probability for the test window.

Hyper-parameters follow the paper's Appendix B (4 signals, sequence length 12,
sequence step 1); the epoch count defaults lower than the paper's 100 so the
full pipeline runs on CPU, and is configurable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.detectors.base import AnomalyDetector, ThresholdCalibrator
from repro.detectors.streaming import InvalidPartsError
from repro.nn import (
    Adam,
    BatchIterator,
    Dense,
    LSTM,
    Module,
    Parameter,
    Tensor,
    binary_cross_entropy_with_logits,
    fused_bce_with_logits_loss,
    fused_mse_grad,
    sigmoid,
)
from repro.utils.validation import check_fitted


class SequenceGenerator(Module):
    """LSTM generator: latent sequence ``(B, T, latent)`` → window ``(B, T, F)``.

    The fast and fused paths run in the dtype of the generator's weights
    (float32 during :meth:`MADGANDetector._invert_fast`, float64 otherwise)
    and take leading stack axes, as their layers do.
    """

    def __init__(self, latent_dim: int, hidden_size: int, n_features: int, seed=None):
        super().__init__()
        self.latent_dim = latent_dim
        self.hidden_size = hidden_size
        self.n_features = n_features
        self.lstm = LSTM(latent_dim, hidden_size, return_sequences=True, seed=seed)
        self.head = Dense(hidden_size, n_features, seed=seed)

    def forward(self, latent) -> Tensor:
        hidden = self.lstm(latent)
        batch, timesteps, _ = hidden.shape
        flat = hidden.reshape(batch * timesteps, self.hidden_size)
        output = self.head(flat)
        return output.reshape(batch, timesteps, self.n_features)

    def fast_forward(self, latent: np.ndarray) -> np.ndarray:
        hidden = self.lstm.fast_forward(latent)
        *stack, batch, timesteps, _ = hidden.shape
        flat = hidden.reshape(*stack, batch * timesteps, self.hidden_size)
        return self.head.fast_forward(flat).reshape(*stack, batch, timesteps, self.n_features)

    # ----------------------------------------------------------------- training
    def fused_forward_train(self, latent: np.ndarray):
        """Graph-free training forward (see :meth:`Module.fused_forward_train`)."""
        hidden, lstm_cache = self.lstm.fused_forward_train(latent)
        *stack, batch, timesteps, _ = hidden.shape
        flat_output, head_cache = self.head.fused_forward_train(
            hidden.reshape(*stack, batch * timesteps, self.hidden_size)
        )
        shape = (*stack, batch, timesteps)
        output = flat_output.reshape(*shape, self.n_features)
        return output, (lstm_cache, head_cache, shape)

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        lstm_cache, head_cache, (*stack, batch, timesteps) = cache
        grad_output = np.asarray(grad_output, dtype=self.head.weight.data.dtype)
        d_hidden = self.head.fused_backward_train(
            grad_output.reshape(*stack, batch * timesteps, self.n_features), head_cache
        )
        return self.lstm.fused_backward_train(
            d_hidden.reshape(*stack, batch, timesteps, self.hidden_size), lstm_cache
        )


class SequenceDiscriminator(Module):
    """LSTM discriminator: window ``(*stack, B, T, F)`` → real/fake logit ``(*stack, B, 1)``."""

    def __init__(self, n_features: int, hidden_size: int, seed=None):
        super().__init__()
        self.lstm = LSTM(n_features, hidden_size, return_sequences=False, seed=seed)
        self.head = Dense(hidden_size, 1, seed=seed)

    def forward(self, windows) -> Tensor:
        return self.head(self.lstm(windows))

    def fast_forward(self, windows: np.ndarray) -> np.ndarray:
        return self.head.fast_forward(
            self.lstm.fast_forward(np.asarray(windows, dtype=np.float64))
        )

    # ----------------------------------------------------------------- training
    def fused_forward_train(self, windows: np.ndarray):
        """Graph-free training forward (see :meth:`Module.fused_forward_train`)."""
        hidden, lstm_cache = self.lstm.fused_forward_train(windows)
        logits, head_cache = self.head.fused_forward_train(hidden)
        return logits, (lstm_cache, head_cache)

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        lstm_cache, head_cache = cache
        d_hidden = self.head.fused_backward_train(
            np.asarray(grad_output, dtype=np.float64), head_cache
        )
        return self.lstm.fused_backward_train(d_hidden, lstm_cache)


@dataclass
class MADGANTrainingHistory:
    """Per-epoch generator/discriminator losses."""

    generator_losses: List[float] = field(default_factory=list)
    discriminator_losses: List[float] = field(default_factory=list)


@dataclass
class InversionState:
    """Per-stream carry-over for incremental MAD-GAN window scoring.

    One state belongs to one sliding-window stream (one monitored CGM
    session).  It carries the previous tick's best inversion latent so the
    next tick's generator inversion can warm-start instead of re-searching
    the latent space from a random draw.

    Attributes
    ----------
    latent:
        ``(sequence_length, latent_dim)`` best latent found at the previous
        tick, or None before the first scored window (the next call runs a
        cold inversion).
    error:
        The previous tick's reconstruction error (max per-timestep MSE, in
        scaled feature units) — the warm-start fallback compares against it.
    ticks:
        Number of windows scored through this state.
    fallbacks:
        How many ticks fell back to a cold inversion because the warm
        residual regressed (see :meth:`MADGANDetector.scores_incremental`).
    """

    latent: Optional[np.ndarray] = None
    error: Optional[float] = None
    ticks: int = 0
    fallbacks: int = 0
    #: Current run of back-to-back ticks whose warm inversion regressed;
    #: reset to 0 by any clean warm tick or scheduled cold re-anchor.  The
    #: streaming adapter's inversion-divergence watchdog compares this
    #: against its threshold (:class:`repro.detectors.streaming.StreamingDetector`).
    consecutive_fallbacks: int = 0

    def reset(self) -> None:
        """Forget the carried latent; the next call runs a cold inversion."""
        self.latent = None
        self.error = None
        self.ticks = 0
        self.fallbacks = 0
        self.consecutive_fallbacks = 0


class MADGANDetector(AnomalyDetector):
    """MAD-GAN anomaly detector with the DR anomaly score.

    Parameters
    ----------
    sequence_length, n_features:
        Window geometry (defaults follow the paper: 12 samples, 4 signals).
    latent_dim, hidden_size:
        Generator/discriminator sizes.
    epochs, batch_size, learning_rate:
        Adversarial training hyper-parameters.
    inversion_steps, inversion_learning_rate:
        Gradient steps used to invert the generator when scoring.
    warm_inversion_steps:
        Gradient steps used by :meth:`scores_incremental` when warm-starting
        the inversion from the previous tick's latent (a fraction of
        ``inversion_steps`` — the warm start is already near the optimum).
    warm_fallback_ratio:
        A warm-started inversion whose reconstruction error exceeds
        ``warm_fallback_ratio`` times the previous tick's error re-runs the
        full cold inversion for that stream, so a stale latent can never
        inflate anomaly scores (the *smaller* of the warm and cold errors is
        kept — the inversion is a best-effort minimum).
    cold_refresh_interval:
        Every this-many ticks a stream's warm carry-over is discarded and
        the tick scored with a full cold inversion.  This bounds drift in
        the *other* direction: over a long stationary stretch (e.g. a
        sustained spoofed level) the carried latent keeps accumulating
        optimization steps and can reconstruct the windows *better* than
        the cold path the decision threshold was calibrated on, deflating
        scores; the periodic re-anchor caps how long such drift can build
        before a cold-calibrated score is restored.  None disables it.
    reconstruction_weight:
        λ in ``DR = λ · reconstruction + (1 − λ) · discrimination``.
    quantile:
        Benign-score quantile used to calibrate the decision threshold.
    seed:
        Seed for weights, latent sampling, and batching.

    Training and scoring run graph-free: :meth:`fit` trains every GAN step
    through the fused engine (hand-written BPTT with full weight gradients,
    see :meth:`_gan_step_fused`), and scoring runs the same fused kernels
    for the generator inversion with the generator frozen, so only the
    latent gradient is computed (see :meth:`_invert_fast`).  Training runs
    in float64; the inversion runs in float32.
    :meth:`fit_graph` and :meth:`scores_graph` are the autodiff reference
    twins: gradients agree within 1e-8, fixed-seed loss curves match
    step-for-step, the float64 inversion reference :meth:`_invert_fast64`
    reconstructs within 1e-8 and discriminator probabilities agree within
    1e-10 (``tests/test_nn_fused.py``, ``tests/test_detectors.py``,
    ``scripts/bench_train.py``).  The float32 inversion gives the float64
    reference's verdicts, with the relative reconstruction-error gap inside
    the quantile bound documented in ``docs/detectors.md``.
    """

    name = "MAD-GAN"
    fit_cost_per_window = 600
    #: How many warm inversion recurrences :meth:`scores_incremental` has
    #: run; each stacks every part with one warm-row count.  (A class
    #: default, so detectors pickled before it existed still count.)
    warm_runs = 0

    def __init__(
        self,
        sequence_length: int = 12,
        n_features: int = 4,
        latent_dim: int = 4,
        hidden_size: int = 16,
        epochs: int = 15,
        batch_size: int = 64,
        learning_rate: float = 0.005,
        inversion_steps: int = 40,
        inversion_learning_rate: float = 0.1,
        warm_inversion_steps: int = 10,
        warm_fallback_ratio: float = 1.5,
        cold_refresh_interval: Optional[int] = 32,
        reconstruction_weight: float = 0.7,
        quantile: float = 0.95,
        max_samples: int = 3000,
        seed=0,
    ):
        if not 0.0 <= reconstruction_weight <= 1.0:
            raise ValueError("reconstruction_weight must be in [0, 1]")
        self.sequence_length = int(sequence_length)
        self.n_features = int(n_features)
        self.latent_dim = int(latent_dim)
        self.hidden_size = int(hidden_size)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        if warm_inversion_steps <= 0:
            raise ValueError("warm_inversion_steps must be positive")
        if warm_fallback_ratio < 1.0:
            raise ValueError("warm_fallback_ratio must be >= 1.0")
        if cold_refresh_interval is not None and cold_refresh_interval <= 0:
            raise ValueError("cold_refresh_interval must be positive or None")
        self.inversion_steps = int(inversion_steps)
        self.inversion_learning_rate = float(inversion_learning_rate)
        self.warm_inversion_steps = int(warm_inversion_steps)
        self.warm_fallback_ratio = float(warm_fallback_ratio)
        self.cold_refresh_interval = (
            None if cold_refresh_interval is None else int(cold_refresh_interval)
        )
        self.reconstruction_weight = float(reconstruction_weight)
        self.max_samples = int(max_samples)

        from repro.utils.rng import as_random_state

        self._rng = as_random_state(seed)
        generator_seed, discriminator_seed = self._rng.spawn(2)
        self.generator = SequenceGenerator(
            self.latent_dim, self.hidden_size, self.n_features, seed=generator_seed
        )
        self.discriminator = SequenceDiscriminator(
            self.n_features, self.hidden_size, seed=discriminator_seed
        )
        self.calibrator = ThresholdCalibrator(quantile=quantile)
        self.history_: Optional[MADGANTrainingHistory] = None
        self._benign_reconstruction_scale: Optional[float] = None
        #: How many inversion batches this detector has run (cold or warm).
        #: A batch is one set of windows sharing a loss scale and Adam
        #: state, not one kernel run: a stacked run of L batches counts L.
        #: Regression tests and the benchmark fingerprints compare it
        #: across paths.
        self.inversion_calls = 0

    def _sample_latent(self, batch_size: int) -> np.ndarray:
        return self._rng.normal(
            0.0, 1.0, size=(batch_size, self.sequence_length, self.latent_dim)
        )

    # ----------------------------------------------------------------- training
    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "MADGANDetector":
        """Train the GAN on benign windows and calibrate the DR threshold."""
        return self._fit(
            windows,
            labels,
            self._gan_step_fused,
            self._reconstruction_errors,
            self._discrimination_scores,
        )

    def fit_graph(
        self, windows: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> "MADGANDetector":
        """:meth:`fit` through the autodiff graph (reference/benchmark path).

        Every GAN step runs :meth:`_gan_step_graph` and the threshold is
        calibrated through the graph inversion and discriminator, consuming
        the same RNG draws as :meth:`fit`.
        """
        return self._fit(
            windows,
            labels,
            self._gan_step_graph,
            self._reconstruction_errors_graph,
            self._discrimination_scores_graph,
        )

    def _fit(
        self, windows, labels, gan_step, reconstruction_errors, discrimination_scores
    ) -> "MADGANDetector":
        """Shared training loop and calibration over the given engine."""
        scaled = self._training_windows(windows, labels)

        generator_optimizer = Adam(self.generator.parameters(), learning_rate=self.learning_rate)
        discriminator_optimizer = Adam(
            self.discriminator.parameters(), learning_rate=self.learning_rate
        )
        # A fit on fewer windows than one batch trains one batch per epoch.
        iterator = BatchIterator(
            scaled,
            batch_size=min(self.batch_size, len(scaled)),
            shuffle=True,
            drop_last=True,
            seed=self._rng.derive("batches"),
        )
        history = MADGANTrainingHistory()
        for _ in range(self.epochs):
            generator_losses = []
            discriminator_losses = []
            for real_batch, _ in iterator:
                latent = self._sample_latent(len(real_batch))
                generator_loss, discriminator_loss = gan_step(
                    real_batch, latent, generator_optimizer, discriminator_optimizer
                )
                generator_losses.append(generator_loss)
                discriminator_losses.append(discriminator_loss)
            history.generator_losses.append(float(np.mean(generator_losses)))
            history.discriminator_losses.append(float(np.mean(discriminator_losses)))
        self.history_ = history

        benign_reconstruction = reconstruction_errors(scaled)
        self._benign_reconstruction_scale = float(np.mean(benign_reconstruction) + 1e-12)
        self.calibrator.fit(
            self._dr_scores(benign_reconstruction, discrimination_scores(scaled))
        )
        return self

    def _gan_step_graph(
        self, real_batch, latent, generator_optimizer, discriminator_optimizer
    ) -> Tuple[float, float]:
        """One adversarial step through the autodiff graph (reference twin)."""
        batch_size = len(real_batch)

        # -- discriminator step
        discriminator_optimizer.zero_grad()
        fake_batch = self.generator(Tensor(latent)).detach()
        real_logits = self.discriminator(Tensor(real_batch))
        fake_logits = self.discriminator(fake_batch)
        real_loss = binary_cross_entropy_with_logits(
            real_logits, Tensor(np.ones((batch_size, 1)))
        )
        fake_loss = binary_cross_entropy_with_logits(
            fake_logits, Tensor(np.zeros((batch_size, 1)))
        )
        discriminator_loss = real_loss + fake_loss
        discriminator_loss.backward()
        discriminator_optimizer.clip_gradients(5.0)
        discriminator_optimizer.step()

        # -- generator step: the discriminator is frozen, so backward skips
        # its weight-gradient computations entirely (the same gradients the
        # old per-step discriminator.zero_grad() threw away); the generator
        # gradient is unchanged.
        generator_optimizer.zero_grad()
        self.discriminator.requires_grad_(False)
        try:
            generated = self.generator(Tensor(latent))
            generated_logits = self.discriminator(generated)
            generator_loss = binary_cross_entropy_with_logits(
                generated_logits, Tensor(np.ones((batch_size, 1)))
            )
            generator_loss.backward()
        finally:
            self.discriminator.requires_grad_(True)
        generator_optimizer.clip_gradients(5.0)
        generator_optimizer.step()
        return generator_loss.item(), discriminator_loss.item()

    def _gan_step_fused(
        self, real_batch, latent, generator_optimizer, discriminator_optimizer
    ) -> Tuple[float, float]:
        """One adversarial step on the fused training engine (no autodiff graph).

        Mirrors :meth:`_gan_step_graph` update-for-update — fused gradients
        are pinned to the graph within 1e-8, so fixed-seed loss curves match
        step-for-step — with one extra fusion the graph path cannot express:
        the generator forward runs ONCE per batch.  Its output serves the
        discriminator step as the (constant) fake batch, and its cached
        activations serve the generator step's backward — valid because the
        discriminator update in between never touches generator weights.
        (The graph path must re-run the generator to rebuild a fresh graph.)
        The generator step re-runs only the discriminator forward, on the
        *updated* discriminator, exactly like the graph path; the frozen
        discriminator contributes its input gradient while every
        weight-gradient matmul is skipped (``requires_grad_`` is honored by
        the fused backward).
        """
        batch_size = len(real_batch)
        ones = np.ones((batch_size, 1))
        generated, generator_cache = self.generator.fused_forward_train(latent)

        # -- discriminator step (two loss branches accumulate into .grad)
        discriminator_optimizer.zero_grad()
        real_logits, real_cache = self.discriminator.fused_forward_train(real_batch)
        fake_logits, fake_cache = self.discriminator.fused_forward_train(generated)
        real_loss, d_real_logits = fused_bce_with_logits_loss(real_logits, ones)
        fake_loss, d_fake_logits = fused_bce_with_logits_loss(
            fake_logits, np.zeros((batch_size, 1))
        )
        self.discriminator.fused_backward_train(d_real_logits, real_cache)
        self.discriminator.fused_backward_train(d_fake_logits, fake_cache)
        discriminator_loss = real_loss + fake_loss
        discriminator_optimizer.clip_gradients(5.0)
        discriminator_optimizer.step()

        # -- generator step through the frozen, freshly updated discriminator
        generator_optimizer.zero_grad()
        self.discriminator.requires_grad_(False)
        try:
            generated_logits, frozen_cache = self.discriminator.fused_forward_train(
                generated
            )
            generator_loss, d_generated_logits = fused_bce_with_logits_loss(
                generated_logits, ones
            )
            d_generated = self.discriminator.fused_backward_train(
                d_generated_logits, frozen_cache
            )
            self.generator.fused_backward_train(d_generated, generator_cache)
        finally:
            self.discriminator.requires_grad_(True)
        generator_optimizer.clip_gradients(5.0)
        generator_optimizer.step()
        return generator_loss, discriminator_loss

    # ------------------------------------------------------------------ scoring
    def _invert_fast(
        self, scaled_windows: np.ndarray, initial_latent: np.ndarray, steps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``steps`` fast-path inversion iterations from ``initial_latent``.

        Each iteration is one fused training step of the generator
        (:meth:`SequenceGenerator.fused_forward_train`,
        :func:`~repro.nn.fused_mse_grad` (the loss value is never read),
        :meth:`SequenceGenerator.fused_backward_train`) with the generator
        frozen, followed by Adam on the latent and the ``[-2.5, 2.5]`` clip.
        This is the single entry point of every fast inversion: cold
        scoring, the fit's calibration, warm incremental scoring and the
        scheduler's per-tick cold batches.

        The loop runs in float32: the generator's weights are swapped for
        float32 copies for the duration of the call, so the kernels, the
        latent and its Adam moments all stay float32.
        :meth:`_invert_fast64` is the same loop in float64, the reference
        pinned to :meth:`_reconstruction_errors_graph` within 1e-8.  The
        float32 errors give its verdicts, and their gap to it stays within
        the bound in ``docs/detectors.md``.

        Returns ``(errors, latent)`` as float64: the per-window
        reconstruction error (max per-timestep MSE over the window, scaled
        feature units) and the optimized latent ``(n, sequence_length,
        latent_dim)`` — the carry-over :meth:`scores_incremental` stores per
        stream.
        """
        return self._invert(scaled_windows, initial_latent, steps, np.float32)

    def _invert_fast64(
        self, scaled_windows: np.ndarray, initial_latent: np.ndarray, steps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_invert_fast` in float64 (the reference the 1e-8 gates pin)."""
        return self._invert(scaled_windows, initial_latent, steps, np.float64)

    def _invert(self, scaled_windows, initial_latent, steps, dtype):
        """Shared body of :meth:`_invert_fast` and :meth:`_invert_fast64`.

        Leading stack axes are allowed: ``(*stack, n, T, F)`` windows with
        ``(*stack, n, T, latent)`` latents advance every stacked batch in one
        recurrence.  Each batch keeps its own loss scale ``1 / (n·T·F)`` and
        its own Adam moments (both are elementwise), and its slice of every
        kernel is its own call's, so each returns bitwise what inverting it
        alone returns.  :attr:`inversion_calls` counts the stacked batches.
        """
        stack = np.shape(scaled_windows)[:-3]
        self.inversion_calls += math.prod(stack)
        generator = self.generator
        target = np.asarray(scaled_windows, dtype=dtype)
        count = math.prod(target.shape[-3:])
        latent = Parameter(
            np.array(initial_latent, dtype=np.float64, copy=True), name="latent"
        )
        latent.data = latent.data.astype(dtype, copy=False)
        optimizer = Adam([latent], learning_rate=self.inversion_learning_rate)
        # Freeze the generator for the whole loop so the fused backward skips
        # every weight-gradient matmul and leaves each ``.grad`` untouched,
        # and run it on ``dtype`` copies of the weights; restore each
        # parameter's own array and flag, not a blanket True.
        parameters = generator.parameters()
        weights = [parameter.data for parameter in parameters]
        trainable = [parameter.requires_grad for parameter in parameters]
        generator.requires_grad_(False)
        try:
            for parameter in parameters:
                parameter.data = parameter.data.astype(dtype, copy=False)
            for _ in range(steps):
                generated, cache = generator.fused_forward_train(latent.data)
                d_generated = fused_mse_grad(generated, target, count)
                latent.grad = generator.fused_backward_train(d_generated, cache)
                optimizer.step()
                # In place (Adam hands back a fresh array each step); the
                # same min(max(x, lo), hi) as np.clip, without its wrapper.
                np.maximum(latent.data, -2.5, out=latent.data)
                np.minimum(latent.data, 2.5, out=latent.data)
            generated = generator.fast_forward(latent.data)
        finally:
            for parameter, data, flag in zip(parameters, weights, trainable):
                parameter.data = data
                parameter.requires_grad = flag
        # The error is taken against the float64 windows in float64.
        per_timestep = np.mean((generated - scaled_windows) ** 2, axis=-1)
        return per_timestep.max(axis=-1), latent.data.astype(np.float64, copy=False)

    def _reconstruction_errors(
        self, scaled_windows: np.ndarray, initial_latent: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Best-effort generator inversion: optimize latent sequences by gradient.

        Runs :meth:`_invert_fast`: each step is the fused training forward,
        :func:`~repro.nn.fused_mse_grad` and the fused BPTT through the
        frozen generator, which yields the latent gradient without
        allocating autodiff nodes or computing any parameter gradient.
        The loop runs in float32; :meth:`_reconstruction_errors_graph` is
        the autodiff reference, pinned within 1e-8 to the float64
        :meth:`_invert_fast64` (``tests/test_detectors.py``).

        ``initial_latent`` overrides the random latent initialization; when
        omitted, one latent sample is drawn from the detector's persistent RNG
        (so back-to-back calls start from different latents).
        """
        if initial_latent is None:
            initial_latent = self._sample_latent(len(scaled_windows)) * 0.1
        errors, _ = self._invert_fast(scaled_windows, initial_latent, self.inversion_steps)
        return errors

    def _reconstruction_errors_graph(
        self, scaled_windows: np.ndarray, initial_latent: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`_reconstruction_errors` through the autodiff graph (reference)."""
        if initial_latent is None:
            initial_latent = self._sample_latent(len(scaled_windows)) * 0.1
        latent = Parameter(np.array(initial_latent, dtype=np.float64, copy=True), name="latent")
        optimizer = Adam([latent], learning_rate=self.inversion_learning_rate)
        target = Tensor(scaled_windows)
        for _ in range(self.inversion_steps):
            optimizer.zero_grad()
            self.generator.zero_grad()
            generated = self.generator(latent)
            residual = generated - target
            loss = (residual * residual).mean()
            loss.backward()
            optimizer.step()
            # Constraining the latent to the typical set of its prior (both
            # engines clip): an unbounded latent lets the generator chase
            # arbitrary (including adversarial) targets, which would destroy
            # the reconstruction signal of the DR score.
            latent.data = np.clip(latent.data, -2.5, 2.5)
        generated = self.generator(latent).numpy()
        per_timestep = np.mean((generated - scaled_windows) ** 2, axis=2)
        # A manipulation typically touches only the trailing samples of a
        # window; the max over timesteps keeps a localized discrepancy from
        # being diluted by the (well-reconstructed) rest of the window.
        return per_timestep.max(axis=1)

    def _discrimination_scores(self, scaled_windows: np.ndarray) -> np.ndarray:
        """Probability that each window is real according to the discriminator."""
        return sigmoid(self.discriminator.predict(scaled_windows).reshape(-1))

    def _discrimination_scores_graph(self, scaled_windows: np.ndarray) -> np.ndarray:
        """:meth:`_discrimination_scores` through the autodiff graph (reference)."""
        return sigmoid(self.discriminator(Tensor(scaled_windows)).numpy().reshape(-1))

    def _dr_scores(self, reconstruction: np.ndarray, real_probability: np.ndarray) -> np.ndarray:
        """DR score from per-window reconstruction errors and discriminator output."""
        scale = self._benign_reconstruction_scale or float(np.mean(reconstruction) + 1e-12)
        normalized_reconstruction = reconstruction / scale
        return (
            self.reconstruction_weight * normalized_reconstruction
            + (1.0 - self.reconstruction_weight) * (1.0 - real_probability)
        )

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """DR anomaly scores for a batch of raw windows (cold inversion).

        Parameters
        ----------
        windows:
            ``(n, sequence_length, n_features)`` raw (unscaled) multivariate
            windows — **window** units, the same view the detector was fitted
            on.  NaNs are not accepted; a streaming caller must wait out the
            warm-up (see :meth:`repro.detectors.streaming.StreamingDetector`).

        Returns
        -------
        ``(n,)`` float scores, larger = more anomalous.  Each call inverts
        the generator from a *fresh* random latent (drawn from the detector's
        persistent RNG), so back-to-back calls on the same windows return
        slightly different scores; :meth:`scores_incremental` is the
        deterministic-carry-over variant for per-tick streams.
        """
        check_fitted(self, ("_scaler", "history_"))
        scaled = self._scale(np.asarray(windows, dtype=np.float64))
        return self._dr_scores(
            self._reconstruction_errors(scaled), self._discrimination_scores(scaled)
        )

    def scores_graph(self, windows: np.ndarray) -> np.ndarray:
        """:meth:`scores` through the autodiff graph (reference/benchmark path)."""
        check_fitted(self, ("_scaler", "history_"))
        scaled = self._scale(np.asarray(windows, dtype=np.float64))
        return self._dr_scores(
            self._reconstruction_errors_graph(scaled),
            self._discrimination_scores_graph(scaled),
        )

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary decisions for raw windows: 1 = anomalous (see :meth:`scores`)."""
        return self.calibrator.predict(self.scores(windows))

    # ----------------------------------------------------------- incremental API
    def make_inversion_state(self) -> InversionState:
        """Fresh per-stream carry-over for :meth:`scores_incremental`."""
        return InversionState()

    def scores_incremental(
        self,
        windows: np.ndarray,
        states: Sequence[InversionState],
        parts: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """DR anomaly scores with per-stream warm-started generator inversion.

        The per-tick cost ceiling of streaming MAD-GAN monitoring is the
        generator inversion: :meth:`scores` spends ``inversion_steps``
        gradient steps per call searching the latent space from a random
        draw.  Consecutive windows of one stream overlap in all but one
        sample, so their best latents are close; this method warm-starts the
        inversion from the previous tick's optimum and needs only
        ``warm_inversion_steps`` steps to reconverge.

        Parameters
        ----------
        windows:
            ``(n, sequence_length, n_features)`` raw windows — one per
            monitored stream, each the stream's *current* sliding window
            (shifted by exactly one sample since that stream's previous
            call; the carried latent is shifted one timestep to match).
        states:
            One :class:`InversionState` per window, aligned by position.
            States are updated in place: a stream's first call (``latent``
            None) runs the full cold inversion and seeds the state.
        parts:
            Row counts of consecutive parts of ``windows`` (default: one
            part of every row).  The serving scheduler passes one part per
            lane, so one call serves a detector's rows of every lane.

        Returns
        -------
        ``(n,)`` float DR scores in the same units as :meth:`scores`.

        Fallback guarantee: a warm inversion whose reconstruction error
        exceeds ``warm_fallback_ratio`` × the previous tick's error re-runs
        the cold inversion for that stream and keeps the better (smaller) of
        the two errors, so a stale latent can only ever *lower* scores back
        toward the cold path, never inflate them.  Drift in the other
        direction is bounded by ``cold_refresh_interval``: every N ticks the
        carry-over is discarded and the tick scored cold, re-anchoring the
        stream to the statistics the threshold was calibrated on.  Warm and
        cold scores agree within the cold path's own restart-to-restart
        variability — ``tests/test_detectors.py`` pins score agreement and
        ``scripts/bench_serving.py`` asserts verdict parity on its fixture.

        Each part's warm rows are one inversion batch, as if scored alone;
        parts with equal warm-row counts advance in one stacked recurrence
        (:meth:`_invert`, bitwise).  All parts' owed cold rows run as ONE
        batch, from latents drawn part by part.  Parts whose carried latent
        has the wrong shape raise
        :class:`~repro.detectors.streaming.InvalidPartsError` before anything
        changes.
        """
        check_fitted(self, ("_scaler", "history_"))
        windows = np.asarray(windows, dtype=np.float64)
        if len(windows) != len(states):
            raise ValueError("windows and states must have the same length")
        scaled = self._scale(windows)
        sizes = [len(states)] if parts is None else [int(size) for size in parts]
        if sum(sizes) != len(states) or min(sizes) <= 0:
            raise ValueError(f"parts {sizes} do not split {len(states)} rows")
        bounds = list(itertools.accumulate(sizes, initial=0))
        part_rows = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
        warm_parts, owed_parts = self._classify_parts(states, part_rows)

        errors = np.empty(len(states))
        for rows in _stacks(warm_parts):
            flat = rows.reshape(-1).tolist()
            latents = np.stack([states[row].latent for row in flat])
            # The window slid one sample: shift the latent one timestep to
            # keep each latent step aligned with the sample it explains; the
            # vacated final step reuses the previous final latent (its best
            # local guess for the just-arrived sample).
            initial = np.concatenate([latents[:, 1:], latents[:, -1:]], axis=1)
            warm_errors, warm_latents = self._invert_fast(
                scaled[rows],
                initial.reshape(rows.shape + latents.shape[1:]),
                self.warm_inversion_steps,
            )
            self.warm_runs += 1
            errors[flat] = warm_errors.reshape(-1)
            for row, latent in zip(flat, warm_latents.reshape(latents.shape)):
                states[row].latent = latent

        # Fallbacks, then the cold-start draws, part by part.
        scale = self._benign_reconstruction_scale or 1.0
        fallback_rows = set()
        draws = []
        for warm, owed in zip(warm_parts, owed_parts):
            for row in warm:
                state = states[row]
                # A state restored with a latent but no carried error (e.g.
                # deserialized) gets the floor, so the fallback comparison
                # still runs — conservatively cold-verifying the warm result.
                carried = 0.0 if state.error is None else float(state.error)
                previous = max(carried, 0.01 * scale)
                if errors[row] > self.warm_fallback_ratio * previous:
                    # Regressed: re-run cold in this tick's batch.
                    state.fallbacks += 1
                    state.consecutive_fallbacks += 1
                    fallback_rows.add(row)
                    owed.append(row)
                else:
                    # Clean warm tick: the divergence run (if any) is over.
                    state.consecutive_fallbacks = 0
            if owed:
                draws.append(self._sample_latent(len(owed)) * 0.1)

        cold_rows = [row for owed in owed_parts for row in owed]
        if cold_rows:
            cold_errors, cold_latents = self._invert_fast(
                scaled[cold_rows], np.concatenate(draws), self.inversion_steps
            )
            for row, cold_error, latent in zip(cold_rows, cold_errors.tolist(), cold_latents):
                state = states[row]
                if row in fallback_rows:
                    if cold_error > errors[row]:
                        continue  # the warm result was the better inversion
                else:
                    # A scheduled cold tick (cold start, periodic refresh)
                    # closes any divergence run.
                    state.consecutive_fallbacks = 0
                errors[row] = cold_error
                state.latent = latent

        for state, error in zip(states, errors.tolist()):
            state.error = error
            state.ticks += 1
        real = np.empty(len(states))
        for rows in _stacks(part_rows):
            real[rows.reshape(-1)] = self._discrimination_scores(scaled[rows])
        return self._dr_scores(errors, real)

    def predict_incremental(
        self, windows: np.ndarray, states: Sequence[InversionState], parts=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flags, scores)`` of :meth:`scores_incremental`: one inversion serves both."""
        scores = self.scores_incremental(windows, states, parts)
        return self.calibrator.predict(scores), scores

    def _classify_parts(self, states, part_rows) -> Tuple[List[List[int]], List[List[int]]]:
        """Each part's warm rows and cold rows; raises before changing anything."""
        latent_shape = (self.sequence_length, self.latent_dim)
        refresh = self.cold_refresh_interval
        warm_parts, cold_parts, invalid = [], [], {}
        for index, rows in enumerate(part_rows):
            warm, cold = [], []
            for row in rows:
                latent, ticks = states[row].latent, states[row].ticks
                if latent is None:
                    cold.append(row)
                elif latent.shape != latent_shape:
                    invalid[index] = ValueError(
                        f"state latent must have shape {latent_shape}, got {latent.shape}"
                    )
                elif refresh is not None and ticks > 0 and ticks % refresh == 0:
                    cold.append(row)  # periodic re-anchor: the carry-over is dropped
                else:
                    warm.append(row)
            warm_parts.append(warm)
            cold_parts.append(cold)
        if invalid:
            raise InvalidPartsError(invalid)
        return warm_parts, cold_parts


def _stacks(row_lists):
    """One index array per distinct length of the non-empty ``row_lists``:
    ``(L, n)`` for L lists of length n, a flat ``(n,)`` (unstacked) for one."""
    by_length: dict = {}
    for rows in row_lists:
        if rows:
            by_length.setdefault(len(rows), []).append(rows)
    for members in by_length.values():
        yield np.array(members[0] if len(members) == 1 else members)
