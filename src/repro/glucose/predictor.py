"""The target glucose prediction DNN.

The paper approximates the (confidential) commercial glucose prediction
algorithm with the bidirectional-LSTM time-series forecaster of Rubin-Falcone
et al.  This module implements the same architecture class on top of the
:mod:`repro.nn` substrate: a BiLSTM encoder over the last hour of multivariate
CGM data followed by a dense regression head that predicts the CGM value 30
minutes ahead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.dataset import DEFAULT_HISTORY, DEFAULT_HORIZON, WindowScaler
from repro.nn import (
    Adam,
    BatchIterator,
    BiLSTM,
    BiLSTMStreamState,
    Dense,
    FusedTrainer,
    Sequential,
    StreamWeights,
    Tensor,
    dense_forward,
    mse_loss,
    stream_encode,
)
from repro.utils.rng import as_random_state
from repro.utils.validation import check_array, check_consistent_length, check_fitted


@dataclass
class TrainingHistory:
    """Loss curve recorded during :meth:`GlucosePredictor.fit`."""

    epoch_losses: List[float] = field(default_factory=list)


class GlucosePredictor:
    """Bidirectional-LSTM glucose forecaster.

    Parameters
    ----------
    history:
        Number of past five-minute samples in the input window.
    horizon:
        Forecast horizon in five-minute steps (6 = 30 minutes).
    hidden_size:
        Width of each LSTM direction.
    epochs, batch_size, learning_rate:
        Training hyper-parameters.
    gradient_clip:
        Maximum global gradient norm during training.
    input_clip_std:
        Inputs are standardized per feature and clamped to this many standard
        deviations of the training distribution before entering the network
        (``None`` disables clamping).  This models the sensor-calibration
        clamp of a deployed medical forecaster: readings far outside the range
        the model was calibrated on are not trusted verbatim.  It also ties a
        patient's resilience to the spread of their benign data — patients
        with tight glucose control leave an adversary much less headroom,
        which is the resilience mechanism the paper describes.
    seed:
        Seed controlling weight initialization and batch shuffling.
    """

    def __init__(
        self,
        history: int = DEFAULT_HISTORY,
        horizon: int = DEFAULT_HORIZON,
        n_features: int = 4,
        hidden_size: int = 16,
        epochs: int = 12,
        batch_size: int = 64,
        learning_rate: float = 0.01,
        gradient_clip: float = 5.0,
        input_clip_std: Optional[float] = 3.0,
        seed=0,
    ):
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if input_clip_std is not None and input_clip_std <= 0:
            raise ValueError("input_clip_std must be positive or None")
        self.history = int(history)
        self.horizon = int(horizon)
        self.n_features = int(n_features)
        self.hidden_size = int(hidden_size)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.gradient_clip = float(gradient_clip)
        self.input_clip_std = None if input_clip_std is None else float(input_clip_std)
        self._rng = as_random_state(seed)

        model_seed, shuffle_seed = self._rng.spawn(2)
        self._shuffle_seed = shuffle_seed
        self.model = Sequential(
            BiLSTM(self.n_features, self.hidden_size, seed=model_seed),
            Dense(2 * self.hidden_size, self.hidden_size, activation="tanh", seed=model_seed.derive("head1")),
            Dense(self.hidden_size, 1, seed=model_seed.derive("head2")),
        )
        self.scaler: Optional[WindowScaler] = None
        self.history_: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ training
    def fit(self, windows: np.ndarray, targets: np.ndarray) -> "GlucosePredictor":
        """Train the forecaster on raw (unscaled) windows and CGM targets.

        Every training step runs the fused engine — hand-written BPTT
        through the BiLSTM and dense head, no autodiff graph
        (:class:`~repro.nn.FusedTrainer`).  :meth:`fit_graph` is the
        reference twin.
        """
        return self._fit(
            windows,
            targets,
            lambda optimizer: FusedTrainer(
                self.model, optimizer, loss="mse", gradient_clip=self.gradient_clip
            ).step,
        )

    def fit_graph(self, windows: np.ndarray, targets: np.ndarray) -> "GlucosePredictor":
        """:meth:`fit` through the autodiff graph (reference/benchmark path).

        Same optimizer, shuffling and clipping, with every step built from
        ``loss.backward()``; per-step losses match :meth:`fit` step-for-step
        under a fixed seed and gradients agree within 1e-8
        (``tests/test_nn_fused.py``, ``scripts/bench_train.py``).
        """

        def make_step(optimizer):
            def step(batch_inputs, batch_targets):
                optimizer.zero_grad()
                predictions = self.model(Tensor(batch_inputs))
                loss = mse_loss(predictions, Tensor(batch_targets))
                loss.backward()
                optimizer.clip_gradients(self.gradient_clip)
                optimizer.step()
                return loss.item()

            return step

        return self._fit(windows, targets, make_step)

    def _fit(self, windows, targets, make_step) -> "GlucosePredictor":
        """Shared training loop; ``make_step(optimizer)`` returns the step."""
        windows = check_array(windows, "windows", ndim=3, min_samples=1)
        targets = check_array(targets, "targets", ndim=1)
        check_consistent_length(windows, targets)
        if windows.shape[1] != self.history or windows.shape[2] != self.n_features:
            raise ValueError(
                f"windows must have shape (n, {self.history}, {self.n_features}), got {windows.shape}"
            )

        self.scaler = WindowScaler().fit(windows)
        scaled_windows = self._clip_scaled(self.scaler.transform(windows))
        scaled_targets = self.scaler.scale_target(targets).reshape(-1, 1)

        optimizer = Adam(self.model.parameters(), learning_rate=self.learning_rate)
        iterator = BatchIterator(
            scaled_windows,
            scaled_targets,
            batch_size=self.batch_size,
            shuffle=True,
            seed=self._shuffle_seed,
        )
        step = make_step(optimizer)
        history = TrainingHistory()
        self.model.train()
        for _ in range(self.epochs):
            epoch_losses = [
                step(batch_inputs, batch_targets)
                for batch_inputs, batch_targets in iterator
            ]
            history.epoch_losses.append(float(np.mean(epoch_losses)))
        self.model.eval()
        self.history_ = history
        return self

    # ----------------------------------------------------------------- inference
    def _clip_scaled(self, scaled_windows: np.ndarray) -> np.ndarray:
        """Clamp standardized inputs to the calibrated training range."""
        if self.input_clip_std is None:
            return scaled_windows
        return np.clip(scaled_windows, -self.input_clip_std, self.input_clip_std)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predict future CGM values (mg/dL) for raw input windows.

        This is the attack hot path: it runs the graph-free batched
        inference engine, which computes the BiLSTM forward with
        fused gate matmuls and no autodiff bookkeeping.  One call with a
        large batch is far cheaper than many single-window calls.
        """
        scaled = self._prepare(windows)
        return self.scaler.unscale_target(self.model.predict(scaled).reshape(-1))

    def predict_graph(self, windows: np.ndarray) -> np.ndarray:
        """Predict through the full autodiff graph (reference/benchmark path).

        Numerically equivalent to :meth:`predict` within 1e-10; kept so the
        fast path's regression guarantee stays checkable forever.
        """
        scaled = self._prepare(windows)
        outputs = self.model(Tensor(scaled)).numpy(copy=True).reshape(-1)
        return self.scaler.unscale_target(outputs)

    def _prepare(self, windows: np.ndarray) -> np.ndarray:
        """Shared validation + scaling so both inference paths see identical inputs."""
        check_fitted(self, ("scaler",))
        windows = check_array(windows, "windows", ndim=3, min_samples=1)
        return self._clip_scaled(self.scaler.transform(windows))

    def predict_one(self, window: np.ndarray) -> float:
        """Predict for a single ``(history, n_features)`` window."""
        window = check_array(window, "window", ndim=2)
        return float(self.predict(window[np.newaxis])[0])

    # ----------------------------------------------------------------- streaming
    def stream_state(self, n_streams: int = 1) -> BiLSTMStreamState:
        """Incremental serving state for ``n_streams`` concurrent CGM streams.

        The state ring-buffers the fused BiLSTM input projections (both
        directions) of each stream's last ``history`` samples, so
        :meth:`step_stream` pays one scaling pass and one input projection
        per *new sample* instead of re-preparing the whole window — and
        serves every stream and both directions with one stacked recurrence
        of ``history`` steps per tick.
        """
        check_fitted(self, ("scaler",))
        encoder = self.model[0]
        if not isinstance(encoder, BiLSTM):
            raise TypeError(
                "streaming inference expects the model to start with a BiLSTM "
                f"encoder, found {type(encoder).__name__}"
            )
        return encoder.stream_state(n_streams, capacity=self.history)

    def step_stream(
        self,
        samples: np.ndarray,
        state: BiLSTMStreamState,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance selected streams by one raw CGM sample each.

        Parameters
        ----------
        samples:
            ``(k, n_features)`` raw (unscaled) samples, one per stream ticked.
        state:
            State from :meth:`stream_state`.
        rows:
            Stream slots receiving a sample this tick (default ``arange(k)``).
            Each slot may appear at most once and must lie in
            ``[0, state.n_streams)``; duplicate or out-of-range slots raise
            ``ValueError``.

        Returns
        -------
        ``(k,)`` predictions in mg/dL.  A stream that has not yet seen a full
        ``history`` window returns NaN (warm-up).  Once warm, the prediction
        matches :meth:`predict` on the same sliding window within 1e-10 —
        pinned by ``tests/test_serving.py`` and ``scripts/check_parity.py``.

        This is the one-predictor call of the serving step: the checked
        :meth:`push_stream`, then :func:`forecast_streams` over the full
        slots.  The serving scheduler runs the same two halves, the second
        once per group of lanes.
        """
        check_fitted(self, ("scaler",))
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != self.n_features:
            raise ValueError(
                f"samples must have shape (k, {self.n_features}), got {samples.shape}"
            )
        rows = state.check_rows(rows, len(samples))
        weights = self.model[0].stream_weights()
        self.push_stream(samples, state, rows, weights)
        predictions = np.full(len(samples), np.nan)
        warm = state.count[rows] == state.capacity
        if np.any(warm):
            predictions[warm] = forecast_streams([self], [state], [rows[warm]], [weights])[0]
        return predictions

    def push_stream(
        self,
        samples: np.ndarray,
        state: BiLSTMStreamState,
        rows: np.ndarray,
        weights: StreamWeights,
    ) -> None:
        """The per-stream, mutating half of :meth:`step_stream`.

        Scales and clamps one raw ``(k, n_features)`` float64 sample per slot
        of ``rows`` and writes its input projection into ``state``
        (:meth:`BiLSTM.push`).  ``weights`` are the encoder's
        :meth:`BiLSTM.stream_weights`.  Inputs are not validated;
        :meth:`step_stream` is the checked call.  :func:`forecast_streams`
        then predicts from the full slots.
        """
        scaled = self._clip_scaled(self.scaler.transform_samples_unchecked(samples))
        self.model[0].push(scaled, state, rows, weights)

    def stream_signature(self) -> tuple:
        """What must match for :func:`forecast_streams` to stack two predictors.

        The window length, the encoder width and each head layer's weight
        shape, bias and activation.  Weights, scalers and input clamps may
        differ: the stacked step takes them per predictor.
        """
        head = tuple(
            (layer.weight.data.shape, layer.bias is None, layer.activation)
            for layer in self.model.layers[1:]
        )
        return (self.history, self.model[0].hidden_size, head)

    def step_one(
        self, sample: np.ndarray, state: BiLSTMStreamState, row: int = 0
    ) -> Optional[float]:
        """:meth:`step_stream` for one slot, returning a float or None.

        Advances slot ``row`` of ``state`` with one ``(n_features,)`` raw
        sample and returns the prediction in mg/dL, or None while the slot's
        window is warming up (fewer than ``history`` samples seen).
        """
        value = self.step_stream(sample[np.newaxis], state, rows=np.array([row]))[0]
        return None if state.count[row] < state.capacity else float(value)

    def evaluate(self, windows: np.ndarray, targets: np.ndarray) -> Dict[str, float]:
        """Compute RMSE and MAE (mg/dL) on a held-out split."""
        targets = check_array(targets, "targets", ndim=1)
        predictions = self.predict(windows)
        check_consistent_length(predictions, targets)
        errors = predictions - targets
        return {
            "rmse": float(np.sqrt(np.mean(errors**2))),
            "mae": float(np.mean(np.abs(errors))),
        }

    # -------------------------------------------------------------- persistence
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Model weights (the scaler is not included)."""
        return self.model.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)

    def state_hash(self) -> str:
        """Fingerprint of everything :meth:`predict` depends on.

        Hashes the weight ``state_dict`` plus the fitted scaler statistics,
        the input clamp, and the window geometry — two predictors with equal
        hashes produce identical predictions for identical inputs, even when
        they are separately constructed objects (e.g. the same checkpoint
        loaded twice).  Both the attack campaign's cohort batching and the
        serving scheduler's lane assignment group by this hash instead of
        object identity.
        """
        digest = hashlib.sha256(self.model.state_hash().encode())
        digest.update(
            f"|{self.history}|{self.horizon}|{self.n_features}|{self.input_clip_std}"
            # The constant suffix once recorded an inference-engine switch
            # that no longer exists; it stays so every lane key, and with
            # it every content-addressed snapshot, keeps its digest.
            "|True".encode()
        )
        if self.scaler is not None:
            digest.update(self.scaler.signature())
        return digest.hexdigest()


def forecast_streams(predictors, states, rows, weights) -> np.ndarray:
    """``(L, n)`` predictions (mg/dL) for full stream slots of ``L`` predictors at once.

    One entry per predictor (a serving lane): its state, ``n`` full slots
    to predict for (the same ``n`` for all) and its encoder's
    :meth:`~repro.nn.BiLSTM.stream_weights`.  Predictors must share
    :meth:`GlucosePredictor.stream_signature`.  The BiLSTM recurrence
    (:func:`~repro.nn.recurrent.stream_encode`), the Dense head and the
    unscaling each run once, stacked over ``(L, n, ·)``, and every
    predictor's rows are bitwise those of predicting for it alone —
    :meth:`GlucosePredictor.step_stream` is the one-predictor call.
    Nothing is written: a caller may re-run it one predictor at a time.
    """
    output = stream_encode(states, rows, weights)
    for layers in zip(*(predictor.model.layers[1:] for predictor in predictors)):
        bias = (
            None
            if layers[0].bias is None
            else np.stack([layer.bias.data for layer in layers])[:, np.newaxis]
        )
        output = dense_forward(
            output, np.stack([layer.weight.data for layer in layers]), bias, layers[0].activation
        )
    scale = np.array([[predictor.scaler.target_scale] for predictor in predictors])
    shift = np.array([[predictor.scaler.cgm_mean] for predictor in predictors])
    return output[..., 0] * scale + shift
