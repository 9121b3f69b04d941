"""Equivalence tests for the graph-free fused training engine.

The regression guarantee (docs/architecture.md): for every layer with a
hand-written analytic backward (`fused_forward_train` / `fused_backward_train`
/ `Module.fused_grads`), the fused gradients — parameter gradients AND input
gradients — must match the reverse-mode autodiff graph within 1e-8, across
batch sizes and sequence lengths; and fixed-seed training runs of
`GlucosePredictor.fit` and `MADGANDetector.fit` (fused engine) must produce
step-for-step matching loss curves against their autodiff references,
`GlucosePredictor.fit_graph` and `MADGANDetector.fit_graph`.
"""

import numpy as np
import pytest

from repro.detectors import MADGANDetector
from repro.detectors.madgan import SequenceDiscriminator, SequenceGenerator
from repro.glucose.predictor import GlucosePredictor
from repro.nn import (
    Activation,
    Adam,
    BiLSTM,
    Dense,
    Dropout,
    FusedTrainer,
    LSTM,
    Module,
    Sequential,
    Tensor,
    fused_bce_with_logits_loss,
    fused_mse_grad,
    fused_mse_loss,
)
from repro.nn.functional import binary_cross_entropy_with_logits, mse_loss

GRADIENT_TOLERANCE = 1e-8
LOSS_CURVE_TOLERANCE = 1e-8


def graph_reference(layer, x, grad_out):
    """Autodiff forward + backward: (output, input grad, parameter grads)."""
    layer.zero_grad()
    inputs = Tensor(x, requires_grad=True)
    out = layer(inputs)
    out.backward(grad_out)
    param_grads = {
        name: parameter.grad.copy()
        for name, parameter in layer.named_parameters().items()
    }
    output = out.numpy(copy=True)
    input_grad = inputs.grad.copy()
    layer.zero_grad()
    return output, input_grad, param_grads


def fused_gap(layer, x, grad_out):
    """Worst |fused - graph| across output, input grad, and every param grad."""
    graph_out, graph_input_grad, graph_param_grads = graph_reference(layer, x, grad_out)
    fused_out, fused_input_grad = layer.fused_grads(x, grad_out)
    worst = max(
        float(np.abs(fused_out - graph_out).max()),
        float(np.abs(fused_input_grad - graph_input_grad).max()),
    )
    for name, parameter in layer.named_parameters().items():
        assert parameter.grad is not None, f"{name} received no fused gradient"
        worst = max(worst, float(np.abs(parameter.grad - graph_param_grads[name]).max()))
    layer.zero_grad()
    return worst


class TestFusedLayerGradients:
    @pytest.mark.parametrize(
        "activation", [None, "linear", "tanh", "sigmoid", "relu", "leaky_relu"]
    )
    @pytest.mark.parametrize("batch_size", [1, 3, 17])
    def test_dense(self, rng, activation, batch_size):
        layer = Dense(6, 4, activation=activation, seed=3)
        x = rng.normal(size=(batch_size, 6))
        grad_out = rng.normal(size=(batch_size, 4))
        assert fused_gap(layer, x, grad_out) <= GRADIENT_TOLERANCE

    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch_size,timesteps", [(1, 1), (3, 5), (9, 12)])
    def test_lstm(self, rng, return_sequences, reverse, batch_size, timesteps):
        layer = LSTM(4, 8, return_sequences=return_sequences, reverse=reverse, seed=7)
        x = rng.normal(size=(batch_size, timesteps, 4))
        out_shape = (
            (batch_size, timesteps, 8) if return_sequences else (batch_size, 8)
        )
        grad_out = rng.normal(size=out_shape)
        assert fused_gap(layer, x, grad_out) <= GRADIENT_TOLERANCE

    @pytest.mark.parametrize("batch_size,timesteps", [(1, 1), (5, 12)])
    def test_bilstm(self, rng, batch_size, timesteps):
        layer = BiLSTM(4, 8, seed=7)
        x = rng.normal(size=(batch_size, timesteps, 4))
        grad_out = rng.normal(size=(batch_size, 16))
        assert fused_gap(layer, x, grad_out) <= GRADIENT_TOLERANCE

    def test_activation_layer(self, rng):
        layer = Activation("tanh")
        x = rng.normal(size=(7, 5))
        grad_out = rng.normal(size=(7, 5))
        out, grad_in = layer.fused_grads(x, grad_out)
        graph_out, graph_grad, _ = graph_reference(layer, x, grad_out)
        assert np.abs(out - graph_out).max() <= GRADIENT_TOLERANCE
        assert np.abs(grad_in - graph_grad).max() <= GRADIENT_TOLERANCE

    @pytest.mark.parametrize("batch_size", [2, 13])
    def test_forecaster_stack(self, rng, batch_size):
        model = Sequential(
            BiLSTM(4, 8, seed=1),
            Dense(16, 8, activation="tanh", seed=2),
            Dense(8, 1, seed=3),
        )
        x = rng.normal(size=(batch_size, 12, 4))
        grad_out = rng.normal(size=(batch_size, 1))
        assert fused_gap(model, x, grad_out) <= GRADIENT_TOLERANCE

    def test_sequence_generator(self, rng):
        generator = SequenceGenerator(latent_dim=3, hidden_size=6, n_features=4, seed=5)
        latent = rng.normal(size=(5, 12, 3))
        grad_out = rng.normal(size=(5, 12, 4))
        assert fused_gap(generator, latent, grad_out) <= GRADIENT_TOLERANCE

    def test_sequence_discriminator(self, rng):
        discriminator = SequenceDiscriminator(n_features=4, hidden_size=6, seed=5)
        windows = rng.normal(size=(5, 12, 4))
        grad_out = rng.normal(size=(5, 1))
        assert fused_gap(discriminator, windows, grad_out) <= GRADIENT_TOLERANCE

    def test_property_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            batch = int(rng.integers(1, 9))
            timesteps = int(rng.integers(1, 14))
            features = int(rng.integers(1, 6))
            hidden = int(rng.integers(2, 10))
            layer = LSTM(
                features,
                hidden,
                return_sequences=bool(rng.integers(0, 2)),
                reverse=bool(rng.integers(0, 2)),
                seed=int(rng.integers(0, 1000)),
            )
            x = rng.normal(size=(batch, timesteps, features))
            out_shape = (
                (batch, timesteps, hidden) if layer.return_sequences else (batch, hidden)
            )
            grad_out = rng.normal(size=out_shape)
            assert fused_gap(layer, x, grad_out) <= GRADIENT_TOLERANCE


class TestFusedLossHeads:
    def test_mse_matches_graph(self, rng):
        predictions = rng.normal(size=(9, 1))
        targets = rng.normal(size=(9, 1))
        graph_pred = Tensor(predictions, requires_grad=True)
        loss = mse_loss(graph_pred, Tensor(targets))
        loss.backward()
        value, grad = fused_mse_loss(predictions, targets)
        assert abs(value - loss.item()) <= GRADIENT_TOLERANCE
        assert np.abs(grad - graph_pred.grad).max() <= GRADIENT_TOLERANCE

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [None, 7])
    def test_mse_grad_is_the_loss_gradient_bitwise(self, rng, dtype, count):
        predictions = rng.normal(size=(3, 5, 4)).astype(dtype)
        targets = rng.normal(size=(3, 5, 4))
        _, grad = fused_mse_loss(predictions, targets, count)
        alone = fused_mse_grad(predictions, targets, count)
        assert alone.dtype == grad.dtype == dtype
        assert alone.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("target_value", [0.0, 1.0])
    def test_bce_with_logits_matches_graph(self, rng, target_value):
        logits = rng.normal(size=(11, 1)) * 4.0
        targets = np.full((11, 1), target_value)
        graph_logits = Tensor(logits, requires_grad=True)
        loss = binary_cross_entropy_with_logits(graph_logits, Tensor(targets))
        loss.backward()
        value, grad = fused_bce_with_logits_loss(logits, targets)
        assert abs(value - loss.item()) <= GRADIENT_TOLERANCE
        assert np.abs(grad - graph_logits.grad).max() <= GRADIENT_TOLERANCE

    def test_unknown_loss_name_rejected(self):
        layer = Dense(2, 1, seed=0)
        with pytest.raises(ValueError, match="unknown fused loss"):
            FusedTrainer(layer, Adam(layer.parameters()), loss="huber")

    def test_invalid_gradient_clip_rejected(self):
        layer = Dense(2, 1, seed=0)
        with pytest.raises(ValueError, match="gradient_clip"):
            FusedTrainer(layer, Adam(layer.parameters()), gradient_clip=0.0)


class TestFusedPlumbing:
    def test_fused_grads_validates_grad_output_shape(self, rng):
        layer = Dense(4, 2, seed=0)
        with pytest.raises(ValueError, match="grad_output"):
            layer.fused_grads(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))

    def test_base_module_has_no_fused_path(self):
        class Custom(Module):
            def forward(self, inputs):
                return inputs

        with pytest.raises(NotImplementedError, match="no fused training path"):
            Custom().fused_forward_train(np.zeros((1, 2)))

    def test_dropout_identity_in_eval_and_rejected_in_training(self, rng):
        layer = Dropout(rate=0.5, seed=0)
        x = rng.normal(size=(4, 3))
        layer.eval()
        out, cache = layer.fused_forward_train(x)
        np.testing.assert_array_equal(out, x)
        grad = layer.fused_backward_train(x, cache)
        np.testing.assert_array_equal(grad, x)
        layer.train()
        with pytest.raises(NotImplementedError, match="Dropout"):
            layer.fused_forward_train(x)

    def test_two_branch_accumulation_matches_graph(self, rng):
        """The GAN discriminator pattern: two backward passes into one .grad."""
        layer = Dense(5, 2, activation="tanh", seed=1)
        x1 = rng.normal(size=(6, 5))
        x2 = rng.normal(size=(4, 5))
        g1 = rng.normal(size=(6, 2))
        g2 = rng.normal(size=(4, 2))

        layer.zero_grad()
        t1 = Tensor(x1)
        t2 = Tensor(x2)
        layer(t1).backward(g1)
        layer(t2).backward(g2)
        graph_grads = {
            name: parameter.grad.copy()
            for name, parameter in layer.named_parameters().items()
        }

        layer.zero_grad()
        layer.fused_grads(x1, g1)
        layer.fused_grads(x2, g2)
        for name, parameter in layer.named_parameters().items():
            assert np.abs(parameter.grad - graph_grads[name]).max() <= GRADIENT_TOLERANCE
        layer.zero_grad()

    def test_frozen_parameters_receive_no_gradients(self, rng):
        """requires_grad_(False) skips weight grads but still routes input grads."""
        layer = LSTM(3, 6, seed=2)
        layer.requires_grad_(False)
        try:
            x = rng.normal(size=(4, 7, 3))
            grad_out = rng.normal(size=(4, 6))
            _, grad_in = layer.fused_grads(x, grad_out)
            assert grad_in.shape == x.shape
            assert np.abs(grad_in).max() > 0
            for parameter in layer.parameters():
                assert parameter.grad is None
        finally:
            layer.requires_grad_(True)

    def test_gradient_buffers_are_reused(self, rng):
        layer = Dense(4, 3, seed=0)
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))
        layer.fused_grads(x, grad_out)
        first_buffer = layer.weight.grad
        layer.zero_grad()
        layer.fused_grads(x, grad_out)
        assert layer.weight.grad is first_buffer  # preallocated buffer reused
        layer.zero_grad()


class TestFusedTrainer:
    def test_step_matches_graph_training_step(self, rng):
        """One fused Adam step == one graph Adam step (same clip, same update)."""
        x = rng.normal(size=(16, 12, 4))
        y = rng.normal(size=(16, 1))

        def build():
            return Sequential(
                BiLSTM(4, 6, seed=1),
                Dense(12, 6, activation="tanh", seed=2),
                Dense(6, 1, seed=3),
            )

        graph_model = build()
        optimizer = Adam(graph_model.parameters(), learning_rate=0.01)
        optimizer.zero_grad()
        loss = mse_loss(graph_model(Tensor(x)), Tensor(y))
        loss.backward()
        optimizer.clip_gradients(5.0)
        optimizer.step()

        fused_model = build()
        trainer = FusedTrainer(
            fused_model,
            Adam(fused_model.parameters(), learning_rate=0.01),
            loss="mse",
            gradient_clip=5.0,
        )
        fused_loss = trainer.step(x, y)

        assert abs(fused_loss - loss.item()) <= GRADIENT_TOLERANCE
        graph_state = graph_model.state_dict()
        for name, value in fused_model.state_dict().items():
            assert np.abs(value - graph_state[name]).max() <= GRADIENT_TOLERANCE

    def test_repeated_steps_reduce_loss(self, rng):
        x = rng.normal(size=(32, 8, 3))
        y = (x[:, -1, :1] * 0.5) + 0.1
        model = Sequential(LSTM(3, 8, seed=4), Dense(8, 1, seed=5))
        trainer = FusedTrainer(model, Adam(model.parameters(), learning_rate=0.01))
        losses = [trainer.step(x, y) for _ in range(30)]
        assert losses[-1] < losses[0]


class TestPredictorFitParity:
    @pytest.fixture(scope="class")
    def fit_pair(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        windows, targets, _ = tiny_zoo.dataset.from_record(record, "train")
        windows, targets = windows[:200], targets[:200]
        predictors = {}
        for fast in (False, True):
            predictor = GlucosePredictor(epochs=3, hidden_size=8, seed=21)
            if fast:
                predictor.fit(windows, targets)
            else:
                predictor.fit_graph(windows, targets)
            predictors[fast] = predictor
        return predictors

    def test_loss_curves_match_step_for_step(self, fit_pair):
        graph_losses = np.asarray(fit_pair[False].history_.epoch_losses)
        fused_losses = np.asarray(fit_pair[True].history_.epoch_losses)
        assert graph_losses.shape == fused_losses.shape
        assert np.abs(graph_losses - fused_losses).max() <= LOSS_CURVE_TOLERANCE

    def test_final_weights_match(self, fit_pair):
        graph_state = fit_pair[False].state_dict()
        for name, value in fit_pair[True].state_dict().items():
            assert np.abs(value - graph_state[name]).max() <= 1e-6

    def test_fused_and_graph_predictions_agree(self, fit_pair, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        windows, _, _ = tiny_zoo.dataset.from_record(record, "test")
        graph_predictions = fit_pair[False].predict_graph(windows[:20])
        fused_predictions = fit_pair[True].predict(windows[:20])
        assert np.abs(graph_predictions - fused_predictions).max() <= 1e-4


class TestMADGANFitParity:
    @pytest.fixture(scope="class")
    def fit_pair(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        windows = windows[:160]
        detectors = {}
        for fast in (False, True):
            detector = MADGANDetector(epochs=2, hidden_size=8, inversion_steps=3, seed=13)
            if fast:
                detector.fit(windows)
            else:
                detector.fit_graph(windows)
            detectors[fast] = detector
        return detectors

    def test_loss_curves_match_step_for_step(self, fit_pair):
        for attribute in ("generator_losses", "discriminator_losses"):
            graph_losses = np.asarray(getattr(fit_pair[False].history_, attribute))
            fused_losses = np.asarray(getattr(fit_pair[True].history_, attribute))
            assert graph_losses.shape == fused_losses.shape
            assert np.abs(graph_losses - fused_losses).max() <= LOSS_CURVE_TOLERANCE

    def test_trained_weights_match(self, fit_pair):
        for module in ("generator", "discriminator"):
            graph_state = getattr(fit_pair[False], module).state_dict()
            for name, value in getattr(fit_pair[True], module).state_dict().items():
                assert np.abs(value - graph_state[name]).max() <= 1e-6

    def test_calibrated_thresholds_match(self, fit_pair):
        assert (
            abs(
                fit_pair[False].calibrator.threshold_
                - fit_pair[True].calibrator.threshold_
            )
            <= 1e-4
        )

    def test_generator_step_keeps_discriminator_frozen(self, fit_pair):
        """After a fused fit, the discriminator must be trainable again."""
        detector = fit_pair[True]
        assert all(
            parameter.requires_grad
            for parameter in detector.discriminator.parameters()
        )


class TestTrainingParitySmoke:
    """Wire scripts/check_parity.py's training parity into the tier-1 flow."""

    def test_training_parity_passes(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_training_parity(tiny_zoo, tiny_cohort)
        assert report["gradient_gap"] <= check_parity.GRADIENT_TOLERANCE
        assert report["predictor_loss_gap"] <= check_parity.LOSS_CURVE_TOLERANCE
        assert report["madgan_loss_gap"] <= check_parity.LOSS_CURVE_TOLERANCE
