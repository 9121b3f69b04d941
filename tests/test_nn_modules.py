"""Tests for layers, losses, optimizers, and batching."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    BatchIterator,
    Dense,
    Dropout,
    Parameter,
    SGD,
    Sequential,
    Tensor,
    binary_cross_entropy_with_logits,
    initialize,
    mse_loss,
)
from repro.nn.module import apply_activation


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 3, seed=0)
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 3)

    def test_parameters_count(self):
        layer = Dense(4, 3, seed=0)
        assert layer.count_parameters() == 4 * 3 + 3

    def test_no_bias_option(self):
        layer = Dense(4, 3, use_bias=False, seed=0)
        assert layer.count_parameters() == 12

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_activation_applied(self):
        layer = Dense(2, 2, activation="relu", seed=0)
        layer.weight.data = -np.ones((2, 2))
        layer.bias.data = np.zeros(2)
        output = layer(Tensor(np.ones((1, 2)))).numpy()
        np.testing.assert_array_equal(output, 0.0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            apply_activation(Tensor([1.0]), "swishy")

    def test_seeded_initialization_reproducible(self):
        first = Dense(3, 3, seed=7).weight.data
        second = Dense(3, 3, seed=7).weight.data
        np.testing.assert_array_equal(first, second)


class TestSequentialAndModule:
    def test_forward_composition(self):
        model = Sequential(Dense(2, 4, activation="tanh", seed=0), Dense(4, 1, seed=1))
        assert model(Tensor(np.zeros((3, 2)))).shape == (3, 1)

    def test_parameters_deduplicated(self):
        layer = Dense(2, 2, seed=0)
        model = Sequential(layer, Activation("relu"))
        assert len(model.parameters()) == 2

    def test_state_dict_roundtrip(self):
        model = Sequential(Dense(2, 3, seed=0), Dense(3, 1, seed=1))
        state = model.state_dict()
        clone = Sequential(Dense(2, 3, seed=5), Dense(3, 1, seed=6))
        clone.load_state_dict(state)
        inputs = Tensor(np.ones((2, 2)))
        np.testing.assert_allclose(model(inputs).numpy(), clone(inputs).numpy())

    def test_load_state_dict_rejects_mismatch(self):
        model = Sequential(Dense(2, 3, seed=0))
        with pytest.raises(ValueError):
            model.load_state_dict({"bogus": np.zeros(3)})

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5, seed=0), Dense(2, 2, seed=0))
        model.eval()
        assert all(not child.training for child in model.children())
        model.train()
        assert all(child.training for child in model.children())

    def test_named_parameters_paths(self):
        model = Sequential(Dense(2, 2, seed=0))
        names = set(model.named_parameters())
        assert any("weight" in name for name in names)
        assert any("bias" in name for name in names)

    def test_zero_grad_clears(self):
        layer = Dense(2, 1, seed=0)
        (layer(Tensor(np.ones((1, 2)))).sum()).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_requires_grad_toggle_freezes_parameters(self):
        model = Sequential(Dense(2, 3, seed=0), Dense(3, 1, seed=1))
        model.requires_grad_(False)
        inputs = Tensor(np.ones((2, 2)), requires_grad=True)
        model(inputs).sum().backward()
        # Frozen parameters accumulate nothing; differentiable inputs still do.
        assert all(parameter.grad is None for parameter in model.parameters())
        assert inputs.grad is not None
        model.requires_grad_(True)
        model(Tensor(np.ones((2, 2)))).sum().backward()
        assert all(parameter.grad is not None for parameter in model.parameters())


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, seed=0)
        layer.eval()
        inputs = np.ones((4, 4))
        np.testing.assert_array_equal(layer(Tensor(inputs)).numpy(), inputs)

    def test_train_mode_zeroes_some_entries(self):
        layer = Dropout(0.5, seed=0)
        output = layer(Tensor(np.ones((20, 20)))).numpy()
        assert np.any(output == 0.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLosses:
    def test_mse_value(self):
        assert mse_loss(Tensor([1.0, 3.0]), Tensor([1.0, 1.0])).item() == pytest.approx(2.0)

    def test_bce_with_logits_matches_probability_form(self):
        logits = np.array([2.0, -1.0, 0.5])
        targets = np.array([1.0, 0.0, 1.0])
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(
            targets * np.log(probabilities) + (1 - targets) * np.log(1 - probabilities)
        )
        value = binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        assert value == pytest.approx(expected, rel=1e-6)

    def test_mse_gradient_is_scaled_difference(self):
        predictions = Tensor(np.array([1.0, 3.0, -2.0]), requires_grad=True)
        targets = np.array([0.5, 1.0, -2.0])
        mse_loss(predictions, Tensor(targets)).backward()
        np.testing.assert_allclose(predictions.grad, 2.0 * (predictions.data - targets) / 3.0)

    def test_bce_with_logits_gradient_is_sigmoid_minus_target(self):
        # Away from logit 0: there ``abs``/``relu`` take subgradient 0 and the
        # graph's gradient is ``-target``, not ``sigmoid(0) - target``.
        logits = Tensor(np.array([2.0, -1.0, 0.5, -0.25]), requires_grad=True)
        targets = np.array([1.0, 0.0, 0.0, 1.0])
        binary_cross_entropy_with_logits(logits, Tensor(targets)).backward()
        probabilities = 1.0 / (1.0 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (probabilities - targets) / 4.0, rtol=1e-12)

    def test_bce_with_logits_finite_at_extreme_logits(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        confident_right = binary_cross_entropy_with_logits(logits, Tensor([1.0, 0.0])).item()
        confident_wrong = binary_cross_entropy_with_logits(logits, Tensor([0.0, 1.0])).item()
        assert confident_right == pytest.approx(0.0, abs=1e-12)
        assert confident_wrong == pytest.approx(1000.0)


class TestOptimizers:
    def _quadratic_problem(self):
        parameter = Parameter(np.array([5.0, -3.0]))

        def loss_fn():
            return (Tensor(parameter.data * 0.0) + parameter * parameter).sum()

        return parameter, loss_fn

    def test_sgd_reduces_loss(self):
        parameter, loss_fn = self._quadratic_problem()
        optimizer = SGD([parameter], learning_rate=0.1)
        initial = loss_fn().item()
        for _ in range(50):
            optimizer.zero_grad()
            loss = loss_fn()
            loss.backward()
            optimizer.step()
        assert loss_fn().item() < initial * 1e-3

    def test_sgd_momentum_converges(self):
        parameter, loss_fn = self._quadratic_problem()
        optimizer = SGD([parameter], learning_rate=0.05, momentum=0.9)
        for _ in range(250):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, 0.0, atol=1e-2)

    def test_adam_converges(self):
        parameter, loss_fn = self._quadratic_problem()
        optimizer = Adam([parameter], learning_rate=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, 0.0, atol=1e-3)

    def test_gradient_clipping_bounds_norm(self):
        parameter = Parameter(np.array([100.0]))
        optimizer = SGD([parameter], learning_rate=0.1)
        optimizer.zero_grad()
        (parameter * parameter).sum().backward()
        norm = optimizer.clip_gradients(1.0)
        assert norm > 1.0
        assert np.linalg.norm(parameter.grad) <= 1.0 + 1e-9

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], learning_rate=0.1)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], learning_rate=-1.0)

    def test_weight_decay_shrinks_weights(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = SGD([parameter], learning_rate=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        parameter.grad = np.array([0.0])
        optimizer.step()
        assert abs(parameter.data[0]) < 1.0


def _shuffled_indices(iterator):
    """Replay one epoch of an iterator's shuffle order (same RNG stream)."""
    count = len(iterator.inputs)
    order = iterator._rng.permutation(np.arange(count))
    for start in range(0, count, iterator.batch_size):
        index = order[start : start + iterator.batch_size]
        if iterator.drop_last and len(index) < iterator.batch_size:
            break
        yield index


class TestBatchIterator:
    def test_batch_shapes(self):
        iterator = BatchIterator(np.arange(10).reshape(10, 1), np.arange(10), batch_size=4, shuffle=False)
        batches = list(iterator)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 1)
        assert batches[-1][0].shape == (2, 1)

    def test_drop_last(self):
        iterator = BatchIterator(np.arange(10).reshape(10, 1), batch_size=4, drop_last=True)
        assert len(list(iterator)) == 2

    def test_len_matches_iteration(self):
        iterator = BatchIterator(np.arange(10).reshape(10, 1), batch_size=3)
        assert len(iterator) == len(list(iterator))

    def test_shuffle_reproducible_with_seed(self):
        data = np.arange(20).reshape(20, 1)
        first = [batch[0].copy() for batch in BatchIterator(data, batch_size=5, seed=3)]
        second = [batch[0].copy() for batch in BatchIterator(data, batch_size=5, seed=3)]
        for left, right in zip(first, second):
            np.testing.assert_array_equal(left, right)

    def test_covers_all_samples(self):
        data = np.arange(10).reshape(10, 1)
        # Batches are views into the iterator's reused gather buffer, so a
        # caller retaining them across iterations must copy.
        seen = np.concatenate(
            [batch[0].copy().reshape(-1) for batch in BatchIterator(data, batch_size=3, seed=0)]
        )
        assert sorted(seen.tolist()) == list(range(10))

    def test_batches_reuse_gather_buffer(self):
        """The kernel-floor fix: no per-batch allocation, same values as fancy indexing."""
        data = np.arange(24, dtype=np.float64).reshape(12, 2)
        targets = np.arange(12, dtype=np.float64)
        iterator = BatchIterator(data, targets, batch_size=5, seed=7)
        reference = BatchIterator(data, targets, batch_size=5, seed=7)
        reference_batches = [
            (b.copy(), t.copy()) for b, t in
            ((data[idx], targets[idx]) for idx in _shuffled_indices(reference))
        ]
        bases = set()
        for (batch, target), (expected, expected_target) in zip(iterator, reference_batches):
            np.testing.assert_array_equal(batch, expected)
            np.testing.assert_array_equal(target, expected_target)
            bases.add(id(batch.base if batch.base is not None else batch))
        # Every full batch aliases the same preallocated storage.
        assert len(bases) == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((5, 1)), np.zeros(4))

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((5, 1)), batch_size=0)


class TestInitializers:
    @pytest.mark.parametrize("name", ["xavier_uniform", "xavier_normal", "he_uniform", "orthogonal"])
    def test_shapes(self, name):
        assert initialize(name, (6, 4), seed=0).shape == (6, 4)

    def test_orthogonal_columns(self):
        matrix = initialize("orthogonal", (8, 8), seed=0)
        np.testing.assert_allclose(matrix.T @ matrix, np.eye(8), atol=1e-8)

    def test_zeros(self):
        assert initialize("zeros", (3,)).sum() == 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            initialize("nope", (2, 2))

    def test_reproducibility(self):
        np.testing.assert_array_equal(
            initialize("xavier_uniform", (4, 4), seed=2),
            initialize("xavier_uniform", (4, 4), seed=2),
        )
