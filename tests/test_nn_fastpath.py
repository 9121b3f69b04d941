"""Equivalence tests for the graph-free inference fast path.

The regression guarantee: for every layer and for the full glucose
forecaster, the ``no_grad``/eval fast path must match the autodiff forward
to within 1e-10 on random batches.
"""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    BiLSTM,
    Dense,
    Dropout,
    LSTM,
    Sequential,
    Tensor,
    is_grad_enabled,
    no_grad,
)

TOLERANCE = 1e-10


def max_diff(a: np.ndarray, b: np.ndarray) -> float:
    assert a.shape == b.shape
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class TestNoGrad:
    def test_disables_graph_construction(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            y = (x * 2.0 + 1.0).sum()
        assert not y.requires_grad
        assert y._parents == ()
        assert y._backward is None

    def test_restores_state_and_nests(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_values_match_graph_path(self):
        x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4), requires_grad=True)
        graph = (x.tanh() * x.sigmoid()).sum()
        with no_grad():
            fast = (x.tanh() * x.sigmoid()).sum()
        assert max_diff(graph.numpy(), fast.numpy()) == 0.0

    def test_usable_as_decorator(self):
        @no_grad()
        def infer(tensor):
            return tensor * 3.0

        result = infer(Tensor(np.ones(4), requires_grad=True))
        assert not result.requires_grad


class TestTensorNumpyCopy:
    def test_numpy_default_aliases_buffer(self):
        tensor = Tensor(np.zeros(3))
        view = tensor.numpy()
        view[0] = 42.0
        assert tensor.data[0] == 42.0

    def test_numpy_copy_is_independent(self):
        tensor = Tensor(np.zeros(3))
        copied = tensor.numpy(copy=True)
        copied[0] = 42.0
        assert tensor.data[0] == 0.0


class TestLayerFastPaths:
    @pytest.mark.parametrize("activation", [None, "linear", "tanh", "sigmoid", "relu", "leaky_relu"])
    def test_dense(self, rng, activation):
        layer = Dense(6, 4, activation=activation, seed=3)
        x = rng.normal(size=(17, 6))
        assert max_diff(layer(Tensor(x)).numpy(), layer.fast_forward(x)) <= TOLERANCE

    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm(self, rng, return_sequences, reverse):
        layer = LSTM(4, 8, return_sequences=return_sequences, reverse=reverse, seed=7)
        x = rng.normal(size=(9, 12, 4))
        assert max_diff(layer(Tensor(x)).numpy(), layer.fast_forward(x)) <= TOLERANCE

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_bilstm(self, rng, return_sequences):
        layer = BiLSTM(4, 8, return_sequences=return_sequences, seed=11)
        x = rng.normal(size=(9, 12, 4))
        assert max_diff(layer(Tensor(x)).numpy(), layer.fast_forward(x)) <= TOLERANCE

    def test_activation_layer(self, rng):
        layer = Activation("tanh")
        x = rng.normal(size=(5, 3))
        assert max_diff(layer(Tensor(x)).numpy(), layer.fast_forward(x)) == 0.0

    def test_dropout_fast_path_is_identity_even_in_training(self, rng):
        layer = Dropout(rate=0.5, seed=0)
        layer.train()
        x = rng.normal(size=(20, 6))
        np.testing.assert_array_equal(layer.fast_forward(x), x)

    def test_sequential_full_stack(self, rng):
        model = Sequential(
            BiLSTM(4, 8, seed=1),
            Dense(16, 8, activation="tanh", seed=2),
            Dropout(rate=0.3, seed=3),
            Dense(8, 1, seed=4),
        )
        model.eval()
        x = rng.normal(size=(21, 12, 4))
        assert max_diff(model(Tensor(x)).numpy(), model.fast_forward(x)) <= TOLERANCE

    def test_module_predict_restores_training_flags(self, rng):
        model = Sequential(Dense(4, 4, seed=0), Dropout(rate=0.4, seed=1))
        model.train()
        model.predict(rng.normal(size=(3, 4)))
        assert model.training
        assert all(layer.training for layer in model.layers)

    def test_fallback_fast_forward_matches_forward(self, rng):
        # A module without a hand-written fast path falls back to no_grad().
        from repro.nn import Module, as_tensor

        class Doubler(Module):
            def forward(self, inputs):
                return as_tensor(inputs) * 2.0

        x = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(Doubler().fast_forward(x), x * 2.0)

    def test_property_random_shapes(self):
        # Property-style sweep: random widths/batches, several seeds.
        for seed in range(5):
            local = np.random.default_rng(seed)
            batch = int(local.integers(1, 24))
            hidden = int(local.integers(2, 20))
            layer = BiLSTM(4, hidden, seed=seed)
            head = Dense(2 * hidden, 1, seed=seed + 100)
            x = local.normal(size=(batch, 12, 4))
            graph = head(layer(Tensor(x))).numpy()
            fast = head.fast_forward(layer.fast_forward(x))
            assert max_diff(graph, fast) <= TOLERANCE


class TestPredictorFastPath:
    def test_predict_matches_graph_path(self, tiny_zoo, tiny_cohort):
        predictor = tiny_zoo.model_for("A_5")
        record = next(r for r in tiny_cohort if r.label == "A_5")
        windows, _, _ = tiny_zoo.dataset.from_record(record, "test")
        fast = predictor.predict(windows)
        graph = predictor.predict_graph(windows)
        assert max_diff(fast, graph) <= TOLERANCE

    def test_predict_one_matches_batched_predict(self, tiny_zoo, tiny_cohort):
        predictor = tiny_zoo.model_for("A_5")
        record = next(r for r in tiny_cohort if r.label == "A_5")
        windows, _, _ = tiny_zoo.dataset.from_record(record, "test")
        batched = predictor.predict(windows[:6])
        singles = np.array([predictor.predict_one(window) for window in windows[:6]])
        assert max_diff(batched, singles) <= TOLERANCE
