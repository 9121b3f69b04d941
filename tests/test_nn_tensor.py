"""Tests for the autograd engine, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate, ones, stack, zeros


def numerical_gradient(function, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    gradient = np.zeros_like(value)
    flat = value.reshape(-1)
    gradient_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(value)
        flat[index] = original - epsilon
        lower = function(value)
        flat[index] = original
        gradient_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


def check_gradient(op, shape=(3, 4), seed=0, atol=1e-5):
    """Compare autograd and numerical gradients for a unary tensor op."""
    rng = np.random.default_rng(seed)
    value = rng.uniform(0.2, 1.5, size=shape)

    tensor = Tensor(value.copy(), requires_grad=True)
    output = op(tensor).sum()
    output.backward()
    numerical = numerical_gradient(lambda array: op(Tensor(array)).sum().item(), value.copy())
    np.testing.assert_allclose(tensor.grad, numerical, atol=atol)


class TestBasicOps:
    def test_addition_values(self):
        result = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(result.numpy(), [4.0, 6.0])

    def test_scalar_addition(self):
        np.testing.assert_array_equal((Tensor([1.0]) + 2.0).numpy(), [3.0])
        np.testing.assert_array_equal((2.0 + Tensor([1.0])).numpy(), [3.0])

    def test_subtraction_and_negation(self):
        np.testing.assert_array_equal((Tensor([3.0]) - 1.0).numpy(), [2.0])
        np.testing.assert_array_equal((1.0 - Tensor([3.0])).numpy(), [-2.0])

    def test_multiplication_gradients(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_division_gradient(self):
        check_gradient(lambda t: t / 2.0)
        check_gradient(lambda t: 2.0 / t)

    def test_power_gradient(self):
        check_gradient(lambda t: t**3)

    def test_matmul_values_and_gradient(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        result = a @ b
        np.testing.assert_array_equal(result.numpy(), [[11.0]])
        result.sum().backward()
        np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])
        np.testing.assert_array_equal(b.grad, [[1.0], [2.0]])

    def test_broadcast_add_gradient_reduction(self):
        a = Tensor(np.zeros((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (a + bias).sum().backward()
        np.testing.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        ((a * 3.0) + (a * 4.0)).sum().backward()
        np.testing.assert_array_equal(a.grad, [7.0])

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        detached = (a * 2.0).detach()
        assert not detached.requires_grad


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: t.exp(),
            lambda t: t.log(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.relu(),
            lambda t: t.leaky_relu(0.1),
            lambda t: t.sqrt(),
            lambda t: t.abs(),
        ],
        ids=["exp", "log", "tanh", "sigmoid", "relu", "leaky_relu", "sqrt", "abs"],
    )
    def test_gradients_match_numerical(self, op):
        check_gradient(op)

    def test_sigmoid_saturation_is_stable(self):
        values = Tensor([1000.0, -1000.0]).sigmoid().numpy()
        assert np.all(np.isfinite(values))


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        check_gradient(lambda t: t.sum(axis=0))

    def test_mean_value(self):
        assert Tensor([[1.0, 3.0]]).mean().item() == 2.0

    def test_mean_gradient(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        tensor.mean().backward()
        np.testing.assert_allclose(tensor.grad, 0.25)

    def test_reshape_gradient_shape(self):
        tensor = Tensor(np.arange(6.0), requires_grad=True)
        tensor.reshape(2, 3).sum().backward()
        assert tensor.grad.shape == (6,)

    def test_transpose_values(self):
        tensor = Tensor(np.arange(6.0).reshape(2, 3))
        assert tensor.T.shape == (3, 2)

    def test_getitem_gradient_routing(self):
        tensor = Tensor(np.arange(5.0), requires_grad=True)
        tensor[1:3].sum().backward()
        np.testing.assert_array_equal(tensor.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_concatenate_values_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        joined = concatenate([a, b], axis=1)
        assert joined.shape == (2, 5)
        joined.sum().backward()
        np.testing.assert_allclose(a.grad, 1.0)
        np.testing.assert_allclose(b.grad, 1.0)

    def test_stack_values_and_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        stacked = stack([a, b], axis=0)
        assert stacked.shape == (2, 3)
        (stacked * Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(b.grad, [4.0, 5.0, 6.0])


class TestHelpers:
    def test_zeros_and_ones(self):
        assert zeros((2, 2)).numpy().sum() == 0.0
        assert ones((2, 2)).numpy().sum() == 4.0

    def test_as_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor

    def test_as_tensor_wraps_arrays(self):
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_chained_expression_gradient(self):
        def expression(t):
            return ((t * 2.0 + 1.0).tanh() * t.sigmoid()).sum()

        check_gradient(lambda t: expression(t), shape=(2, 3))
