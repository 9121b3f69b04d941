"""Layer abstractions built on the autograd :class:`~repro.nn.tensor.Tensor`."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.fused import add_matmul_grad, add_sum_grad
from repro.nn.initializers import get_initializer
from repro.nn.tensor import Tensor, as_tensor, no_grad
from repro.utils.rng import as_random_state

_ACTIVATIONS = {
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "linear": lambda x: x,
    None: lambda x: x,
}

# Graph-free numpy twins of the tensor activations, used by the inference
# fast path.  Each mirrors the corresponding Tensor op bit-for-bit.
_ACTIVATION_ARRAYS = {
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "relu": F.relu,
    "leaky_relu": F.leaky_relu,
    "linear": lambda x: x,
    None: lambda x: x,
}


def apply_activation(value: Tensor, activation: Optional[str]) -> Tensor:
    """Apply a named activation function to a tensor."""
    if activation not in _ACTIVATIONS:
        raise ValueError(
            f"unknown activation {activation!r}; available: "
            f"{sorted(key for key in _ACTIVATIONS if key)}"
        )
    return _ACTIVATIONS[activation](value)


def apply_activation_array(values: np.ndarray, activation: Optional[str]) -> np.ndarray:
    """Apply a named activation to a raw numpy array (inference fast path)."""
    if activation not in _ACTIVATION_ARRAYS:
        raise ValueError(
            f"unknown activation {activation!r}; available: "
            f"{sorted(key for key in _ACTIVATION_ARRAYS if key)}"
        )
    return _ACTIVATION_ARRAYS[activation](values)


def dense_forward(inputs, weight, bias, activation: Optional[str]) -> np.ndarray:
    """``activation(inputs @ weight + bias)`` on raw arrays (``bias`` may be None).

    :meth:`Dense.fast_forward` is the one-layer call.  Leading stack axes are
    allowed: the stacked serving step passes ``(L, n, in)`` inputs against
    ``(L, in, out)`` weights and ``(L, 1, out)`` biases, and each slice makes
    the same BLAS call and elementwise ops as that layer's own call.
    """
    output = inputs @ weight
    if bias is not None:
        output = output + bias
    return apply_activation_array(output, activation)


def _activation_backward_state(
    pre_activation: np.ndarray, output: np.ndarray, activation: Optional[str]
):
    """What the fused backward of a named activation needs from the forward."""
    if activation in ("tanh", "sigmoid"):
        return output  # both derivatives are functions of the output
    if activation in ("relu", "leaky_relu"):
        return pre_activation > 0  # the masks Tensor.relu/leaky_relu use
    return None  # linear / None: identity


def _activation_backward(
    grad_output: np.ndarray, state, activation: Optional[str]
) -> np.ndarray:
    """Gradient through a named activation, mirroring the Tensor backward ops."""
    if activation == "tanh":
        return grad_output * (1.0 - state**2)
    if activation == "sigmoid":
        return grad_output * state * (1.0 - state)
    if activation == "relu":
        return grad_output * state
    if activation == "leaky_relu":
        return grad_output * np.where(state, 1.0, 0.01)
    return grad_output


class Parameter(Tensor):
    """A tensor that is registered as trainable by its owning module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses register :class:`Parameter` instances (directly or inside child
    modules) and implement :meth:`forward`.
    """

    def __init__(self):
        self.training = True

    def forward(self, *inputs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs):
        return self.forward(*inputs)

    # ------------------------------------------------------------- inference
    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        """Graph-free forward pass on raw numpy arrays.

        Subclasses with a hand-written fast path (fused matmuls, preallocated
        buffers) override this; the default falls back to :meth:`forward`
        under :class:`~repro.nn.tensor.no_grad`, which still skips all
        backward-closure allocation.  Implementations must match the autodiff
        forward to within 1e-10 (see ``tests/test_nn_fastpath.py``).
        """
        with no_grad():
            output = self.forward(inputs)
        return output.numpy(copy=True) if isinstance(output, Tensor) else np.asarray(output)

    def predict(self, inputs) -> np.ndarray:
        """Batched eval-mode inference without building the autodiff graph.

        Temporarily switches the module tree to evaluation mode (so dropout
        and friends are no-ops), runs the graph-free fast path, and restores
        the previous training flags.  This is the entry point the attack hot
        path uses for its thousands of model queries.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        flags = [(module, module.training) for module in self.modules()]
        try:
            for module, _ in flags:
                module.training = False
            return self.fast_forward(inputs)
        finally:
            for module, was_training in flags:
                module.training = was_training

    # ------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        """Graph-free *training* forward: returns ``(output, cache)``.

        Unlike :meth:`fast_forward` (inference only), the cache holds every
        activation the hand-written backward needs, so
        :meth:`fused_backward_train` can compute full parameter gradients
        without the autodiff graph.  Layers without an analytic backward do
        not implement this — train them through the graph.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no fused training path; train it "
            "through the autodiff graph (module(Tensor(x)) + loss.backward())"
        )

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        """Hand-written backward for :meth:`fused_forward_train`.

        Accumulates parameter gradients into ``parameter.grad`` with the same
        semantics as the autodiff engine (``None`` → set, otherwise add;
        frozen parameters are skipped entirely) and returns the gradient with
        respect to the layer's inputs.  Pinned to the graph backward within
        1e-8 by ``tests/test_nn_fused.py``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no fused training path; train it "
            "through the autodiff graph (module(Tensor(x)) + loss.backward())"
        )

    def fused_grads(self, inputs: np.ndarray, grad_output: np.ndarray):
        """One-shot fused forward + backward: ``(output, grad_inputs)``.

        ``grad_output`` is the upstream gradient seeding the backward pass
        (what ``output.backward(grad_output)`` would seed on the graph path).
        Parameter gradients are accumulated into each ``parameter.grad``;
        the per-parameter gradient buffers are preallocated and reused across
        calls, so steady-state training steps allocate nothing for them.
        """
        output, cache = self.fused_forward_train(inputs)
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != np.shape(output):
            raise ValueError(
                f"grad_output must match the output shape {np.shape(output)}, "
                f"got {grad_output.shape}"
            )
        return output, self.fused_backward_train(grad_output, cache)

    def _fused_buffers(self) -> Dict[str, np.ndarray]:
        """Lazily created per-parameter gradient buffers (see fused.py)."""
        buffers = getattr(self, "_fused_grad_buffers", None)
        if buffers is None:
            buffers = self._fused_grad_buffers = {}
        return buffers

    # ------------------------------------------------------------- traversal
    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for child in self.children():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters in this module and its children."""
        found: List[Parameter] = []
        seen = set()
        for value in self.__dict__.values():
            candidates: Sequence = value if isinstance(value, (list, tuple)) else (value,)
            for candidate in candidates:
                if isinstance(candidate, Parameter) and id(candidate) not in seen:
                    seen.add(id(candidate))
                    found.append(candidate)
                elif isinstance(candidate, Module):
                    for parameter in candidate.parameters():
                        if id(parameter) not in seen:
                            seen.add(id(parameter))
                            found.append(parameter)
        return found

    def named_parameters(self, prefix: str = "") -> Dict[str, Parameter]:
        """Return a flat ``{path: parameter}`` mapping."""
        named: Dict[str, Parameter] = {}
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                named[path] = value
            elif isinstance(value, Module):
                named.update(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    item_path = f"{path}.{index}"
                    if isinstance(item, Parameter):
                        named[item_path] = item
                    elif isinstance(item, Module):
                        named.update(item.named_parameters(prefix=f"{item_path}."))
        return named

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def requires_grad_(self, flag: bool) -> "Module":
        """Enable or disable gradient tracking for every parameter.

        With tracking off, forward passes still build the graph along any
        differentiable *inputs* (e.g. an optimized latent), but backward skips
        every parameter-gradient computation — the weight-gradient matrix
        multiplications, bias reductions, and gradient buffers.  Use this to
        differentiate through a frozen network — e.g. the MAD-GAN generator
        step freezes the discriminator while backpropagating through it.
        Restore with ``requires_grad_(True)`` before training the frozen
        module; optimizers expect it on.
        """
        for parameter in self.parameters():
            parameter.requires_grad = bool(flag)
        return self

    def train(self) -> "Module":
        """Put the module (and children) into training mode."""
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        """Put the module (and children) into evaluation mode."""
        self.training = False
        for child in self.children():
            child.eval()
        return self

    # ---------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter's value keyed by path."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        named = self.named_parameters()
        missing = set(named) - set(state)
        unexpected = set(state) - set(named)
        if missing or unexpected:
            raise ValueError(
                f"state_dict mismatch; missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()

    def count_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(parameter.data.size for parameter in self.parameters()))

    def state_hash(self) -> str:
        """Deterministic fingerprint of every parameter (paths, shapes, values).

        Two modules share a hash exactly when :meth:`state_dict` would return
        byte-identical weights under the same parameter paths — e.g. a model
        and a separately constructed copy loaded via :meth:`load_state_dict`.
        Used to merge identical models into one batched lane/search instead of
        relying on object identity.
        """
        digest = hashlib.sha256()
        for name, parameter in sorted(self.named_parameters().items()):
            digest.update(name.encode())
            digest.update(str(parameter.data.shape).encode())
            digest.update(np.ascontiguousarray(parameter.data).tobytes())
        return digest.hexdigest()


class Dense(Module):
    """A fully connected layer ``y = activation(x @ W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    activation:
        Optional activation name (``tanh``, ``sigmoid``, ``relu``, ...).
    weight_init:
        Initializer name for the weight matrix.
    seed:
        Seed or :class:`RandomState` for initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[str] = None,
        weight_init: str = "xavier_uniform",
        use_bias: bool = True,
        seed=None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = as_random_state(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.use_bias = use_bias
        initializer = get_initializer(weight_init)
        self.weight = Parameter(initializer((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if use_bias else None

    def forward(self, inputs) -> Tensor:
        inputs = as_tensor(inputs)
        output = inputs @ self.weight
        if self.bias is not None:
            output = output + self.bias
        return apply_activation(output, self.activation)

    # The fast and fused paths run in the weights' dtype (float64 unless a
    # caller swapped in float32 copies, as MAD-GAN's inversion does).
    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        return dense_forward(
            np.asarray(inputs, dtype=self.weight.data.dtype),
            self.weight.data,
            None if self.bias is None else self.bias.data,
            self.activation,
        )

    # ------------------------------------------------------------- training
    # Leading stack axes are allowed, as in dense_forward; a stacked cache
    # backs only a frozen backward.
    def fused_forward_train(self, inputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=self.weight.data.dtype)
        if inputs.ndim < 2:
            raise ValueError(
                f"Dense fused training expects (batch, features) inputs, got {inputs.shape}"
            )
        pre_activation = inputs @ self.weight.data
        if self.bias is not None:
            pre_activation = pre_activation + self.bias.data
        output = apply_activation_array(pre_activation, self.activation)
        cache = (
            inputs,
            _activation_backward_state(pre_activation, output, self.activation),
        )
        return output, cache

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        inputs, activation_state = cache
        grad_pre = _activation_backward(
            np.asarray(grad_output, dtype=self.weight.data.dtype),
            activation_state,
            self.activation,
        )
        if inputs.ndim > 2 and any(parameter.requires_grad for parameter in self.parameters()):
            raise ValueError("a stacked fused backward needs frozen weights")
        buffers = self._fused_buffers()
        add_matmul_grad(self.weight, buffers, "weight", inputs.T, grad_pre)
        if self.bias is not None:
            # The bias was broadcast over the batch; its gradient is the
            # row-sum, exactly what the graph's _unbroadcast computes.
            add_sum_grad(self.bias, buffers, "bias", grad_pre, axis=0)
        return grad_pre @ self.weight.data.T


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, rate: float = 0.5, seed=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_random_state(seed)

    def forward(self, inputs) -> Tensor:
        inputs = as_tensor(inputs)
        if not self.training or self.rate == 0.0:
            return inputs
        keep_probability = 1.0 - self.rate
        mask = (self._rng.random(inputs.shape) < keep_probability) / keep_probability
        return inputs * Tensor(mask)

    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        # Inference fast path == eval mode: dropout is always the identity.
        return np.asarray(inputs, dtype=np.float64)

    # ------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        if self.training and self.rate:
            raise NotImplementedError(
                "Dropout has no fused training path (its mask draws from the "
                "layer RNG, which the fused engine does not replicate); train "
                "dropout models through the autodiff graph"
            )
        return np.asarray(inputs, dtype=np.float64), None

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64)


class Activation(Module):
    """A standalone activation layer."""

    def __init__(self, activation: str):
        super().__init__()
        if activation not in _ACTIVATIONS or activation is None:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation

    def forward(self, inputs) -> Tensor:
        return apply_activation(as_tensor(inputs), self.activation)

    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        return apply_activation_array(np.asarray(inputs, dtype=np.float64), self.activation)

    # ------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        output = apply_activation_array(inputs, self.activation)
        return output, _activation_backward_state(inputs, output, self.activation)

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        return _activation_backward(
            np.asarray(grad_output, dtype=np.float64), cache, self.activation
        )


class Sequential(Module):
    """Compose modules by calling them in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def forward(self, inputs) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        output = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            output = layer.fast_forward(output)
        return output

    # ------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        output = np.asarray(inputs, dtype=np.float64)
        caches = []
        for layer in self.layers:
            output, cache = layer.fused_forward_train(output)
            caches.append(cache)
        return output, caches

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer, layer_cache in zip(reversed(self.layers), reversed(cache)):
            grad = layer.fused_backward_train(grad, layer_cache)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
