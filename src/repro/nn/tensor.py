"""A small reverse-mode automatic differentiation engine on numpy arrays.

The :class:`Tensor` class wraps a numpy array and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar result propagates
gradients to every tensor created with ``requires_grad=True``.

The engine supports the operations needed by the rest of the library
(dense layers, LSTM cells, GAN losses): elementwise arithmetic with
broadcasting, matrix multiplication, reductions, common nonlinearities,
concatenation, stacking, slicing, and reshaping.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Global switch for graph construction.  When False (inside ``no_grad``),
# every operation produces a plain leaf tensor: no parents, no backward
# closures, no gradient bookkeeping.  Inference-only code paths use this to
# avoid the per-op allocation cost of the autodiff graph.
_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """True when operations record the autodiff graph (the default)."""
    return _GRAD_ENABLED


class no_grad:
    """Context manager that disables autodiff graph construction.

    Inside the context every tensor operation returns a graph-free result
    (``requires_grad=False``, no parents), so forward passes allocate no
    backward closures.  Nesting is supported; the previous state is restored
    on exit.  Can also be used as a decorator.

    >>> with no_grad():
    ...     prediction = model(inputs)  # no graph is recorded
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous

    def __call__(self, function: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            with no_grad():
                return function(*args, **kwargs)

        wrapped.__name__ = getattr(function, "__name__", "wrapped")
        wrapped.__doc__ = function.__doc__
        return wrapped


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` over axes that were broadcast to reach ``gradient.shape``.

    When an operand of shape ``shape`` was broadcast during the forward pass,
    its gradient must be reduced back to ``shape``.
    """
    if gradient.shape == shape:
        return gradient
    # Sum over leading axes added by broadcasting.
    extra_dims = gradient.ndim - len(shape)
    if extra_dims > 0:
        gradient = gradient.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and gradient.shape[axis] != 1
    )
    if axes:
        gradient = gradient.sum(axis=axes, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents
        self.name = name

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self, copy: bool = False) -> np.ndarray:
        """Return the tensor's values as a numpy array.

        .. warning::
            With ``copy=False`` (the default) this returns the tensor's
            **underlying buffer**, not a copy: mutating the returned array
            mutates the tensor (and anything else aliasing it), and the
            array may later be mutated by in-place parameter updates.  Pass
            ``copy=True`` whenever the caller stores the result or hands it
            to code that may write to it.
        """
        return self.data.copy() if copy else self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------ graph helpers
    @staticmethod
    def _coerce(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make_child(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(parent.requires_grad for parent in parents)
        child = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:

            def _backward_closure() -> None:
                backward(child.grad)

            child._backward = _backward_closure
        return child

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad = self.grad + gradient

    def backward(self, gradient: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        gradient:
            Upstream gradient; defaults to 1 for scalar tensors.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        self.grad = np.asarray(gradient, dtype=np.float64).reshape(self.data.shape)

        ordered: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            ordered.append(node)

        visit(self)
        for node in reversed(ordered):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # --------------------------------------------------------------- arithmetic
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make_child(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_child(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make_child(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._make_child(out_data, (self, other), backward)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.__matmul__(other)

    # --------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------ nonlinearities
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_child(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.__pow__(0.5)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_child(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_child(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return self._make_child(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_child(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make_child(out_data, (self,), backward)

    # -------------------------------------------------------------- shape ops
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make_child(out_data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse_axes = None
        else:
            inverse_axes = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse_axes))

        return self._make_child(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_child(out_data, (self,), backward)


# ---------------------------------------------------------------------- joiners
def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(tensor) for tensor in tensors]
    data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
    sizes = [tensor.data.shape[axis] for tensor in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    requires = _GRAD_ENABLED and any(tensor.requires_grad for tensor in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:

        def _backward() -> None:
            pieces = np.split(out.grad, boundaries, axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(piece)

        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [Tensor._coerce(tensor) for tensor in tensors]
    data = np.stack([tensor.data for tensor in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(tensor.requires_grad for tensor in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:

        def _backward() -> None:
            pieces = np.split(out.grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        out._backward = _backward
    return out


def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce ``value`` into a (non-differentiable) tensor if needed."""
    return value if isinstance(value, Tensor) else Tensor(value)
