"""Loss functions and small functional helpers for training."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def mse_loss(predictions, targets) -> Tensor:
    """Mean squared error between predictions and targets."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    difference = predictions - targets
    return (difference * difference).mean()


def binary_cross_entropy_with_logits(logits, targets) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits."""
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    # log(1 + exp(-|x|)) + max(x, 0) - x * target.  At x = 0 the derivatives
    # of max(x, 0) and |x| are taken as 1 and +1, so the gradient there is
    # sigmoid(0) - target like everywhere else.
    nonnegative = logits.data >= 0
    softplus = (1.0 + (-(logits * np.where(nonnegative, 1.0, -1.0))).exp()).log()
    return (logits * nonnegative - logits * targets + softplus).mean()


#: Row granularity of :func:`pad_rows` and :func:`rowwise_matmul`.
ROW_BLOCK = 8


def pad_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` extended to a whole number of :data:`ROW_BLOCK` rows.

    The extra rows repeat the last one.  A float64 BLAS product rounds a row
    differently depending on how many rows share the call: a single row
    takes numpy's gemv path, and OpenBLAS sends the trailing ``n % 8`` rows
    of a batch through narrower kernels.  Padding keeps every row of a batch
    in a full block, so batch-invariant scorers (the LSTM-VAE) run their
    whole batch padded and keep the first ``len(rows)`` results.
    """
    extra = -len(rows) % ROW_BLOCK
    if not extra:
        return rows
    return np.concatenate([rows, np.repeat(rows[-1:], extra, axis=0)])


def rowwise_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` whose every row is independent of the other rows.

    Every BLAS call sees exactly :data:`ROW_BLOCK` rows (:func:`pad_rows`,
    then one stacked matmul over the blocks), so a row's bits depend only
    on the row and ``right``: splitting or merging batches never changes a
    result.  One padded call alone is not enough here, because for some
    widths OpenBLAS rounds a row differently as the batch grows.  ``right``
    may be a matrix or a column ``(k, 1)``.
    """
    rows, width = left.shape
    product = pad_rows(left).reshape(-1, ROW_BLOCK, width) @ right
    return product.reshape(-1, right.shape[1])[:rows]


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Plain numpy sigmoid (for non-differentiable post-processing).

    Uses the same clipped formulation as :meth:`Tensor.sigmoid`, so the
    graph-free inference fast path matches the autodiff forward byte for
    byte: :func:`sigmoid_` on a copy in ``values``' floating dtype.
    """
    values = np.asarray(values)
    return sigmoid_(np.array(values, dtype=np.result_type(values, 1.0)))


def sigmoid_(values: np.ndarray) -> np.ndarray:
    """In-place :func:`sigmoid` (the LSTM kernels' hot path).

    Computes ``1 / (1 + exp(-clip(x, -60, 60)))`` byte for byte, writing every
    intermediate back into ``values``.  The negation runs first and the clamp
    follows as ``np.maximum``/``np.minimum``: the bound is symmetric, so
    ``clip(-x) == -clip(x)`` exactly, and the two ufuncs skip ``clip``'s
    Python-level wrapper (six ufunc calls, no allocation).
    """
    np.negative(values, out=values)
    np.maximum(values, -60.0, out=values)
    np.minimum(values, 60.0, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.divide(1.0, values, out=values)
    return values


def tanh(values: np.ndarray) -> np.ndarray:
    """Plain numpy tanh (mirrors :meth:`Tensor.tanh` for the fast path)."""
    return np.tanh(values)


def relu(values: np.ndarray) -> np.ndarray:
    """Plain numpy ReLU, computed as ``x * (x > 0)`` to mirror :meth:`Tensor.relu`."""
    values = np.asarray(values)
    return values * (values > 0)


def leaky_relu(values: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """Plain numpy leaky ReLU (mirrors :meth:`Tensor.leaky_relu`)."""
    values = np.asarray(values)
    return np.where(values > 0, values, negative_slope * values)
