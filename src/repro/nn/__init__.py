"""A numpy-based neural-network substrate with reverse-mode autodiff.

This package replaces the PyTorch/TensorFlow dependency of the original paper
artifacts.  It provides tensors with automatic differentiation, dense and
recurrent layers (LSTM / bidirectional LSTM), loss functions, and optimizers —
enough to train the target glucose forecaster and the MAD-GAN detector.
"""

from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    stack,
    zeros,
    ones,
)
from repro.nn.module import (
    Activation,
    Dense,
    Dropout,
    Module,
    Parameter,
    Sequential,
    apply_activation,
    apply_activation_array,
    dense_forward,
)
from repro.nn.recurrent import (
    LSTM,
    BiLSTM,
    BiLSTMStreamState,
    LSTMCell,
    LSTMStreamState,
    StreamWeights,
    stream_encode,
)
from repro.nn.functional import (
    binary_cross_entropy,
    binary_cross_entropy_with_logits,
    huber_loss,
    l2_penalty,
    mae_loss,
    mse_loss,
    sigmoid,
)
from repro.nn.fused import (
    FusedTrainer,
    fused_bce_with_logits_loss,
    fused_gaussian_nll_loss,
    fused_kl_standard_normal,
    fused_mse_grad,
    fused_mse_loss,
    fused_vae_loss_head,
)
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.data import BatchIterator
from repro.nn.initializers import get_initializer, initialize

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "is_grad_enabled",
    "no_grad",
    "stack",
    "zeros",
    "ones",
    "Module",
    "Parameter",
    "Dense",
    "Dropout",
    "Activation",
    "Sequential",
    "apply_activation",
    "apply_activation_array",
    "dense_forward",
    "LSTMCell",
    "LSTM",
    "BiLSTM",
    "LSTMStreamState",
    "BiLSTMStreamState",
    "StreamWeights",
    "stream_encode",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "l2_penalty",
    "sigmoid",
    "FusedTrainer",
    "fused_mse_grad",
    "fused_mse_loss",
    "fused_bce_with_logits_loss",
    "fused_gaussian_nll_loss",
    "fused_kl_standard_normal",
    "fused_vae_loss_head",
    "Optimizer",
    "SGD",
    "Adam",
    "BatchIterator",
    "get_initializer",
    "initialize",
]
