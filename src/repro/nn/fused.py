"""Graph-free fused training engine: losses, gradient buffers, step driver.

Training, until this module, was the last subsystem that ran entirely through
the autodiff graph: every LSTM timestep of every batch allocated a dozen
``Tensor`` nodes with backward closures, and ``loss.backward()`` re-walked
them all.  The fused engine replaces that with hand-written analytic backward
passes (see ``fused_forward_train`` / ``fused_backward_train`` on ``Dense``,
``LSTM``, ``BiLSTM``, ``Sequential`` and the one-shot ``Module.fused_grads``)
plus the two loss heads the repository trains with:

* :func:`fused_mse_loss` — the predictor's regression objective (and
  :func:`fused_mse_grad`, its gradient alone),
* :func:`fused_bce_with_logits_loss` — the MAD-GAN generator/discriminator
  objective, and
* :func:`fused_vae_loss_head` — the LSTM-VAE ELBO (analytic
  :func:`fused_kl_standard_normal` KL + :func:`fused_gaussian_nll_loss`
  reconstruction likelihood), whose gradients seed the detector's
  reparameterized encoder/decoder backward chain.

Both return ``(loss_value, grad_wrt_inputs)`` and mirror the corresponding
autodiff ops operation-for-operation (same clipped sigmoid, same
``sum * (1/count)`` mean, same doubled-residual MSE seeding), so fused
gradients match the graph within 1e-8 and fixed-seed training runs produce
step-for-step matching loss curves.  With a module frozen
(``requires_grad_(False)``) the same kernels compute only the input
gradient: MAD-GAN's generator inversion
(:meth:`~repro.detectors.madgan.MADGANDetector._invert_fast`) runs on them
to get the latent gradient, in float32 — the layer kernels and
:func:`fused_mse_loss` run in the dtype of the weights they are given.

Parameter gradients are accumulated with the same semantics as
:meth:`Tensor._accumulate` (``None`` → set, otherwise add), writing the first
contribution into a preallocated per-parameter buffer so a steady-state
training step allocates nothing for its weight gradients.

:class:`FusedTrainer` packages the whole step (zero-grad, fused forward,
loss head, fused backward, clip, optimizer step) and plugs into the existing
:mod:`repro.nn.optim` optimizers unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

LossHead = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]


# ------------------------------------------------------------- accumulation
def add_matmul_grad(
    parameter, buffers: Dict[str, np.ndarray], key: str, a: np.ndarray, b: np.ndarray
) -> None:
    """Accumulate ``a @ b`` into ``parameter.grad`` (skip if grads are off).

    Mirrors the autodiff accumulation contract: a parameter whose ``grad`` is
    ``None`` gets the product written into a reusable preallocated buffer
    (``buffers[key]``); later contributions add on top.  Frozen parameters
    (``requires_grad=False``) skip the matrix multiplication entirely — this
    is what makes the MAD-GAN generator step cheap while the discriminator
    is frozen.
    """
    if not parameter.requires_grad:
        return
    if parameter.grad is None:
        buffer = buffers.get(key)
        if buffer is None or buffer.shape != parameter.data.shape:
            buffer = buffers[key] = np.empty_like(parameter.data)
        np.matmul(a, b, out=buffer)
        parameter.grad = buffer
    else:
        parameter.grad += a @ b


def add_sum_grad(
    parameter, buffers: Dict[str, np.ndarray], key: str, values: np.ndarray, axis
) -> None:
    """Accumulate ``values.sum(axis)`` into ``parameter.grad`` (bias reduction)."""
    if not parameter.requires_grad:
        return
    if parameter.grad is None:
        buffer = buffers.get(key)
        if buffer is None or buffer.shape != parameter.data.shape:
            buffer = buffers[key] = np.empty_like(parameter.data)
        np.sum(values, axis=axis, out=buffer)
        parameter.grad = buffer
    else:
        parameter.grad += values.sum(axis=axis)


# ------------------------------------------------------------------- losses
def _mse_terms(
    predictions: np.ndarray, targets: np.ndarray, count: Optional[int]
) -> Tuple[np.ndarray, float, np.ndarray]:
    """``(difference, 1 / count, gradient)`` of the MSE between two arrays."""
    predictions = np.asarray(predictions)
    dtype = np.float32 if predictions.dtype == np.float32 else np.float64
    predictions = predictions.astype(dtype, copy=False)
    targets = np.asarray(targets, dtype=dtype)
    difference = predictions - targets
    scale = 1.0 / (difference.size if count is None else count)
    grad = difference * scale
    return difference, scale, grad + grad


def fused_mse_grad(
    predictions: np.ndarray, targets: np.ndarray, count: Optional[int] = None
) -> np.ndarray:
    """The input gradient of :func:`fused_mse_loss` alone, bitwise the same.

    For callers that never read the loss value (MAD-GAN's inversion loop),
    it skips the squared-sum reduction.
    """
    return _mse_terms(predictions, targets, count)[2]


def fused_mse_loss(
    predictions: np.ndarray, targets: np.ndarray, count: Optional[int] = None
) -> Tuple[float, np.ndarray]:
    """Value and input gradient of :func:`repro.nn.functional.mse_loss`.

    The gradient is seeded exactly as the autodiff ``(d * d).mean()``
    backward: ``d / count`` accumulated twice (doubling is exact in floating
    point), so the fused training step reproduces the graph step.  Float32
    predictions (a float32 forward) keep the loss in float32; anything else
    runs in float64.

    ``count`` is the number of elements a mean runs over (default: all); a
    stacked call passes one batch's size, so each keeps its own loss scale.
    """
    difference, scale, grad = _mse_terms(predictions, targets, count)
    return float((difference * difference).sum() * scale), grad


def fused_bce_with_logits_loss(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Value and logit gradient of ``binary_cross_entropy_with_logits``.

    Mirrors the graph formulation ``mean(relu(x) - x * t + log(1 + e^-|x|))``
    term by term; the gradient is the textbook ``sigmoid(x) - t`` expressed
    through the same ``exp(-|x|)`` factorization the graph backward follows,
    so the two paths agree within 1e-8.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    exp_neg_abs = np.exp(-np.abs(logits))
    softplus = np.log(1.0 + exp_neg_abs)
    # d max(x, 0) / dx and d |x| / dx taken as 1 and +1 at x = 0, as in the graph.
    nonnegative = logits >= 0
    scale = 1.0 / logits.size
    loss = float((logits * nonnegative - logits * targets + softplus).sum() * scale)
    grad = (
        nonnegative.astype(np.float64)
        - targets
        - np.where(nonnegative, 1.0, -1.0) * (exp_neg_abs / (1.0 + exp_neg_abs))
    ) * scale
    return loss, grad


#: ``log(2π)`` shared by the Gaussian-NLL loss head and the LSTM-VAE scoring
#: path so the trained objective and the serving score use the same constant.
LOG_2PI = float(np.log(2.0 * np.pi))


def fused_gaussian_nll_loss(
    mean: np.ndarray, logvar: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Elementwise-mean Gaussian negative log-likelihood and its gradients.

    The density is parameterized by a predicted mean and log-variance per
    element: ``0.5 * (logvar + (x - mean)^2 * exp(-logvar) + log 2π)``,
    averaged over every element.  Returns ``(loss, d_mean, d_logvar)``; the
    gradients are the textbook derivatives expressed through the same
    ``exp(-logvar)`` factor the loss value uses, so the fused path mirrors a
    graph built from ``exp``/``mul``/``sum`` ops within 1e-8.
    """
    mean = np.asarray(mean, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    inv_var = np.exp(-logvar)
    difference = mean - targets
    weighted = difference * difference * inv_var
    scale = 1.0 / mean.size
    loss = float((logvar + weighted + LOG_2PI).sum() * (0.5 * scale))
    d_mean = difference * inv_var * scale
    d_logvar = (1.0 - weighted) * (0.5 * scale)
    return loss, d_mean, d_logvar


def fused_kl_standard_normal(
    mu: np.ndarray, logvar: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Elementwise-mean ``KL(N(mu, exp(logvar)) || N(0, 1))`` and gradients.

    The analytic form ``0.5 * (mu^2 + exp(logvar) - logvar - 1)`` needs no
    sampling; returns ``(kl, d_mu, d_logvar)`` with the same elementwise-mean
    reduction as :func:`fused_gaussian_nll_loss` so the two heads compose
    into one ELBO with a single ``beta`` weight.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    var = np.exp(logvar)
    scale = 1.0 / mu.size
    kl = float((mu * mu + var - logvar - 1.0).sum() * (0.5 * scale))
    d_mu = mu * scale
    d_logvar = (var - 1.0) * (0.5 * scale)
    return kl, d_mu, d_logvar


def fused_vae_loss_head(beta: float = 1.0) -> LossHead:
    """Build the LSTM-VAE ELBO loss head: Gaussian NLL + ``beta`` · KL.

    The returned callable plugs into :class:`FusedTrainer` as ``loss``; it
    expects the module's ``fused_forward_train`` to output the 4-tuple
    ``(recon_mean, recon_logvar, mu, logvar)`` (see
    :class:`repro.detectors.lstm_vae.LSTMVAEDetector`) and returns the
    matching 4-tuple of output gradients, with the KL branch scaled by
    ``beta`` exactly as the loss value is.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    beta = float(beta)

    def fused_vae_loss(outputs, targets: np.ndarray):
        recon_mean, recon_logvar, mu, logvar = outputs
        nll, d_mean, d_recon_logvar = fused_gaussian_nll_loss(
            recon_mean, recon_logvar, targets
        )
        kl, d_mu, d_logvar = fused_kl_standard_normal(mu, logvar)
        loss = nll + beta * kl
        return loss, (d_mean, d_recon_logvar, beta * d_mu, beta * d_logvar)

    return fused_vae_loss


FUSED_LOSSES: Dict[str, LossHead] = {
    "mse": fused_mse_loss,
    "bce_logits": fused_bce_with_logits_loss,
    "vae_elbo": fused_vae_loss_head(1.0),
}


# ------------------------------------------------------------------ trainer
class FusedTrainer:
    """Drive graph-free training steps through an existing optimizer.

    Parameters
    ----------
    module:
        A module tree whose layers all implement the fused training path
        (``fused_forward_train`` / ``fused_backward_train``) — e.g. the
        glucose forecaster's ``Sequential(BiLSTM, Dense, Dense)``.
    optimizer:
        Any :mod:`repro.nn.optim` optimizer over ``module.parameters()``.
        The trainer only calls ``zero_grad`` / ``clip_gradients`` / ``step``,
        so Adam and SGD behave exactly as they do on graph gradients.
    loss:
        A :data:`FUSED_LOSSES` name (``"mse"``, ``"bce_logits"``) or any
        callable ``(outputs, targets) -> (loss_value, grad_outputs)``.
    gradient_clip:
        Optional global-norm clip applied between backward and step,
        matching ``Optimizer.clip_gradients``.
    obs:
        Optional :class:`~repro.obs.Observer` profiling the training loop:
        ``train.steps_total`` counts steps, ``train.step_seconds`` times
        them on the registry's wall-clock channel (never in any bitwise
        comparison), and the ``train.grad_buffers`` gauge tracks how many
        preallocated per-parameter gradient buffers the module tree reuses
        (it plateaus after the first step — the fused engine's
        zero-allocation steady state).  None (the default) records nothing
        and changes no arithmetic.

    One :meth:`step` is numerically the graph training step (forward, loss,
    backward, clip, update) with fused gradients pinned to autodiff within
    1e-8 — ``tests/test_nn_fused.py`` and ``scripts/check_parity.py`` enforce
    this; ``scripts/bench_train.py`` tracks the speedup in
    ``BENCH_train.json``.
    """

    def __init__(
        self,
        module,
        optimizer,
        loss: Union[str, LossHead] = "mse",
        gradient_clip: Optional[float] = None,
        obs=None,
    ):
        if isinstance(loss, str):
            if loss not in FUSED_LOSSES:
                raise ValueError(
                    f"unknown fused loss {loss!r}; available: {sorted(FUSED_LOSSES)}"
                )
            loss = FUSED_LOSSES[loss]
        if gradient_clip is not None and gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive or None")
        self.module = module
        self.optimizer = optimizer
        self.loss = loss
        self.gradient_clip = None if gradient_clip is None else float(gradient_clip)
        self.obs = obs

    def _grad_buffer_count(self) -> int:
        """Preallocated fused-gradient buffers across the module tree."""
        return sum(
            len(getattr(module, "_fused_grad_buffers", None) or ())
            for module in self.module.modules()
        )

    def backward(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Fused forward + loss + backward; accumulates gradients, returns the loss.

        Does not touch the optimizer — callers composing multiple loss
        branches (e.g. a GAN discriminator on real and fake batches) can run
        several ``backward`` calls before one ``optimizer.step()``.
        """
        output, cache = self.module.fused_forward_train(inputs)
        loss_value, grad_output = self.loss(output, np.asarray(targets, dtype=np.float64))
        self.module.fused_backward_train(grad_output, cache)
        return loss_value

    def step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One full training step; returns the (pre-update) batch loss."""
        obs = self.obs
        started = perf_counter() if obs is not None else 0.0
        self.optimizer.zero_grad()
        loss_value = self.backward(inputs, targets)
        if self.gradient_clip is not None:
            self.optimizer.clip_gradients(self.gradient_clip)
        self.optimizer.step()
        if obs is not None:
            obs.registry.inc("train.steps_total")
            obs.registry.observe("train.step_batch", len(np.asarray(inputs)))
            obs.registry.set_gauge("train.grad_buffers", self._grad_buffer_count())
            obs.registry.observe_seconds("train.step_seconds", perf_counter() - started)
        return loss_value
