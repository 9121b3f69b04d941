"""Recurrent layers: LSTM cell, unrolled LSTM, and bidirectional LSTM."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.nn.functional import sigmoid_ as _sigmoid_
from repro.nn.fused import add_matmul_grad, add_sum_grad
from repro.nn.initializers import orthogonal, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor, concatenate, stack
from repro.utils.rng import as_random_state


#: Direction index of each row block in a stepped BiLSTM window (forward, backward).
_DIRECTIONS = np.array([0, 1])[:, np.newaxis]


def _gate_step(projection, hidden, cell, gates, weight_hidden, bias, size):
    """One graph-free LSTM step; every array may carry leading stack axes.

    ``gates`` is the reusable scratch the recurrent matmul writes into.  With
    ``(batch, ...)`` arrays this is one cell's step; :func:`stream_encode`
    passes ``(L, 2, batch, ...)`` stacks to advance every lane and both
    directions in one batched matmul — per slice the arithmetic and its order
    are the same.
    Nothing here allocates a dtype of its own: the step runs in the dtype of
    the arrays it is given (the weights' dtype, see :meth:`LSTM.fast_forward`).

    Fifteen ufunc calls per step: the candidate's ``tanh`` is saved first,
    then one in-place :func:`~repro.nn.functional.sigmoid_` covers the whole
    contiguous ``[i, f, g, o]`` row (the g block's sigmoid is discarded) —
    byte-identical to activating the four blocks one by one.
    """
    np.matmul(hidden, weight_hidden, out=gates)
    gates += projection
    gates += bias
    candidate = np.tanh(gates[..., 2 * size : 3 * size])
    _sigmoid_(gates)
    candidate *= gates[..., 0:size]
    new_cell = gates[..., size : 2 * size] * cell
    new_cell += candidate
    new_hidden = np.tanh(new_cell)
    new_hidden *= gates[..., 3 * size : 4 * size]
    return new_hidden, new_cell


def _move(array: np.ndarray, source: int, destination: int) -> np.ndarray:
    """``np.moveaxis`` of one axis without its argument checks (a few µs per
    call in the fused kernels); a move to the same place returns ``array``."""
    ndim = array.ndim
    source, destination = source % ndim, destination % ndim
    if source == destination:
        return array
    order = list(range(ndim))
    order.insert(destination, order.pop(source))
    return array.transpose(order)


class LSTMCell(Module):
    """A single LSTM step.

    The four gate transformations are fused into one matrix multiplication for
    both the input-to-hidden and hidden-to-hidden paths.  Gate order within the
    fused matrices is ``[input, forget, cell, output]``.
    """

    def __init__(self, input_size: int, hidden_size: int, seed=None, forget_bias: float = 1.0):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = as_random_state(seed)
        self.input_size = input_size
        self.hidden_size = hidden_size

        self.weight_input = Parameter(
            xavier_uniform((input_size, 4 * hidden_size), rng), name="weight_input"
        )
        self.weight_hidden = Parameter(
            orthogonal((hidden_size, 4 * hidden_size), rng), name="weight_hidden"
        )
        bias = np.zeros(4 * hidden_size)
        # A positive forget-gate bias keeps early gradients flowing through time.
        bias[hidden_size : 2 * hidden_size] = forget_bias
        self.bias = Parameter(bias, name="bias")

    def forward(
        self, inputs, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """Advance one timestep.

        Parameters
        ----------
        inputs:
            Tensor of shape ``(batch, input_size)``.
        state:
            Tuple ``(hidden, cell)`` each of shape ``(batch, hidden_size)``.
        """
        inputs = as_tensor(inputs)
        hidden, cell = state
        gates = inputs @ self.weight_input + hidden @ self.weight_hidden + self.bias
        size = self.hidden_size
        input_gate = gates[:, 0:size].sigmoid()
        forget_gate = gates[:, size : 2 * size].sigmoid()
        candidate = gates[:, 2 * size : 3 * size].tanh()
        output_gate = gates[:, 3 * size : 4 * size].sigmoid()

        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        """Zero-valued hidden and cell state for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """An LSTM layer unrolled over a full sequence.

    Parameters
    ----------
    input_size:
        Number of features per timestep.
    hidden_size:
        Width of the hidden state.
    return_sequences:
        When True the layer outputs the hidden state at every timestep
        (``(batch, time, hidden)``); otherwise only the final hidden state
        (``(batch, hidden)``).
    reverse:
        Process the sequence from last timestep to first (used by
        :class:`BiLSTM`).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        reverse: bool = False,
        seed=None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, seed=seed)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences
        self.reverse = reverse

    def forward(self, inputs, initial_state: Optional[Tuple[Tensor, Tensor]] = None) -> Tensor:
        inputs = as_tensor(inputs)
        if inputs.ndim != 3:
            raise ValueError(
                f"LSTM expects inputs of shape (batch, time, features), got {inputs.shape}"
            )
        batch_size, timesteps, _ = inputs.shape
        state = initial_state or self.cell.initial_state(batch_size)
        hidden, cell = state

        time_order = range(timesteps - 1, -1, -1) if self.reverse else range(timesteps)
        outputs = []
        for step in time_order:
            step_input = inputs[:, step, :]
            hidden, cell = self.cell(step_input, (hidden, cell))
            outputs.append(hidden)

        if not self.return_sequences:
            return hidden
        if self.reverse:
            outputs = outputs[::-1]
        return stack(outputs, axis=1)

    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        """Graph-free unrolled forward.

        The input-to-hidden projection of *all* timesteps is fused into one
        ``(batch * time, features) @ (features, 4 * hidden)`` matrix
        multiplication, and the per-step recurrence reuses a single gate
        scratch buffer — no :class:`Tensor` nodes are allocated anywhere.
        Runs in the dtype of the cell's weights (float64 unless a caller
        swapped in float32 copies, as MAD-GAN's inversion does).

        Leading stack axes are allowed: each slice of ``(*stack, batch,
        time, features)`` inputs makes the same BLAS calls as its own call.
        """
        dtype = self.cell.weight_input.data.dtype
        inputs = np.asarray(inputs, dtype=dtype)
        if inputs.ndim < 3:
            raise ValueError(
                f"LSTM expects inputs of shape (batch, time, features), got {inputs.shape}"
            )
        *stack, batch_size, timesteps, features = inputs.shape
        size = self.hidden_size
        projections = (
            inputs.reshape(*stack, batch_size * timesteps, features) @ self.cell.weight_input.data
        ).reshape(*stack, batch_size, timesteps, 4 * size)

        hidden = np.zeros((*stack, batch_size, size), dtype=dtype)
        cell_state = np.zeros((*stack, batch_size, size), dtype=dtype)
        gates = np.empty((*stack, batch_size, 4 * size), dtype=dtype)
        sequence = (
            np.empty((*stack, batch_size, timesteps, size), dtype=dtype)
            if self.return_sequences
            else None
        )

        weight_hidden = self.cell.weight_hidden.data
        bias = self.cell.bias.data
        time_order = range(timesteps - 1, -1, -1) if self.reverse else range(timesteps)
        for step in time_order:
            hidden, cell_state = _gate_step(
                projections[..., step, :], hidden, cell_state, gates, weight_hidden, bias, size
            )
            if sequence is not None:
                sequence[..., step, :] = hidden
        return hidden if sequence is None else sequence

    # ----------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        """Graph-free unrolled training forward; caches gate activations.

        Same fused input projection as :meth:`fast_forward` (one
        ``(time * batch, features) @ (features, 4 * hidden)`` matmul), but
        every per-step gate activation, cell state, and hidden state is saved
        so :meth:`fused_backward_train` can run the full truncated BPTT
        analytically.  Caches are **time-major** — ``cache[name][step]`` is a
        contiguous ``(batch, ·)`` block — and a ``reverse`` layer flips the
        sequence into processing order once up front, bit-identical to
        iterating the timesteps backwards.  Every buffer takes the dtype of
        the cell's weights, as in :meth:`fast_forward`.

        Fifteen ufunc calls per step, allocating nothing: the recurrent matmul
        lands in a preallocated buffer and is added to the biased projection;
        the candidate's ``tanh`` is saved to scratch, one in-place
        :func:`~repro.nn.functional.sigmoid_` covers the whole ``[i, f, g, o]``
        row of the ``(time, batch, 4 * hidden)`` gate array (which doubles as
        the gate cache), and the saved ``tanh`` goes back into the g block.
        Each new cell and hidden state is written straight into its
        ``(time + 1, batch, hidden)`` cache, whose row 0 is the zero state.

        Leading stack axes are allowed, as in :meth:`fast_forward` (the
        caches are then ``(time, *stack, batch, ·)``); a stacked cache backs
        only a frozen backward.
        """
        dtype = self.cell.weight_input.data.dtype
        inputs = np.asarray(inputs, dtype=dtype)
        if inputs.ndim < 3:
            raise ValueError(
                f"LSTM expects inputs of shape (batch, time, features), got {inputs.shape}"
            )
        # Time-major processing order: [::-1] first for reverse layers.
        time_major = _move(inputs, -2, 0)
        if self.reverse:
            time_major = time_major[::-1]
        time_major = np.ascontiguousarray(time_major)
        timesteps, *stack, batch_size, features = time_major.shape
        size = self.hidden_size
        cell = self.cell
        weight_hidden = cell.weight_hidden.data

        # One fused input projection per stacked batch (+ one vectorized bias
        # add for every timestep at once); the per-step recurrence then
        # activates the gates in place on this array.
        rows = _move(time_major, 0, -3).reshape(*stack, timesteps * batch_size, features)
        projected = (rows @ cell.weight_input.data).reshape(*stack, timesteps, batch_size, -1)
        gates_seq = np.ascontiguousarray(_move(projected, -3, 0))
        gates_seq += cell.bias.data
        recurrent = np.empty((*stack, batch_size, 4 * size), dtype=dtype)
        candidate = np.empty((*stack, batch_size, size), dtype=dtype)
        hiddens = np.zeros((timesteps + 1, *stack, batch_size, size), dtype=dtype)
        cells = np.zeros((timesteps + 1, *stack, batch_size, size), dtype=dtype)
        tanh_cells = np.empty((timesteps, *stack, batch_size, size), dtype=dtype)
        for step in range(timesteps):
            gates = gates_seq[step]
            np.matmul(hiddens[step], weight_hidden, out=recurrent)
            gates += recurrent
            # Gate order [i, f, g, o].
            candidate_block = gates[..., 2 * size : 3 * size]
            np.tanh(candidate_block, out=candidate)
            _sigmoid_(gates)
            np.copyto(candidate_block, candidate)
            cell_state = np.multiply(gates[..., size : 2 * size], cells[step], out=cells[step + 1])
            candidate *= gates[..., 0:size]
            cell_state += candidate
            tanh_c = np.tanh(cell_state, out=tanh_cells[step])
            np.multiply(gates[..., 3 * size : 4 * size], tanh_c, out=hiddens[step + 1])

        cache = {
            "inputs": time_major,  # processing order (flipped for reverse layers)
            "gates": gates_seq,  # activated [i, f, g, o] blocks per step
            "hiddens": hiddens,  # h_{step - 1} at [step]; [0] is the zero state
            "cells": cells,  # c_{step - 1} at [step]; [0] is the zero state
            "tanh_cells": tanh_cells,
        }
        if not self.return_sequences:
            # Copy so downstream in-place consumers can never corrupt the cache.
            return hiddens[-1].copy(), cache
        hidden_seq = hiddens[1:]
        output = hidden_seq[::-1] if self.reverse else hidden_seq
        return np.ascontiguousarray(_move(output, 0, -2)), cache

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        """Full truncated BPTT with weight gradients (hand-written).

        The per-step backward mirrors the autodiff gate math
        operation-for-operation, writing each step's four gate-gradient
        blocks directly into a time-major ``(time, batch, 4 * hidden)``
        stack.  The weight gradients are then fused into three calls —
        ``dWi = x.T @ d_gates``, ``dWh = h_prev.T @ d_gates``, and the bias
        row-sum — instead of one small matmul per timestep; frozen parameters
        skip their matmuls entirely, so a fully frozen layer computes only
        the input gradient (MAD-GAN's generator inversion relies on this).
        Returns the gradient with respect to the layer inputs (caller time
        order), in the dtype of the cell's weights.

        A stacked cache needs frozen weights: only input gradients are computed.

        Nothing the caller owns is written: ``grad_output`` is only read,
        and the running ``dh``/``dc``/``d_cell``/``d_hidden`` live in
        preallocated ``(batch, hidden)`` buffers.
        """
        dtype = self.cell.weight_input.data.dtype
        grad_output = np.asarray(grad_output, dtype=dtype)
        time_major = cache["inputs"]
        gates_seq = cache["gates"]
        hiddens = cache["hiddens"]
        cells = cache["cells"]
        tanh_cells = cache["tanh_cells"]
        timesteps, *stack, batch_size, features = time_major.shape
        size = self.hidden_size
        cell = self.cell
        if stack and any(parameter.requires_grad for parameter in self.parameters()):
            raise ValueError("a stacked fused backward needs frozen weights")
        weight_hidden_t = cell.weight_hidden.data.T

        d_hidden = np.zeros((*stack, batch_size, size), dtype=dtype)
        if self.return_sequences:
            # A read-only view in processing order (it may be the caller's
            # memory).
            d_hidden_seq = _move(grad_output, -2, 0)
            if self.reverse:
                d_hidden_seq = d_hidden_seq[::-1]
            dh = np.empty((*stack, batch_size, size), dtype=dtype)
        else:
            # Sequence-to-one: the upstream gradient seeds only the final
            # processed step's hidden state.
            d_hidden_seq = None
            np.copyto(d_hidden, grad_output)
            dh = d_hidden
        # The gate-derivative factors are recurrence-independent, so they
        # vectorize across ALL timesteps, written with out= into one
        # (5, time, batch, hidden) array: the i/f/g/o factors in gate order
        # (dc, or dh for o, times a factor is that gate block's gradient),
        # then the cell factor (dh times it feeds dc).  Each block is a
        # contiguous (time, batch, hidden) array, so every write here and
        # every read in the loop below is contiguous.
        gate_i = gates_seq[..., 0:size]
        gate_f = gates_seq[..., size : 2 * size]
        gate_g = gates_seq[..., 2 * size : 3 * size]
        gate_o = gates_seq[..., 3 * size : 4 * size]
        factors = np.empty((5, timesteps, *stack, batch_size, size), dtype=dtype)
        factor_i, factor_f, factor_g, factor_o, cell_factor = factors
        for gate, factor, scale in (
            (gate_i, factor_i, gate_g),
            (gate_f, factor_f, cells[:-1]),
            (gate_o, factor_o, tanh_cells),
        ):
            np.subtract(1.0, gate, out=factor)
            np.multiply(gate, factor, out=factor)
            np.multiply(scale, factor, out=factor)
        for gate, factor, scale in ((gate_g, factor_g, gate_i), (tanh_cells, cell_factor, gate_o)):
            np.square(gate, out=factor)
            np.subtract(1.0, factor, out=factor)
            np.multiply(scale, factor, out=factor)

        d_projections = np.empty((timesteps, *stack, batch_size, 4 * size), dtype=dtype)
        # (time, 3, batch, hidden) views: one multiply by dc fills a step's
        # i/f/g gradient blocks.
        factor_ifg = factors[0:3].swapaxes(0, 1)
        d_ifg = d_projections.reshape(timesteps, *stack, batch_size, 4, size)[..., 0:3, :]
        d_ifg = _move(d_ifg, -2, 1)
        d_o = d_projections[..., 3 * size : 4 * size]
        dc = np.empty((*stack, batch_size, size), dtype=dtype)
        d_cell = np.zeros((*stack, batch_size, size), dtype=dtype)
        for step in range(timesteps - 1, -1, -1):
            if d_hidden_seq is not None:
                np.add(d_hidden_seq[step], d_hidden, out=dh)
            np.multiply(dh, cell_factor[step], out=dc)
            np.add(d_cell, dc, out=dc)
            np.multiply(dc, factor_ifg[step], out=d_ifg[step])
            np.multiply(dh, factor_o[step], out=d_o[step])
            np.multiply(dc, gate_f[step], out=d_cell)
            np.matmul(d_projections[step], weight_hidden_t, out=d_hidden)

        # Each stacked batch's (time * batch) rows, as its own call has them.
        flat_d_projections = _move(d_projections, 0, -3).reshape(
            *stack, timesteps * batch_size, 4 * size
        )
        buffers = self._fused_buffers()
        add_matmul_grad(
            cell.weight_input,
            buffers,
            "weight_input",
            time_major.reshape(-1, features).T,
            flat_d_projections,
        )
        # h_{t-1} per step, in processing order (h_{-1} is the zero state).
        add_matmul_grad(
            cell.weight_hidden,
            buffers,
            "weight_hidden",
            hiddens[:-1].reshape(-1, size).T,
            flat_d_projections,
        )
        add_sum_grad(cell.bias, buffers, "bias", flat_d_projections, axis=0)

        d_inputs = (flat_d_projections @ cell.weight_input.data.T).reshape(
            *stack, timesteps, batch_size, features
        )
        if self.reverse:
            d_inputs = d_inputs[..., ::-1, :, :]
        return np.ascontiguousarray(d_inputs.swapaxes(-3, -2))


class BiLSTM(Module):
    """A bidirectional LSTM that concatenates forward and backward states.

    When ``return_sequences`` is False the output is the concatenation of the
    final forward hidden state and the final backward hidden state, matching
    the sequence-to-one forecasting architecture of Rubin-Falcone et al. used
    as the paper's target glucose model.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        seed=None,
    ):
        super().__init__()
        rng = as_random_state(seed)
        forward_seed, backward_seed = rng.spawn(2)
        self.forward_layer = LSTM(
            input_size, hidden_size, return_sequences=return_sequences, seed=forward_seed
        )
        self.backward_layer = LSTM(
            input_size,
            hidden_size,
            return_sequences=return_sequences,
            reverse=True,
            seed=backward_seed,
        )
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def forward(self, inputs) -> Tensor:
        forward_out = self.forward_layer(inputs)
        backward_out = self.backward_layer(inputs)
        return concatenate([forward_out, backward_out], axis=-1)

    def fast_forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        forward_out = self.forward_layer.fast_forward(inputs)
        backward_out = self.backward_layer.fast_forward(inputs)
        return np.concatenate([forward_out, backward_out], axis=-1)

    # ----------------------------------------------------------------- training
    def fused_forward_train(self, inputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        forward_out, forward_cache = self.forward_layer.fused_forward_train(inputs)
        backward_out, backward_cache = self.backward_layer.fused_forward_train(inputs)
        output = np.concatenate([forward_out, backward_out], axis=-1)
        return output, (forward_cache, backward_cache)

    def fused_backward_train(self, grad_output: np.ndarray, cache) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        forward_cache, backward_cache = cache
        size = self.hidden_size
        # The concat backward routes each half to its direction; the input
        # gradient is the sum of both directions' contributions.
        d_forward = self.forward_layer.fused_backward_train(
            grad_output[..., :size], forward_cache
        )
        d_backward = self.backward_layer.fused_backward_train(
            grad_output[..., size:], backward_cache
        )
        return d_forward + d_backward

    # ---------------------------------------------------------------- streaming
    def stream_state(self, n_streams: int = 1, capacity: int = 1) -> "BiLSTMStreamState":
        """Ring-buffered state for sliding-window streaming over ``n_streams``.

        A bidirectional layer cannot carry ``(h, c)`` across a sliding window:
        both recurrences restart at the window boundary, and the boundary moves
        every tick.  What *can* be cached is the expensive, position-independent
        part — the fused input projection of each sample for both directions —
        so the state keeps one ring of the last ``capacity`` projections per
        stream, both directions side by side.  :meth:`step` then pays one
        stacked input matmul per new sample plus ``capacity`` stacked
        recurrence steps: O(window) work per tick, never O(stream length).
        """
        if self.return_sequences:
            raise ValueError(
                "streaming BiLSTM state is defined for sequence-to-one layers "
                "(return_sequences=False); per-tick full sequences would not be O(1)"
            )
        return BiLSTMStreamState(n_streams, self.hidden_size, capacity)

    def stream_weights(self) -> "StreamWeights":
        """The direction-stacked weights :meth:`step` runs on.

        A serving lane builds them once for its lifetime and passes them to
        :meth:`push` and :func:`stream_encode` every tick; :meth:`step`
        builds them per call.  They are derived copies: weights changed in
        place afterwards are not seen.
        """
        forward_cell = self.forward_layer.cell
        backward_cell = self.backward_layer.cell
        return StreamWeights(
            input=np.stack((forward_cell.weight_input.data, backward_cell.weight_input.data)),
            hidden=np.stack((forward_cell.weight_hidden.data, backward_cell.weight_hidden.data)),
            bias=np.stack((forward_cell.bias.data, backward_cell.bias.data))[:, np.newaxis],
        )

    def step(
        self,
        samples: np.ndarray,
        state: "BiLSTMStreamState",
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Push one sample per selected stream and emit sliding-window outputs.

        Parameters
        ----------
        samples:
            ``(k, input_size)`` raw samples, one per selected stream.
        state:
            Stream state created by :meth:`stream_state`.
        rows:
            Stream (slot) indices receiving a sample this tick; defaults to
            ``arange(k)``.  Streams outside ``rows`` are untouched, which is
            how a scheduler serves sessions that miss a tick.  Duplicate or
            out-of-range slots raise ``ValueError``.

        Returns
        -------
        ``(k, 2 * hidden)`` outputs matching ``fast_forward`` on each stream's
        current window within 1e-10.  Rows whose ring is not yet full (the
        warm-up phase) are NaN.

        This is the one-state call of the streaming kernel: :meth:`push`
        writes the new samples, then :func:`stream_encode` runs the full
        rows' windows with a one-state stack.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != self.forward_layer.input_size:
            raise ValueError(
                f"samples must have shape (k, {self.forward_layer.input_size}), "
                f"got {samples.shape}"
            )
        rows = state.check_rows(rows, len(samples))
        weights = self.stream_weights()
        self.push(samples, state, rows, weights)
        outputs = np.full((len(rows), 2 * self.hidden_size), np.nan)
        full_mask = state.count[rows] == state.capacity
        if np.any(full_mask):
            outputs[full_mask] = stream_encode([state], [rows[full_mask]], [weights])[0]
        return outputs

    @staticmethod
    def push(
        samples: np.ndarray,
        state: "BiLSTMStreamState",
        rows: np.ndarray,
        weights: "StreamWeights",
    ) -> None:
        """Write one ``(k, input_size)`` sample per stream of ``rows`` into ``state``.

        The mutating half of a step: one projection per new sample for both
        directions (every window the sample joins reuses the ring row), the
        ring write, and the cursor and fill-count advance.  Inputs are not
        validated; :meth:`step` is the checked call.
        """
        cursors = state.cursor[rows]
        state.ring[rows, cursors] = np.matmul(samples, weights.input).transpose(1, 0, 2)
        state.cursor[rows] = (cursors + 1) % state.capacity
        state.count[rows] = np.minimum(state.count[rows] + 1, state.capacity)

    def step_one(
        self, sample: np.ndarray, state: "BiLSTMStreamState", row: int = 0
    ) -> Optional[np.ndarray]:
        """:meth:`step` for one ``(input_size,)`` sample into slot ``row``.

        Returns the ``(1, 2 * hidden)`` window output, or None while the
        slot's ring is still warming up.
        """
        encoded = self.step(sample[np.newaxis], state, rows=np.array([row]))
        return None if state.count[row] < state.capacity else encoded


class StreamWeights(NamedTuple):
    """A BiLSTM's weights stacked by direction, forward first (:meth:`BiLSTM.stream_weights`)."""

    #: ``(2, input_size, 4 * hidden)`` input projections.
    input: np.ndarray
    #: ``(2, hidden, 4 * hidden)`` recurrent weights.
    hidden: np.ndarray
    #: ``(2, 1, 4 * hidden)`` gate biases.
    bias: np.ndarray


def stream_encode(states, rows, weights) -> np.ndarray:
    """Encode the current windows of several stream states in one recurrence.

    ``states``, ``rows`` and ``weights`` hold one entry per state (a lane):
    its :class:`BiLSTMStreamState`, the slots to encode (each full, the same
    number ``n`` for every state) and its :class:`StreamWeights`.  All states
    share ``capacity`` and the hidden width.  Returns ``(L, n, 2 * hidden)``,
    forward half first.

    Each state's windows are gathered step-major into one buffer: step ``k``
    holds the forward direction's ``k``-th oldest ring row and the backward
    direction's ``k``-th newest (after a push the oldest sample sits at the
    cursor).  The ``capacity`` steps then run once for every state and both
    directions as ``(L, 2, n, H) @ (L, 2, H, 4H)`` matmuls through
    :func:`_gate_step`.  Every slice makes the same BLAS call, with the same
    shape, as a one-state call, and the gate arithmetic is elementwise, so
    each state's outputs are bitwise those of encoding it alone.  Rows are
    never padded: a different ``n`` is a different gemm shape and may round
    differently.
    """
    capacity = states[0].capacity
    size = weights[0].hidden.shape[1]
    n_rows = len(rows[0])
    windows = np.empty((len(states), capacity, 2, n_rows, 4 * size))
    steps = np.arange(capacity)[:, np.newaxis]
    for lane, (state, lane_rows) in enumerate(zip(states, rows)):
        order = (state.cursor[lane_rows] + steps) % capacity
        windows[lane] = state.ring[
            lane_rows, np.stack((order, order[::-1]), axis=1), _DIRECTIONS
        ]
    weight_hidden = np.stack([lane_weights.hidden for lane_weights in weights])
    bias = np.stack([lane_weights.bias for lane_weights in weights])
    gates = np.empty((len(states), 2, n_rows, 4 * size))
    hidden = np.zeros((len(states), 2, n_rows, size))
    cell_state = np.zeros((len(states), 2, n_rows, size))
    for step_index in range(capacity):
        hidden, cell_state = _gate_step(
            windows[:, step_index], hidden, cell_state, gates, weight_hidden, bias, size
        )
    return hidden.transpose(0, 2, 1, 3).reshape(len(states), n_rows, 2 * size)


class BiLSTMStreamState:
    """Per-stream ring of fused input projections for both BiLSTM directions.

    ``ring`` has shape ``(n_streams, capacity, 2, 4 * hidden)``: slot ``s``,
    position ``p`` holds one sample's input projection for the forward
    (``[..., 0, :]``) and backward (``[..., 1, :]``) direction.  Memory is
    ``O(n_streams * capacity * hidden)`` and fixed for the lifetime of the
    state — advancing a tick writes one ring row per stream and never
    allocates anything proportional to the stream length.  Slots are
    independent: each has its own cursor and fill count, so streams may
    start, stop, and miss ticks independently (the serving scheduler relies
    on this).
    """

    __slots__ = ("capacity", "ring", "cursor", "count")

    def __init__(self, n_streams: int, hidden_size: int, capacity: int):
        if n_streams <= 0:
            raise ValueError("n_streams must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.ring = np.zeros((n_streams, capacity, 2, 4 * hidden_size))
        self.cursor = np.zeros(n_streams, dtype=int)
        self.count = np.zeros(n_streams, dtype=int)

    @property
    def n_streams(self) -> int:
        return len(self.cursor)

    def check_rows(self, rows: Optional[np.ndarray], n_samples: int) -> np.ndarray:
        """The slot indices of a step over ``n_samples`` (``arange`` when None).

        Each slot must exist and receive at most one sample per step: a
        repeated slot would advance once and drop a sample, and a negative
        one would wrap around to the last slots.
        """
        rows = np.arange(n_samples) if rows is None else np.asarray(rows, dtype=int)
        if len(rows) != n_samples:
            raise ValueError("rows and samples must have the same length")
        if n_samples and (rows.min() < 0 or rows.max() >= self.n_streams):
            raise ValueError(f"rows must lie in [0, {self.n_streams})")
        if len(np.unique(rows)) != n_samples:
            raise ValueError("rows must not repeat a slot")
        return rows

    def grow(self, n_streams: int) -> None:
        """Extend the state with fresh (empty) slots up to ``n_streams``."""
        current = self.n_streams
        if n_streams <= current:
            return
        extra = n_streams - current
        self.ring = np.pad(self.ring, ((0, extra), (0, 0), (0, 0), (0, 0)))
        self.cursor = np.concatenate([self.cursor, np.zeros(extra, dtype=int)])
        self.count = np.concatenate([self.count, np.zeros(extra, dtype=int)])

    def reset_slots(self, rows: np.ndarray) -> None:
        """Empty the rings of the given slots so they can be reused."""
        rows = np.asarray(rows, dtype=int)
        self.cursor[rows] = 0
        self.count[rows] = 0
