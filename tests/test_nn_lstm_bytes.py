"""Byte-for-byte pins of the LSTM kernels, and their read-only contract.

The kernels in ``repro.nn.recurrent`` (``_gate_step`` under
``LSTM.fast_forward`` / ``BiLSTM.step``, and ``LSTM.fused_forward_train`` /
``fused_backward_train``) are tuned for fewer numpy calls per timestep.  The
tuning may regroup calls but never the arithmetic: every output must equal,
as IEEE-754 bytes, the straightforward per-block formulation kept below —
clip-then-negate sigmoid, separate i/f and o sigmoid blocks, the previous
cell copied into its cache, and four per-block d-gate multiplies.  Fixed-seed
fingerprints, twin rows and figures rest on this.

The second half pins that the kernels never write arrays they do not own: a
batch-1 time-major transpose is already contiguous, so ``ascontiguousarray``
hands the kernel the caller's memory.
"""

import copy

import numpy as np
import pytest

from repro.nn import BiLSTM, LSTM
from repro.nn.fused import add_matmul_grad, add_sum_grad

DTYPES = [np.float64, np.float32]
BATCHES = [1, 3, 64]
HIDDENS = [4, 8, 16]
FEATURES = 3
TIMESTEPS = 7


# ------------------------------------------------------ reference arithmetic
def _ref_sigmoid(values):
    return 1.0 / (1.0 + np.exp(-np.asarray(values).clip(-60.0, 60.0)))


def _ref_sigmoid_(values):
    values.clip(-60.0, 60.0, out=values)
    np.negative(values, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.divide(1.0, values, out=values)
    return values


def _ref_gate_step(projection, hidden, cell, gates, weight_hidden, bias, size):
    np.matmul(hidden, weight_hidden, out=gates)
    gates += projection
    gates += bias
    input_gate = _ref_sigmoid(gates[..., 0:size])
    forget_gate = _ref_sigmoid(gates[..., size : 2 * size])
    candidate = np.tanh(gates[..., 2 * size : 3 * size])
    output_gate = _ref_sigmoid(gates[..., 3 * size : 4 * size])
    new_cell = forget_gate * cell + input_gate * candidate
    new_hidden = output_gate * np.tanh(new_cell)
    return new_hidden, new_cell


def _ref_fast_forward(layer, inputs):
    cell = layer.cell
    dtype = cell.weight_input.data.dtype
    inputs = np.asarray(inputs, dtype=dtype)
    batch_size, timesteps, features = inputs.shape
    size = layer.hidden_size
    projections = inputs.reshape(batch_size * timesteps, features) @ cell.weight_input.data
    projections = projections.reshape(batch_size, timesteps, 4 * size)
    hidden = np.zeros((batch_size, size), dtype=dtype)
    cell_state = np.zeros((batch_size, size), dtype=dtype)
    gates = np.empty((batch_size, 4 * size), dtype=dtype)
    sequence = np.empty((batch_size, timesteps, size), dtype=dtype)
    order = range(timesteps - 1, -1, -1) if layer.reverse else range(timesteps)
    for step in order:
        hidden, cell_state = _ref_gate_step(
            projections[:, step, :],
            hidden,
            cell_state,
            gates,
            cell.weight_hidden.data,
            cell.bias.data,
            size,
        )
        sequence[:, step, :] = hidden
    return sequence if layer.return_sequences else hidden


def _ref_fused_forward_train(layer, inputs):
    cell = layer.cell
    dtype = cell.weight_input.data.dtype
    time_major = np.asarray(inputs, dtype=dtype).transpose(1, 0, 2)
    if layer.reverse:
        time_major = time_major[::-1]
    time_major = np.ascontiguousarray(time_major)
    timesteps, batch_size, features = time_major.shape
    size = layer.hidden_size
    gates_seq = time_major.reshape(timesteps * batch_size, features) @ cell.weight_input.data
    gates_seq = gates_seq.reshape(timesteps, batch_size, 4 * size)
    gates_seq += cell.bias.data
    hidden = np.zeros((batch_size, size), dtype=dtype)
    cell_state = np.zeros((batch_size, size), dtype=dtype)
    hidden_seq = np.empty((timesteps, batch_size, size), dtype=dtype)
    prev_cells = np.empty((timesteps, batch_size, size), dtype=dtype)
    tanh_cells = np.empty((timesteps, batch_size, size), dtype=dtype)
    for step in range(timesteps):
        gates = gates_seq[step]
        gates += hidden @ cell.weight_hidden.data
        i_f = _ref_sigmoid_(gates[:, 0 : 2 * size])
        i = i_f[:, 0:size]
        f = i_f[:, size:]
        g = gates[:, 2 * size : 3 * size]
        np.tanh(g, out=g)
        o = _ref_sigmoid_(gates[:, 3 * size : 4 * size])
        prev_cells[step] = cell_state
        np.multiply(f, cell_state, out=cell_state)
        cell_state += i * g
        tanh_c = np.tanh(cell_state, out=tanh_cells[step])
        hidden = np.multiply(o, tanh_c, out=hidden_seq[step])
    cache = (time_major, gates_seq, hidden_seq, prev_cells, tanh_cells)
    if not layer.return_sequences:
        return hidden.copy(), cache
    output = hidden_seq[::-1] if layer.reverse else hidden_seq
    return np.ascontiguousarray(output.transpose(1, 0, 2)), cache


def _ref_fused_backward_train(layer, grad_output, cache):
    cell = layer.cell
    dtype = cell.weight_input.data.dtype
    grad_output = np.asarray(grad_output, dtype=dtype)
    time_major, gates_seq, hidden_seq, prev_cells, tanh_cells = cache
    timesteps, batch_size, features = time_major.shape
    size = layer.hidden_size
    if layer.return_sequences:
        d_hidden_seq = grad_output.transpose(1, 0, 2)
        if layer.reverse:
            d_hidden_seq = d_hidden_seq[::-1]
        d_hidden_seq = np.ascontiguousarray(d_hidden_seq)
        d_hidden = np.zeros((batch_size, size), dtype=dtype)
    else:
        d_hidden_seq = None
        d_hidden = grad_output
    gate_i = gates_seq[:, :, 0:size]
    gate_f = gates_seq[:, :, size : 2 * size]
    gate_g = gates_seq[:, :, 2 * size : 3 * size]
    gate_o = gates_seq[:, :, 3 * size : 4 * size]
    cell_factor = gate_o * (1.0 - tanh_cells**2)
    input_factor = gate_g * (gate_i * (1.0 - gate_i))
    forget_factor = prev_cells * (gate_f * (1.0 - gate_f))
    candidate_factor = gate_i * (1.0 - gate_g**2)
    output_factor = tanh_cells * (gate_o * (1.0 - gate_o))
    d_cell = np.zeros((batch_size, size), dtype=dtype)
    d_projections = np.empty((timesteps, batch_size, 4 * size), dtype=dtype)
    for step in range(timesteps - 1, -1, -1):
        dh = d_hidden if d_hidden_seq is None else d_hidden_seq[step] + d_hidden
        dc = d_cell + dh * cell_factor[step]
        d_projection = d_projections[step]
        np.multiply(dc, input_factor[step], out=d_projection[:, 0:size])
        np.multiply(dc, forget_factor[step], out=d_projection[:, size : 2 * size])
        np.multiply(dc, candidate_factor[step], out=d_projection[:, 2 * size : 3 * size])
        np.multiply(dh, output_factor[step], out=d_projection[:, 3 * size : 4 * size])
        d_cell = dc * gate_f[step]
        d_hidden = d_projection @ cell.weight_hidden.data.T
    flat = d_projections.reshape(timesteps * batch_size, 4 * size)
    buffers = layer._fused_buffers()
    add_matmul_grad(
        cell.weight_input,
        buffers,
        "weight_input",
        time_major.reshape(timesteps * batch_size, features).T,
        flat,
    )
    hidden_prev = np.concatenate(
        [np.zeros((1, batch_size, size), dtype=dtype), hidden_seq[:-1]], axis=0
    )
    add_matmul_grad(
        cell.weight_hidden,
        buffers,
        "weight_hidden",
        hidden_prev.reshape(timesteps * batch_size, size).T,
        flat,
    )
    add_sum_grad(cell.bias, buffers, "bias", flat, axis=0)
    d_inputs = (flat @ cell.weight_input.data.T).reshape(timesteps, batch_size, features)
    if layer.reverse:
        d_inputs = d_inputs[::-1]
    return np.ascontiguousarray(d_inputs.transpose(1, 0, 2))


def _ref_bilstm_step(bilstm, samples, state, rows):
    """The stacked two-direction ring step on :func:`_ref_gate_step`."""
    samples = np.asarray(samples, dtype=np.float64)
    forward_cell = bilstm.forward_layer.cell
    backward_cell = bilstm.backward_layer.cell
    weight_input = np.stack((forward_cell.weight_input.data, backward_cell.weight_input.data))
    cursors = state.cursor[rows]
    state.ring[rows, cursors] = np.matmul(samples, weight_input).transpose(1, 0, 2)
    state.cursor[rows] = (cursors + 1) % state.capacity
    state.count[rows] = np.minimum(state.count[rows] + 1, state.capacity)
    size = bilstm.hidden_size
    outputs = np.full((len(rows), 2 * size), np.nan)
    full_mask = state.count[rows] == state.capacity
    if not np.any(full_mask):
        return outputs
    full_rows = rows[full_mask]
    capacity = state.capacity
    order = (state.cursor[full_rows] + np.arange(capacity)[:, None]) % capacity
    windows = state.ring[
        full_rows, np.stack((order, order[::-1]), axis=1), np.array([0, 1])[:, None]
    ]
    weight_hidden = np.stack((forward_cell.weight_hidden.data, backward_cell.weight_hidden.data))
    bias = np.stack((forward_cell.bias.data, backward_cell.bias.data))[:, np.newaxis]
    gates = np.empty((2, len(full_rows), 4 * size))
    hidden = np.zeros((2, len(full_rows), size))
    cell_state = np.zeros((2, len(full_rows), size))
    for step_index in range(capacity):
        hidden, cell_state = _ref_gate_step(
            windows[step_index], hidden, cell_state, gates, weight_hidden, bias, size
        )
    outputs[full_mask] = np.concatenate((hidden[0], hidden[1]), axis=1)
    return outputs


# ------------------------------------------------------------------ helpers
def _assert_bytes_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _cast(module, dtype):
    for parameter in module.parameters():
        parameter.data = parameter.data.astype(dtype)
    return module


def _inputs(rng, batch_size, dtype, timesteps=TIMESTEPS):
    # Per-feature scales from gentle to saturating, so the ±60 clamp and
    # the linear region of every gate both run.
    scale = np.array([0.5, 8.0, 90.0])
    return (rng.standard_normal((batch_size, timesteps, FEATURES)) * scale).astype(dtype)


def _name(value):
    return getattr(value, "__name__", str(value))


GRID = pytest.mark.parametrize(
    "dtype,batch_size,hidden_size",
    [(dtype, batch, hidden) for dtype in DTYPES for batch in BATCHES for hidden in HIDDENS],
    ids=_name,
)


# --------------------------------------------------------------- byte pins
@GRID
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("return_sequences", [False, True], ids=["last", "seq"])
def test_lstm_kernels_match_reference_bytes(
    dtype, batch_size, hidden_size, reverse, return_sequences
):
    rng = np.random.default_rng(batch_size * 100 + hidden_size)
    layer = _cast(
        LSTM(FEATURES, hidden_size, return_sequences=return_sequences, reverse=reverse, seed=3),
        dtype,
    )
    reference = copy.deepcopy(layer)
    inputs = _inputs(rng, batch_size, dtype)

    _assert_bytes_equal(layer.fast_forward(inputs), _ref_fast_forward(reference, inputs))

    output, cache = layer.fused_forward_train(inputs)
    ref_output, ref_cache = _ref_fused_forward_train(reference, inputs)
    _assert_bytes_equal(output, ref_output)

    grad_shape = ref_output.shape
    grad_output = rng.standard_normal(grad_shape).astype(dtype)
    d_inputs = layer.fused_backward_train(grad_output, cache)
    ref_d_inputs = _ref_fused_backward_train(reference, grad_output, ref_cache)
    _assert_bytes_equal(d_inputs, ref_d_inputs)
    for name, parameter in layer.named_parameters().items():
        _assert_bytes_equal(parameter.grad, reference.named_parameters()[name].grad)


@GRID
def test_bilstm_step_matches_reference_bytes_with_staggered_cursors(
    dtype, batch_size, hidden_size
):
    rng = np.random.default_rng(7 + batch_size + hidden_size)
    bilstm = _cast(BiLSTM(FEATURES, hidden_size, seed=5), dtype)
    capacity = 5
    state = bilstm.stream_state(batch_size, capacity=capacity)
    ref_state = copy.deepcopy(state)
    # Each tick feeds a random subset of streams, so cursors and fill counts
    # drift apart and windows wrap the ring at different offsets.
    for _ in range(3 * capacity):
        rows = np.flatnonzero(rng.random(batch_size) < 0.7)
        if len(rows) == 0:
            rows = np.array([0])
        samples = _inputs(rng, len(rows), np.float64, timesteps=1)[:, 0]
        encoded = bilstm.step(samples, state, rows=rows)
        _assert_bytes_equal(encoded, _ref_bilstm_step(bilstm, samples, ref_state, rows))
    _assert_bytes_equal(state.ring, ref_state.ring)
    assert len(set(state.cursor.tolist())) > 1 or batch_size == 1


# ------------------------------------------------------- read-only inputs
def _read_only(array):
    array = np.array(array)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("dtype", DTYPES, ids=_name)
@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("return_sequences", [False, True], ids=["last", "seq"])
def test_lstm_kernels_accept_read_only_inputs(dtype, batch_size, reverse, return_sequences):
    rng = np.random.default_rng(11)
    layer = _cast(
        LSTM(FEATURES, 8, return_sequences=return_sequences, reverse=reverse, seed=2), dtype
    )
    inputs = _read_only(_inputs(rng, batch_size, dtype))
    kept_inputs = inputs.copy()
    layer.fast_forward(inputs)
    output, cache = layer.fused_forward_train(inputs)
    grad_output = _read_only(rng.standard_normal(output.shape).astype(dtype))
    kept_grad = grad_output.copy()
    layer.fused_backward_train(grad_output, cache)
    _assert_bytes_equal(inputs, kept_inputs)
    _assert_bytes_equal(grad_output, kept_grad)


def test_bilstm_step_accepts_read_only_samples():
    rng = np.random.default_rng(13)
    bilstm = BiLSTM(FEATURES, 8, seed=1)
    state = bilstm.stream_state(2, capacity=3)
    for _ in range(4):
        samples = _read_only(_inputs(rng, 2, np.float64, timesteps=1)[:, 0])
        kept = samples.copy()
        bilstm.step(samples, state)
        _assert_bytes_equal(samples, kept)
