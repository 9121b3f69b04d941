"""Stream/offline parity harness for the serving subsystem.

Every streaming fast path is pinned to its offline reference:

* ``BiLSTM.step`` vs ``fast_forward`` at the layer level, and the stacked
  two-direction ``BiLSTM.step`` bitwise vs a per-direction reference kernel,
* ``GlucosePredictor.step_stream`` vs ``predict`` and ``predict_graph``
  (≤ 1e-10) across strides, warm-up offsets, and scheduler batch sizes,
* streaming detector verdicts vs the offline ``predict`` on the same windows,
* the scheduler's lane-column routing of detector rows and verdicts vs a
  per-session reference copy (``TestColumnRouting``, bitwise),
* the whole stack under an online attack via ``scripts/check_parity.py``'s
  serving smoke (tier-1 tripwire).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.cohort import CGM_COLUMN
from repro.detectors import KNNDistanceDetector, StreamingDetector
from repro.nn import BiLSTM, LSTM
from repro.nn.recurrent import _gate_step
from repro.serving import (
    AttackEpisode,
    OnlineAttacker,
    StreamReplayer,
    StreamScheduler,
)

from tests.conftest import stream_session, stream_verdicts

TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def aggregate_zoo(tiny_cohort):
    """Aggregate-only zoo: every patient shares one model (one serving lane)."""
    from repro.glucose import GlucoseModelZoo

    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=1, hidden_size=8),
        train_personalized=False,
        seed=5,
    )
    zoo.fit(tiny_cohort)
    return zoo


@pytest.fixture(scope="module")
def sample_detector(tiny_zoo, tiny_cohort):
    """A fitted, deterministic per-sample detector shared by the tests."""
    windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
    return KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :])


class PerDirectionStreamReference:
    """Reference twin of :meth:`BiLSTM.step`: one ring and one recurrence per
    direction, each direction stepped through the one-cell :func:`_gate_step`."""

    def __init__(self, layer, n_streams, capacity):
        self.layer = layer
        self.capacity = capacity
        width = 4 * layer.hidden_size
        self.rings = [np.zeros((n_streams, capacity, width)) for _ in range(2)]
        self.cursor = np.zeros(n_streams, dtype=int)
        self.count = np.zeros(n_streams, dtype=int)

    def reset_slots(self, rows):
        self.cursor[rows] = 0
        self.count[rows] = 0

    def step(self, samples, rows):
        directions = (self.layer.forward_layer, self.layer.backward_layer)
        cursors = self.cursor[rows]
        for ring, direction in zip(self.rings, directions):
            ring[rows, cursors] = samples @ direction.cell.weight_input.data
        self.cursor[rows] = (cursors + 1) % self.capacity
        self.count[rows] = np.minimum(self.count[rows] + 1, self.capacity)
        size = self.layer.hidden_size
        outputs = np.full((len(rows), 2 * size), np.nan)
        full_mask = self.count[rows] == self.capacity
        full_rows = rows[full_mask]
        if len(full_rows) == 0:
            return outputs
        order = (self.cursor[full_rows][:, None] + np.arange(self.capacity)) % self.capacity
        time_orders = (range(self.capacity), range(self.capacity - 1, -1, -1))
        finals = []
        for ring, direction, time_order in zip(self.rings, directions, time_orders):
            window = np.take_along_axis(ring[full_rows], order[:, :, None], axis=1)
            hidden = np.zeros((len(full_rows), size))
            cell_state = np.zeros((len(full_rows), size))
            gates = np.empty((len(full_rows), 4 * size))
            weight_hidden = direction.cell.weight_hidden.data
            bias = direction.cell.bias.data
            for step_index in time_order:
                hidden, cell_state = _gate_step(
                    window[:, step_index], hidden, cell_state, gates, weight_hidden, bias, size
                )
            finals.append(hidden)
        outputs[full_mask] = np.concatenate(finals, axis=1)
        return outputs


# ---------------------------------------------------------------------- layers
def gate_step_trace(lstm, sequence, time_order):
    """Step ``lstm``'s cell over ``sequence`` in ``time_order`` through
    :func:`_gate_step`, one sample at a time; returns each step's hidden."""
    size = lstm.hidden_size
    batch = sequence.shape[0]
    hidden = np.zeros((batch, size))
    cell_state = np.zeros((batch, size))
    gates = np.empty((batch, 4 * size))
    trace = []
    for step_index in time_order:
        projection = sequence[:, step_index] @ lstm.cell.weight_input.data
        hidden, cell_state = _gate_step(
            projection,
            hidden,
            cell_state,
            gates,
            lstm.cell.weight_hidden.data,
            lstm.cell.bias.data,
            size,
        )
        trace.append(hidden.copy())
    return trace


class TestLayerStreaming:
    def test_gate_step_matches_lstm_fast_forward_prefix(self, rng):
        # The per-direction reference above steps through ``_gate_step``;
        # pin that kernel to the layer's offline forward on every prefix.
        layer = LSTM(4, 6, seed=1)
        sequence = rng.normal(size=(3, 15, 4))
        trace = gate_step_trace(layer, sequence, range(15))
        for tick, hidden in enumerate(trace):
            reference = layer.fast_forward(sequence[:, : tick + 1, :])
            np.testing.assert_allclose(hidden, reference, atol=TOLERANCE)

    def test_gate_step_in_reverse_order_matches_reverse_lstm(self, rng):
        layer = LSTM(4, 6, reverse=True, seed=1)
        sequence = rng.normal(size=(2, 9, 4))
        trace = gate_step_trace(layer, sequence, range(8, -1, -1))
        np.testing.assert_allclose(trace[-1], layer.fast_forward(sequence), atol=TOLERANCE)

    def test_bilstm_reset_slot_warms_up_again(self, rng):
        layer = BiLSTM(3, 5, seed=8)
        state = layer.stream_state(2, capacity=3)
        sequence = rng.normal(size=(2, 8, 3))
        for tick in range(5):
            layer.step(sequence[:, tick, :], state)
        state.reset_slots(np.array([0]))
        np.testing.assert_array_equal(state.count, [0, 3])
        for tick in range(5, 8):
            output = layer.step(sequence[:, tick, :], state)
            # The recycled slot is cold until it holds a full window of its
            # own; the other slot keeps serving its full history.
            assert np.isnan(output[0]).all() == (tick < 7)
            reference = layer.fast_forward(sequence[:, tick - 2 : tick + 1, :])
            np.testing.assert_allclose(output[1], reference[1], atol=TOLERANCE)
        np.testing.assert_allclose(output[0], reference[0], atol=TOLERANCE)

    def test_bilstm_step_rejects_rows_of_another_length(self, rng):
        layer = BiLSTM(3, 5, seed=6)
        state = layer.stream_state(3, capacity=4)
        with pytest.raises(ValueError, match="same length"):
            layer.step(rng.normal(size=(2, 3)), state, rows=np.array([0]))
        np.testing.assert_array_equal(state.count, [0, 0, 0])

    def test_bilstm_ring_matches_fast_forward_window(self, rng):
        layer = BiLSTM(4, 6, seed=2)
        sequence = rng.normal(size=(2, 18, 4))
        state = layer.stream_state(2, capacity=7)
        for tick in range(18):
            output = layer.step(sequence[:, tick, :], state)
            if tick < 6:
                assert np.isnan(output).all()
            else:
                reference = layer.fast_forward(sequence[:, tick - 6 : tick + 1, :])
                np.testing.assert_allclose(output, reference, atol=TOLERANCE)

    def test_bilstm_partial_rows_leave_other_streams_untouched(self, rng):
        layer = BiLSTM(3, 5, seed=3)
        state = layer.stream_state(2, capacity=4)
        histories = {0: [], 1: []}
        schedule = [(0, 1), (0,), (0, 1), (0, 1), (1,), (0, 1), (0, 1), (0, 1)]
        for tick, rows in enumerate(schedule):
            samples = rng.normal(size=(len(rows), 3))
            output = layer.step(samples, state, rows=np.array(rows))
            for position, row in enumerate(rows):
                histories[row].append(samples[position])
                if len(histories[row]) >= 4:
                    reference = layer.fast_forward(
                        np.stack(histories[row][-4:])[np.newaxis]
                    )
                    np.testing.assert_allclose(
                        output[position], reference[0], atol=TOLERANCE
                    )

    def test_bilstm_state_grow_preserves_existing_rings(self, rng):
        layer = BiLSTM(3, 5, seed=4)
        state = layer.stream_state(1, capacity=3)
        history = [rng.normal(size=3) for _ in range(3)]
        for sample in history:
            layer.step(sample[np.newaxis], state, rows=np.array([0]))
        state.grow(5)
        assert state.n_streams == 5
        new_sample = rng.normal(size=3)
        output = layer.step(new_sample[np.newaxis], state, rows=np.array([0]))
        reference = layer.fast_forward(np.stack(history[-2:] + [new_sample])[np.newaxis])
        np.testing.assert_allclose(output[0], reference[0], atol=TOLERANCE)

    def test_stacked_step_pinned_under_cursors_skips_and_resets(self, rng):
        """One lane, slots at different cursors, skipped ticks, and a slot reset
        mid-stream: every output is bitwise the per-direction kernel and within
        1e-10 of ``fast_forward`` on the slot's window."""
        layer = BiLSTM(4, 6, seed=7)
        capacity, n_slots = 5, 4
        state = layer.stream_state(n_slots, capacity=capacity)
        reference = PerDirectionStreamReference(layer, n_slots, capacity)
        histories = {slot: [] for slot in range(n_slots)}
        warm_outputs = 0
        for tick in range(30):
            if tick == 14:
                # Slot 1 is recycled for a new stream mid-run.
                state.reset_slots(np.array([1]))
                reference.reset_slots(np.array([1]))
                histories[1] = []
            # Slots join at staggered ticks and each skips ticks on its own.
            rows = np.array(
                [
                    slot
                    for slot in range(n_slots)
                    if tick >= 2 * slot and rng.uniform() < 0.75
                ]
            )
            if len(rows) == 0:
                continue
            samples = rng.normal(size=(len(rows), 4))
            output = layer.step(samples, state, rows=rows)
            np.testing.assert_array_equal(output, reference.step(samples, rows))
            for position, slot in enumerate(rows):
                histories[slot].append(samples[position])
                if len(histories[slot]) < capacity:
                    assert np.isnan(output[position]).all()
                    continue
                window = np.stack(histories[slot][-capacity:])[np.newaxis]
                np.testing.assert_allclose(
                    output[position], layer.fast_forward(window)[0], atol=TOLERANCE, rtol=0
                )
                warm_outputs += 1
        assert len(set(state.cursor.tolist())) > 1, "slots should sit at different cursors"
        assert warm_outputs > 30

    @pytest.mark.parametrize("rows", [[0, 0], [-1], [3]])
    def test_bilstm_step_rejects_repeated_and_out_of_range_rows(self, rows, rng):
        # A repeated slot would advance once and drop a sample, and a
        # negative slot would wrap around to the last one.
        layer = BiLSTM(3, 5, seed=6)
        state = layer.stream_state(3, capacity=4)
        with pytest.raises(ValueError, match="rows"):
            layer.step(rng.normal(size=(len(rows), 3)), state, rows=np.array(rows))
        np.testing.assert_array_equal(state.count, [0, 0, 0])
        np.testing.assert_array_equal(state.cursor, [0, 0, 0])

    def test_sequence_bilstm_refuses_streaming(self):
        layer = BiLSTM(3, 5, return_sequences=True, seed=5)
        with pytest.raises(ValueError, match="return_sequences"):
            layer.stream_state(1, capacity=4)


# ------------------------------------------------------------------- predictor
def stream_trace(predictor, features):
    """Stream a ``(T, n_features)`` trace through one slot, one tick at a time;
    entry ``t`` is the prediction for the window ending at sample ``t``."""
    state = predictor.stream_state(1)
    return np.array([predictor.step_stream(sample[np.newaxis], state)[0] for sample in features])


class TestPredictorStreaming:
    def test_step_stream_trace_matches_offline_paths(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        features = record.features("test")[:80]
        windows, _, _ = tiny_zoo.dataset.windows_from_features(features)

        streamed = stream_trace(predictor, features)
        history = predictor.history
        assert np.isnan(streamed[: history - 1]).all()
        aligned = streamed[history - 1 : history - 1 + len(windows)]
        np.testing.assert_allclose(aligned, predictor.predict(windows), atol=TOLERANCE)
        np.testing.assert_allclose(
            aligned, predictor.predict_graph(windows), atol=TOLERANCE
        )

    @pytest.mark.parametrize("stride", [1, 4, 9])
    def test_step_stream_parity_across_strides(self, stride, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        features = record.features("test")[:70]
        windows, _, _ = tiny_zoo.dataset.windows_from_features(features)
        strided = windows[::stride]
        streamed = stream_trace(predictor, features)
        history = predictor.history
        aligned = streamed[history - 1 : history - 1 + len(windows)][::stride]
        np.testing.assert_allclose(aligned, predictor.predict(strided), atol=TOLERANCE)

    @pytest.mark.parametrize("offset", [0, 3, 11])
    def test_step_stream_parity_across_warmup_offsets(
        self, offset, tiny_zoo, tiny_cohort
    ):
        # Starting the stream mid-trace must not change which window each
        # prediction corresponds to.
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        features = record.features("test")[offset : offset + 50]
        windows, _, _ = tiny_zoo.dataset.windows_from_features(features)
        streamed = stream_trace(predictor, features)
        history = predictor.history
        aligned = streamed[history - 1 : history - 1 + len(windows)]
        np.testing.assert_allclose(aligned, predictor.predict(windows), atol=TOLERANCE)

    def test_step_stream_serves_concurrent_streams(self, tiny_zoo, tiny_cohort):
        records = list(tiny_cohort)
        predictor = tiny_zoo.model_for(records[0].label)
        traces = [record.features("test")[:50] for record in records]
        state = predictor.stream_state(len(traces))
        collected = np.full((50, len(traces)), np.nan)
        for tick in range(50):
            samples = np.stack([trace[tick] for trace in traces])
            collected[tick] = predictor.step_stream(samples, state)
        history = predictor.history
        for column, trace in enumerate(traces):
            windows, _, _ = tiny_zoo.dataset.windows_from_features(trace)
            np.testing.assert_allclose(
                collected[history - 1 : history - 1 + len(windows), column],
                predictor.predict(windows),
                atol=TOLERANCE,
            )

    def test_step_stream_rejects_bad_shapes(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        state = predictor.stream_state(1)
        with pytest.raises(ValueError, match="shape"):
            predictor.step_stream(np.zeros((1, 2)), state)

    @pytest.mark.parametrize("rows", [[0, 0], [-1], [2]])
    def test_step_stream_rejects_repeated_and_out_of_range_rows(
        self, rows, tiny_zoo, tiny_cohort
    ):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        state = predictor.stream_state(2)
        samples = np.tile(record.features("test")[:1], (len(rows), 1))
        with pytest.raises(ValueError, match="rows"):
            predictor.step_stream(samples, state, rows=np.array(rows))
        np.testing.assert_array_equal(state.count, [0, 0])

    def test_state_hash_distinguishes_weights_and_scaler(self, tiny_zoo, tiny_cohort):
        labels = [record.label for record in tiny_cohort]
        first = tiny_zoo.model_for(labels[0])
        second = tiny_zoo.model_for(labels[1])
        assert first.state_hash() == first.state_hash()
        assert first.state_hash() != second.state_hash()  # different weights


# ------------------------------------------------------------------- scheduler
class TestStreamScheduler:
    def test_sessions_sharing_weights_share_a_lane(self, aggregate_zoo, tiny_cohort):
        scheduler = StreamScheduler()
        for record in tiny_cohort:
            scheduler.open_session(record.label, aggregate_zoo.model_for(record.label))
        assert scheduler.n_sessions == len(tiny_cohort)
        assert scheduler.n_lanes == 1  # every patient uses the aggregate model

    def test_personalized_models_get_separate_lanes(self, tiny_zoo, tiny_cohort):
        scheduler = StreamScheduler()
        for record in tiny_cohort:
            scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        assert scheduler.n_lanes == len(tiny_cohort)

    @staticmethod
    def _count_model_calls(monkeypatch, predictors):
        """Count per-lane pushes and stacked recurrences of scheduler ticks."""
        from repro.glucose import predictor as predictor_module

        calls = {"push": 0, "recurrence": []}
        for predictor in predictors:
            original_push = predictor.push_stream

            def push(*args, _original=original_push, **kwargs):
                calls["push"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(predictor, "push_stream", push)
        original_encode = predictor_module.stream_encode

        def encode(states, rows, weights):
            calls["recurrence"].append(len(states))
            return original_encode(states, rows, weights)

        monkeypatch.setattr(predictor_module, "stream_encode", encode)
        return calls

    def test_one_model_step_per_lane_per_tick(
        self, aggregate_zoo, tiny_zoo, tiny_cohort, monkeypatch
    ):
        records = list(tiny_cohort)
        history = aggregate_zoo.aggregate.history
        for zoo, n_lanes in ((aggregate_zoo, 1), (tiny_zoo, len(records))):
            scheduler = StreamScheduler()
            for record in records:
                scheduler.open_session(record.label, zoo.model_for(record.label))
            assert scheduler.n_lanes == n_lanes
            for tick in range(history - 1):
                scheduler.tick({record.label: record.features("test")[tick] for record in records})
            predictors = {id(p): p for p in (zoo.model_for(r.label) for r in records)}
            calls = self._count_model_calls(monkeypatch, predictors.values())
            outcomes = scheduler.tick(
                {record.label: record.features("test")[history - 1] for record in records}
            )
            monkeypatch.undo()
            assert all(outcome.prediction is not None for outcome in outcomes.values())
            # One push per lane, and one stacked recurrence over every
            # same-shape lane, personalized ones included.
            assert calls == {"push": n_lanes, "recurrence": [n_lanes]}

    @pytest.mark.parametrize("n_sessions", [1, 3, 7])
    def test_scheduler_parity_across_batch_sizes(
        self, n_sessions, aggregate_zoo, tiny_cohort
    ):
        records = list(tiny_cohort)
        traces = [
            records[index % len(records)].features("test")[:40]
            for index in range(n_sessions)
        ]
        scheduler = StreamScheduler()
        sessions = [
            scheduler.open_session(
                records[index % len(records)].label,
                aggregate_zoo.model_for(records[index % len(records)].label),
                session_id=f"s{index}",
            )
            for index in range(n_sessions)
        ]
        collected = [[] for _ in range(n_sessions)]
        for tick in range(40):
            outcomes = scheduler.tick(
                {f"s{index}": traces[index][tick] for index in range(n_sessions)}
            )
            for index in range(n_sessions):
                collected[index].append(outcomes[f"s{index}"].prediction)
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        for index, trace in enumerate(traces):
            windows, _, _ = aggregate_zoo.dataset.windows_from_features(trace)
            streamed = np.array(
                collected[index][history - 1 : history - 1 + len(windows)], dtype=float
            )
            np.testing.assert_allclose(streamed, predictor.predict(windows), atol=TOLERANCE)
        assert all(session.last_prediction is not None for session in sessions)

    def test_missed_ticks_do_not_corrupt_other_streams(self, aggregate_zoo, tiny_cohort):
        records = list(tiny_cohort)[:2]
        traces = {record.label: record.features("test")[:40] for record in records}
        scheduler = StreamScheduler()
        for record in records:
            scheduler.open_session(record.label, aggregate_zoo.model_for(record.label))
        # The second stream misses every third transmission slot.
        consumed = {record.label: [] for record in records}
        positions = {record.label: 0 for record in records}
        predictions = {record.label: [] for record in records}
        for tick in range(40):
            samples = {}
            for index, record in enumerate(records):
                if index == 1 and tick % 3 == 2:
                    continue
                label = record.label
                samples[label] = traces[label][positions[label]]
                consumed[label].append(traces[label][positions[label]])
                positions[label] += 1
            outcomes = scheduler.tick(samples)
            for label, outcome in outcomes.items():
                predictions[label].append(outcome.prediction)
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        for record in records:
            label = record.label
            windows, _, _ = aggregate_zoo.dataset.windows_from_features(
                np.stack(consumed[label])
            )
            streamed = np.array(
                predictions[label][history - 1 : history - 1 + len(windows)], dtype=float
            )
            np.testing.assert_allclose(streamed, predictor.predict(windows), atol=TOLERANCE)

    def test_closed_session_slot_is_recycled(self, aggregate_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = aggregate_zoo.model_for(record.label)
        features = record.features("test")[:30]
        scheduler = StreamScheduler()
        first = scheduler.open_session(record.label, predictor, session_id="first")
        for tick in range(15):
            scheduler.tick({"first": features[tick]})
        slot = first.slot
        scheduler.close_session("first")
        assert scheduler.n_sessions == 0
        second = scheduler.open_session(record.label, predictor, session_id="second")
        assert second.slot == slot  # recycled, and must start cold
        predictions = [
            scheduler.tick({"second": features[tick]})["second"].prediction
            for tick in range(30)
        ]
        history = predictor.history
        windows, _, _ = aggregate_zoo.dataset.windows_from_features(features)
        streamed = np.array(predictions[history - 1 : history - 1 + len(windows)], dtype=float)
        np.testing.assert_allclose(streamed, predictor.predict(windows), atol=TOLERANCE)

    def test_duplicate_session_id_rejected(self, aggregate_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        scheduler = StreamScheduler()
        scheduler.open_session(record.label, aggregate_zoo.model_for(record.label))
        with pytest.raises(ValueError, match="already exists"):
            scheduler.open_session(record.label, aggregate_zoo.model_for(record.label))


# ----------------------------------------------------------- streaming verdicts
class TestStreamingDetector:
    def test_sample_unit_matches_offline_predict(self, sample_detector, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        features = record.features("test")[:40]
        session = stream_session(
            tiny_zoo.model_for(record.label), knn=StreamingDetector(sample_detector, unit="sample")
        )
        streamed = [verdict.flagged for verdict in stream_verdicts(session, features, "knn")]
        offline = sample_detector.predict(features[:, np.newaxis, :])
        assert streamed == [bool(flag) for flag in offline]

    def test_window_unit_matches_offline_predict(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        detector = KNNDistanceDetector(n_neighbors=5).fit(windows[::4])
        record = next(iter(tiny_cohort))
        features = record.features("test")[:40]
        session = stream_session(
            tiny_zoo.model_for(record.label),
            knn=StreamingDetector(detector, unit="window", history=12),
        )
        verdicts = stream_verdicts(session, features, "knn")
        assert all(verdict.warming for verdict in verdicts[:11])
        trace_windows, _, _ = tiny_zoo.dataset.windows_from_features(features)
        # window i ends at sample i + 11 -> verdict at tick i + 11
        offline = detector.predict(trace_windows)
        streamed = [verdicts[index + 11].flagged for index in range(len(trace_windows))]
        assert streamed == [bool(flag) for flag in offline]

    def test_include_scores(self, sample_detector, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        sample = record.features("test")[0]
        session = stream_session(
            tiny_zoo.model_for(record.label),
            knn=StreamingDetector(sample_detector, unit="sample", include_scores=True),
        )
        (verdict,) = stream_verdicts(session, [sample], "knn")
        offline_score = float(sample_detector.scores(sample[np.newaxis, np.newaxis, :])[0])
        assert verdict.score == pytest.approx(offline_score)

    def test_reset_restarts_warmup(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        detector = KNNDistanceDetector(n_neighbors=5).fit(windows[::8])
        record = next(iter(tiny_cohort))
        features = record.features("test")[:15]
        adapter = StreamingDetector(detector, unit="window", history=12)
        session = stream_session(tiny_zoo.model_for(record.label), knn=adapter)
        assert not stream_verdicts(session, features, "knn")[-1].warming
        # Quarantine is the scheduler's stream reset: lane slot and adapters.
        session._scheduler._quarantine_session(session)
        assert adapter.ticks == 0 and session.window() is None
        (verdict,) = stream_verdicts(session, features[:1], "knn")
        assert verdict.warming and verdict.tick == 0

    def test_window_history_must_match_the_predictor(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        detector = KNNDistanceDetector(n_neighbors=5)
        with pytest.raises(ValueError, match="history"):
            stream_session(
                predictor,
                knn=StreamingDetector(detector, unit="window", history=predictor.history + 1),
            )
        # Sample detectors read no window, so their history is not checked.
        stream_session(predictor, knn=StreamingDetector(detector, unit="sample", history=3))


# --------------------------------------------------------- attacked-stream parity
class TestAttackedStreamParity:
    @pytest.fixture(scope="class")
    def attacked_replay(self, aggregate_zoo, tiny_cohort, sample_detector):
        labels = [record.label for record in tiny_cohort]
        attacker = OnlineAttacker(
            {
                labels[0]: [AttackEpisode(start=20, duration=10)],
                labels[1]: [AttackEpisode(start=15, duration=8), AttackEpisode(start=40, duration=6)],
            }
        )
        replayer = StreamReplayer(
            aggregate_zoo,
            detectors={"knn": (sample_detector, "sample")},
            attacker=attacker,
        )
        report = replayer.replay(tiny_cohort, split="test", max_ticks=60)
        return attacker, report

    def test_attacker_tampers_only_cgm_during_episodes(
        self, attacked_replay, tiny_cohort
    ):
        attacker, report = attacked_replay
        assert attacker.records, "no tampering happened"
        for record in tiny_cohort:
            trace = report.sessions[record.label]
            benign = record.features("test")[:60]
            episodes = attacker.episodes.get(record.label, [])
            for outcome in trace.ticks:
                delivered = outcome.sample
                non_cgm = np.delete(delivered, CGM_COLUMN)
                np.testing.assert_array_equal(
                    non_cgm, np.delete(benign[outcome.tick], CGM_COLUMN)
                )
                if outcome.attacked:
                    assert any(episode.covers(outcome.tick) for episode in episodes)

    def test_streamed_predictions_match_offline_on_delivered_stream(
        self, attacked_replay, aggregate_zoo, tiny_cohort
    ):
        _, report = attacked_replay
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        for record in tiny_cohort:
            trace = report.sessions[record.label]
            delivered = np.stack([outcome.sample for outcome in trace.ticks])
            windows, _, _ = aggregate_zoo.dataset.windows_from_features(delivered)
            streamed = trace.predictions()[history - 1 : history - 1 + len(windows)]
            np.testing.assert_allclose(streamed, predictor.predict(windows), atol=TOLERANCE)

    def test_streaming_verdicts_match_offline_on_delivered_stream(
        self, attacked_replay, sample_detector, tiny_cohort
    ):
        _, report = attacked_replay
        for record in tiny_cohort:
            trace = report.sessions[record.label]
            delivered = np.stack([outcome.sample for outcome in trace.ticks])
            offline = sample_detector.predict(delivered[:, np.newaxis, :])
            streamed = [outcome.verdicts["knn"].flagged for outcome in trace.ticks]
            assert streamed == [bool(flag) for flag in offline]

    def test_tamper_records_are_consistent_with_traces(self, attacked_replay):
        attacker, report = attacked_replay
        tampered_by_session = {
            session_id: set(trace.attacked_ticks)
            for session_id, trace in report.sessions.items()
        }
        recorded = {}
        for record in attacker.records:
            recorded.setdefault(record.session_id, set()).add(record.tick)
            assert record.delivered_cgm != pytest.approx(record.benign_cgm)
        assert recorded == {
            session_id: ticks
            for session_id, ticks in tampered_by_session.items()
            if ticks
        }

    def test_episode_outcomes_cover_every_episode(self, attacked_replay):
        attacker, report = attacked_replay
        expected = sum(len(episodes) for episodes in attacker.episodes.values())
        outcomes = report.episode_outcomes("knn")
        assert len(outcomes) == expected
        for outcome in outcomes:
            if outcome.detected:
                assert outcome.episode.covers(outcome.first_flag_tick)
                assert outcome.latency_ticks >= 0
            else:
                assert outcome.first_flag_tick is None

    def test_multi_sample_search_records_realized_success(
        self, aggregate_zoo, tiny_cohort
    ):
        # With max_tampered_per_tick > 1 the search may exploit rewriting
        # already-delivered samples, but only the final sample is delivered;
        # TamperRecord.success must describe the realized (delivered) window.
        from repro.glucose.states import hyperglycemia_threshold

        label = next(iter(tiny_cohort)).label
        attacker = OnlineAttacker(
            {label: [AttackEpisode(start=20, duration=8)]}, max_tampered_per_tick=2
        )
        replayer = StreamReplayer(aggregate_zoo, attacker=attacker)
        report = replayer.replay(
            tiny_cohort.select([label]), split="test", max_ticks=40
        )
        assert attacker.records
        delivered = np.stack(
            [outcome.sample for outcome in report.sessions[label].ticks]
        )
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        for record in attacker.records:
            if not record.eligible:
                continue
            window = delivered[record.tick - history + 1 : record.tick + 1]
            realized = float(predictor.predict(window[np.newaxis])[0])
            assert record.success == (
                realized > hyperglycemia_threshold(record.scenario)
            )

    def test_replay_closes_sessions_on_failure(self, aggregate_zoo, tiny_cohort):
        # A mid-replay failure must not leak sessions into a BYO scheduler.
        class ExplodingAttacker(OnlineAttacker):
            def intercept(self, items):
                if any(session.ticks >= 5 for session, _, _ in items):
                    raise RuntimeError("boom")
                return super().intercept(items)

        scheduler = StreamScheduler()
        replayer = StreamReplayer(
            aggregate_zoo, attacker=ExplodingAttacker({}), scheduler=scheduler
        )
        with pytest.raises(RuntimeError, match="boom"):
            replayer.replay(tiny_cohort, split="test", max_ticks=20)
        assert scheduler.n_sessions == 0
        # The scheduler is reusable afterwards.
        replayer_ok = StreamReplayer(aggregate_zoo, scheduler=scheduler)
        report = replayer_ok.replay(tiny_cohort, split="test", max_ticks=20)
        assert scheduler.n_sessions == 0
        assert all(trace.n_ticks == 20 for trace in report.sessions.values())

    def test_confusion_and_breakdown_account_every_tick(self, attacked_replay):
        _, report = attacked_replay
        matrix = report.confusion("knn")
        total_ticks = sum(trace.n_ticks for trace in report.sessions.values())
        assert matrix.total == total_ticks  # sample unit: no warm-up ticks
        breakdown = report.trace_breakdown("knn")
        tampered = sum(len(trace.attacked_ticks) for trace in report.sessions.values())
        assert (
            sum(counts["true_positives"] + counts["false_negatives"] for counts in breakdown.values())
            == tampered
        )


# ------------------------------------------------------------------ tier-1 wire
class TestServingSmoke:
    """Wire scripts/check_parity.py's serving smoke into the tier-1 flow."""

    def test_serving_smoke_passes(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_serving_smoke(tiny_zoo, tiny_cohort, n_ticks=50)
        assert report["max_stream_gap"] <= check_parity.PREDICTION_TOLERANCE
        assert report["tampered_ticks"] > 0
        assert report["n_sessions"] == len(tiny_cohort)

    def test_stacked_step_parity_passes(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_stacked_step_parity(tiny_zoo, tiny_cohort)
        assert report["n_lanes"] == len(tiny_cohort) > 1
        assert report["predictions_compared"] > 0


# ----------------------------------------------------- single-session fast path
class TestSingleSessionFastPath:
    """A one-session tick is a one-row lane step: ``step_one`` (kept for
    one-row callers) is bitwise ``step_stream``, and a tick naming one of
    several sessions leaves the others' streams untouched."""

    def test_step_one_bitwise_matches_step_stream(self, aggregate_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = aggregate_zoo.aggregate
        features = record.features("test")[:40]
        fast_state = predictor.stream_state(1)
        batched_state = predictor.stream_state(1)
        for sample in features:
            fast = predictor.step_one(sample, fast_state, 0)
            batched = predictor.step_stream(sample[np.newaxis], batched_state)[0]
            if fast is None:
                assert np.isnan(batched)
            else:
                assert fast == batched  # bitwise, not approx

    def test_fast_path_engages_for_partial_ticks_of_a_busy_scheduler(
        self, aggregate_zoo, tiny_cohort
    ):
        # Two sessions open; a tick naming only one of them must leave the
        # other stream's state untouched.
        records = list(tiny_cohort)[:2]
        traces = {record.label: record.features("test")[:30] for record in records}
        scheduler = StreamScheduler()
        for record in records:
            scheduler.open_session(record.label, aggregate_zoo.model_for(record.label))
        predictions = {record.label: [] for record in records}
        consumed = {record.label: [] for record in records}
        positions = {record.label: 0 for record in records}
        for tick in range(30):
            names = (
                [records[0].label]
                if tick % 3 == 2
                else [record.label for record in records]
            )
            samples = {}
            for label in names:
                samples[label] = traces[label][positions[label]]
                consumed[label].append(traces[label][positions[label]])
                positions[label] += 1
            outcomes = scheduler.tick(samples)
            for label, outcome in outcomes.items():
                predictions[label].append(outcome.prediction)
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        for record in records:
            label = record.label
            windows, _, _ = aggregate_zoo.dataset.windows_from_features(
                np.stack(consumed[label])
            )
            streamed = np.array(
                predictions[label][history - 1 : history - 1 + len(windows)],
                dtype=float,
            )
            np.testing.assert_allclose(
                streamed, predictor.predict(windows), atol=TOLERANCE
            )


# ------------------------------------------------- incremental detector threading
class TestIncrementalStreamingAdapter:
    @pytest.fixture(scope="class")
    def madgan(self, tiny_zoo, tiny_cohort):
        from repro.detectors import MADGANDetector

        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        detector = MADGANDetector(
            epochs=1,
            hidden_size=8,
            inversion_steps=6,
            warm_inversion_steps=2,
            max_samples=200,
            seed=0,
        )
        detector.fit(windows[::4])
        return detector

    def test_incremental_auto_enabled_for_window_units(self, madgan, sample_detector):
        assert StreamingDetector(madgan, unit="window").incremental
        assert not StreamingDetector(sample_detector, unit="sample").incremental

    def test_incremental_requires_window_unit_and_whole_protocol(self, madgan):
        assert not StreamingDetector(madgan, unit="sample").incremental

        class WithoutIncrementalCall:  # no predict_incremental
            def make_inversion_state(self):
                return madgan.make_inversion_state()

            def scores_incremental(self, windows, states, parts=None):
                return madgan.scores_incremental(windows, states, parts)

        adapter = StreamingDetector(WithoutIncrementalCall(), unit="window")
        assert not adapter.incremental and adapter.inversion_state is None

    def test_update_advances_state_once_per_tick(self, madgan, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        features = record.features("test")[:16]
        adapter = StreamingDetector(madgan, unit="window", history=12)
        session = stream_session(tiny_zoo.model_for(record.label), madgan=adapter)
        for index, verdict in enumerate(stream_verdicts(session, features, "madgan")):
            if index < 11:
                assert verdict.warming
            else:
                assert verdict.flagged is not None
        assert adapter.inversion_state.ticks == 16 - 11
        adapter.reset()
        assert adapter.inversion_state.ticks == 0
        assert adapter.inversion_state.latent is None

    @pytest.fixture(scope="class")
    def window_brains(self, tiny_zoo, tiny_cohort):
        from repro.detectors import GaussianHMMDetector, LSTMVAEDetector

        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        benign = windows[::4]
        return {
            "lstm_vae": LSTMVAEDetector(
                epochs=1, hidden_size=8, batch_size=16, seed=0
            ).fit(benign),
            "hmm": GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(benign),
        }

    @pytest.mark.parametrize("name", ["lstm_vae", "hmm"])
    def test_family_is_stateless(self, window_brains, name):
        detector = window_brains[name]
        assert not StreamingDetector(detector, unit="window").incremental

    @pytest.mark.parametrize("name", ["lstm_vae", "hmm"])
    def test_family_threads_stream_state_per_tick(
        self, window_brains, tiny_zoo, tiny_cohort, name
    ):
        """The adapter keeps no window: each tick scores the lane's window."""
        detector = window_brains[name]
        record = next(iter(tiny_cohort))
        features = record.features("test")[:16]
        adapter = StreamingDetector(detector, unit="window", history=12)
        session = stream_session(tiny_zoo.model_for(record.label), brain=adapter)
        for index, sample in enumerate(features):
            (verdict,) = stream_verdicts(session, [sample], "brain")
            if index < 11:
                assert verdict.warming and session.window() is None
            else:
                np.testing.assert_array_equal(session.window(), features[index - 11 : index + 1])
                assert verdict.flagged == bool(detector.predict(session.window()[None])[0])
        assert adapter.ticks == 16
        assert adapter.inversion_state is None
        assert not hasattr(adapter, "_ring")
        adapter.reset()
        assert adapter.ticks == 0

    def test_scheduler_threads_states_through_batched_ticks(
        self, madgan, aggregate_zoo, tiny_cohort
    ):
        records = list(tiny_cohort)[:2]
        scheduler = StreamScheduler()
        adapters = {}
        for record in records:
            adapters[record.label] = StreamingDetector(madgan, unit="window", history=12)
            scheduler.open_session(
                record.label,
                aggregate_zoo.model_for(record.label),
                detectors={"madgan": adapters[record.label]},
            )
        traces = {record.label: record.features("test")[:15] for record in records}
        for tick in range(15):
            outcomes = scheduler.tick(
                {label: trace[tick] for label, trace in traces.items()}
            )
            for label, outcome in outcomes.items():
                verdict = outcome.verdicts["madgan"]
                assert verdict.warming == (tick < 11)
        for adapter in adapters.values():
            assert adapter.inversion_state.ticks == 15 - 11
            assert adapter.inversion_state.latent is not None


# -------------------------------------------------------------- device clocks
class TestDeviceClocks:
    def test_zero_clock_config_matches_lockstep_replay(
        self, aggregate_zoo, tiny_cohort, sample_detector
    ):
        from repro.serving import DeviceClockConfig

        reports = []
        for clocks in (None, DeviceClockConfig()):
            replayer = StreamReplayer(
                aggregate_zoo,
                detectors={"knn": (sample_detector, "sample")},
                clocks=clocks,
            )
            reports.append(replayer.replay(tiny_cohort, split="test", max_ticks=30))
        for record in tiny_cohort:
            lockstep = reports[0].sessions[record.label]
            clocked = reports[1].sessions[record.label]
            assert clocked.delivered_at == list(range(30))
            assert clocked.missed_slots == 0
            np.testing.assert_array_equal(
                lockstep.predictions(), clocked.predictions()
            )

    def test_drifting_clocks_miss_ticks_and_recover(
        self, aggregate_zoo, tiny_cohort, sample_detector
    ):
        from repro.serving import DeviceClockConfig

        replayer = StreamReplayer(
            aggregate_zoo,
            detectors={"knn": (sample_detector, "sample")},
            clocks=DeviceClockConfig(drift=0.3, jitter=0.2, dropout=0.1, seed=4),
        )
        report = replayer.replay(tiny_cohort, split="test", max_ticks=40)
        predictor = aggregate_zoo.aggregate
        history = predictor.history
        missed_anywhere = 0
        for record in tiny_cohort:
            trace = report.sessions[record.label]
            # Every sample is eventually delivered, in order.
            assert trace.n_ticks == 40
            assert trace.delivered_at == sorted(trace.delivered_at)
            missed_anywhere += trace.missed_slots
            # Missed global slots never corrupt the stream: predictions still
            # match the offline fast path on the delivered samples.
            delivered = np.stack([outcome.sample for outcome in trace.ticks])
            windows, _, _ = aggregate_zoo.dataset.windows_from_features(delivered)
            streamed = trace.predictions()[history - 1 : history - 1 + len(windows)]
            np.testing.assert_allclose(
                streamed, predictor.predict(windows), atol=TOLERANCE
            )
            offline = sample_detector.predict(delivered[:, np.newaxis, :])
            flags = [bool(outcome.verdicts["knn"].flagged) for outcome in trace.ticks]
            assert flags == [bool(flag) for flag in offline]
        assert missed_anywhere > 0  # the drift actually exercised missed ticks

    def test_heavy_dropout_still_drains_every_trace(
        self, aggregate_zoo, tiny_cohort
    ):
        # Dropout retries are geometric; the replay must keep running until
        # every device drains rather than truncating at a mean-based horizon.
        from repro.serving import DeviceClockConfig

        replayer = StreamReplayer(
            aggregate_zoo,
            clocks=DeviceClockConfig(dropout=0.6, seed=11),
        )
        report = replayer.replay(tiny_cohort, split="test", max_ticks=25)
        for record in tiny_cohort:
            trace = report.sessions[record.label]
            assert trace.n_ticks == 25
            assert trace.missed_slots > 0

    def test_invalid_clock_configs_rejected(self):
        from repro.serving import DeviceClockConfig

        with pytest.raises(ValueError):
            DeviceClockConfig(drift=1.5)
        with pytest.raises(ValueError):
            DeviceClockConfig(jitter=-0.1)
        with pytest.raises(ValueError):
            DeviceClockConfig(dropout=1.0)


# -------------------------------------------------------- attacker warm start
class TestAttackerWarmStart:
    def _replay(self, zoo, cohort, warm_start):
        label = next(iter(cohort)).label
        attacker = OnlineAttacker(
            {label: [AttackEpisode(start=20, duration=15)]},
            sustain=False,
            warm_start=warm_start,
        )
        replayer = StreamReplayer(zoo, attacker=attacker)
        replayer.replay(cohort.select([label]), split="test", max_ticks=45)
        return attacker

    def test_warm_start_reduces_query_count(self, aggregate_zoo, tiny_cohort):
        warm = self._replay(aggregate_zoo, tiny_cohort, warm_start=True)
        cold = self._replay(aggregate_zoo, tiny_cohort, warm_start=False)
        assert warm.records and cold.records
        warm_ticks = [record for record in warm.records if record.warm_started]
        assert warm_ticks, "the warm start never resolved a tick"
        assert all(record.queries == 2 for record in warm_ticks)
        assert sum(record.queries for record in warm.records) < sum(
            record.queries for record in cold.records
        )
        assert not any(record.warm_started for record in cold.records)

    def test_warm_start_preserves_tampering_effect(self, aggregate_zoo, tiny_cohort):
        warm = self._replay(aggregate_zoo, tiny_cohort, warm_start=True)
        # Warm-started ticks really tamper: the delivered CGM differs from
        # the benign one and the episode keeps reaching the goal.
        for record in warm.records:
            if record.warm_started:
                assert record.success
                assert record.delivered_cgm != record.benign_cgm


class TestSessionChurn:
    """Devices joining/leaving mid-replay (SessionChurnConfig): staggered
    joins, disconnect/reconnect segments, close-on-drain — with the drain
    guarantee (every device delivers its full trace) and scheduler slot
    recycling exercised at scale."""

    class RecordingScheduler(StreamScheduler):
        """Logs every (session id, lane slot) allocation for the assertions."""

        def __init__(self):
            super().__init__()
            self.allocations = []

        def open_session(self, *args, **kwargs):
            session = super().open_session(*args, **kwargs)
            self.allocations.append((session.session_id, session.slot))
            return session

    def test_invalid_churn_config_rejected(self):
        from repro.serving import SessionChurnConfig

        with pytest.raises(ValueError):
            SessionChurnConfig(join_stagger=-1)
        with pytest.raises(ValueError):
            SessionChurnConfig(disconnect_every=0)
        with pytest.raises(ValueError):
            SessionChurnConfig(reconnect_after=-1)

    def test_drain_guarantee_under_churn(self, aggregate_zoo, tiny_cohort):
        from repro.serving import SessionChurnConfig

        scheduler = self.RecordingScheduler()
        replayer = StreamReplayer(
            aggregate_zoo,
            scheduler=scheduler,
            churn=SessionChurnConfig(
                join_stagger=3, disconnect_every=11, reconnect_after=2
            ),
        )
        max_ticks = 40
        report = replayer.replay(tiny_cohort, split="test", max_ticks=max_ticks)
        for record in tiny_cohort:
            segments = report.segments_for(record.label)
            # Mid-trace disconnects split the device into several sessions...
            assert len(segments) == 4  # ceil(40 / 11)
            assert segments[0].session_id == record.label
            assert segments[1].session_id == f"{record.label}#1"
            # ...whose ticks concatenate to the full trace (drain guarantee).
            assert report.delivered_ticks(record.label) == max_ticks
            for segment in segments[:-1]:
                assert segment.n_ticks == 11
        # Every session was torn down; no slots leaked.
        assert scheduler.n_sessions == 0
        assert scheduler.n_lanes == 0

    def test_slots_are_recycled_across_segments(self, aggregate_zoo, tiny_cohort):
        from repro.serving import SessionChurnConfig

        scheduler = self.RecordingScheduler()
        replayer = StreamReplayer(
            aggregate_zoo,
            scheduler=scheduler,
            churn=SessionChurnConfig(
                join_stagger=2, disconnect_every=7, reconnect_after=1
            ),
        )
        replayer.replay(tiny_cohort, split="test", max_ticks=30)
        # All sessions share the aggregate model (one lane); with churn the
        # number of session segments far exceeds the number of distinct slots
        # ever allocated — freed slots were reused by later segments.
        slots = [slot for _, slot in scheduler.allocations]
        assert len(scheduler.allocations) > len(set(slots))
        reused = len(scheduler.allocations) - len(set(slots))
        assert reused >= len(list(tiny_cohort))  # at least one reuse per device

    def test_reconnected_segment_warms_up_again(self, aggregate_zoo, tiny_cohort):
        from repro.serving import SessionChurnConfig

        history = aggregate_zoo.aggregate.history
        replayer = StreamReplayer(
            aggregate_zoo,
            churn=SessionChurnConfig(disconnect_every=history + 4, reconnect_after=1),
        )
        report = replayer.replay(tiny_cohort, split="test", max_ticks=2 * history + 8)
        for record in tiny_cohort:
            segments = report.segments_for(record.label)
            assert len(segments) >= 2
            for segment in segments:
                predictions = segment.predictions()
                warmup = min(history - 1, len(predictions))
                # A fresh segment's ring restarts: its first history-1
                # predictions are NaN again.
                assert np.isnan(predictions[:warmup]).all()

    def test_churn_composes_with_device_clocks(self, aggregate_zoo, tiny_cohort):
        from repro.serving import DeviceClockConfig, SessionChurnConfig

        replayer = StreamReplayer(
            aggregate_zoo,
            clocks=DeviceClockConfig(drift=0.1, jitter=0.1, dropout=0.1, seed=3),
            churn=SessionChurnConfig(
                join_stagger=4, disconnect_every=9, reconnect_after=2
            ),
        )
        max_ticks = 30
        report = replayer.replay(tiny_cohort, split="test", max_ticks=max_ticks)
        for record in tiny_cohort:
            assert report.delivered_ticks(record.label) == max_ticks
            for segment in report.segments_for(record.label):
                # Global delivery times stay strictly increasing per device
                # segment even under jitter + dropout retries.
                deltas = np.diff(segment.delivered_at)
                assert (deltas >= 1).all()

    def test_churned_replay_scores_episodes_per_segment(self, aggregate_zoo, tiny_cohort):
        from repro.serving import SessionChurnConfig

        label = next(iter(tiny_cohort)).label
        history = aggregate_zoo.aggregate.history
        # Attack the SECOND segment of the churned device (its session id
        # carries the #1 suffix); the replay must still attribute episodes.
        attacker = OnlineAttacker(
            {f"{label}#1": [AttackEpisode(start=history, duration=6)]},
            sustain=False,
        )
        replayer = StreamReplayer(
            aggregate_zoo,
            attacker=attacker,
            churn=SessionChurnConfig(disconnect_every=20, reconnect_after=1),
        )
        report = replayer.replay(
            tiny_cohort.select([label]), split="test", max_ticks=45
        )
        second = report.sessions[f"{label}#1"]
        assert second.attacked_ticks, "the second segment was never tampered"
        assert not report.sessions[label].attacked_ticks

    def test_churnless_config_matches_plain_replay(self, aggregate_zoo, tiny_cohort):
        from repro.serving import SessionChurnConfig

        plain = StreamReplayer(aggregate_zoo).replay(
            tiny_cohort, split="test", max_ticks=25
        )
        churned = StreamReplayer(
            aggregate_zoo, churn=SessionChurnConfig()
        ).replay(tiny_cohort, split="test", max_ticks=25)
        for record in tiny_cohort:
            left = plain.sessions[record.label]
            right = churned.sessions[record.label]
            assert left.delivered_at == right.delivered_at
            np.testing.assert_array_equal(left.predictions(), right.predictions())


# ------------------------------------------------------- cross-lane groups
class _CountingDetector:
    """Stateless stub that records every ``predict`` batch it answers.

    Its score of a view is the view's sum, so each verdict shows whose row
    it came from.
    """

    name = "counting"

    def __init__(self):
        self.batches = []

    def scores(self, windows):
        return np.asarray(windows).reshape(len(windows), -1).sum(axis=1)

    def predict(self, windows):
        self.batches.append(len(windows))
        return (self.scores(windows) > 100.0).astype(int)


class TestCrossLaneDetectorGroups:
    """Every detector answers one call per ``(detector, unit)`` per tick
    across every lane; MAD-GAN's call takes one part per lane."""

    SESSIONS_PER_LANE = 2

    @pytest.fixture(scope="class")
    def madgan(self, tiny_zoo, tiny_cohort):
        from repro.detectors import MADGANDetector

        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        return MADGANDetector(
            epochs=1, hidden_size=8, inversion_steps=4, warm_inversion_steps=2,
            max_samples=200, seed=0,
        ).fit(windows[::4])

    def open_fleet(self, scheduler, tiny_zoo, tiny_cohort, detectors):
        """``SESSIONS_PER_LANE`` sessions per personalized lane; returns feeds."""
        feeds = {}
        for record in tiny_cohort:
            for copy in range(self.SESSIONS_PER_LANE):
                session_id = f"{record.label}/{copy}"
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={name: build() for name, build in detectors.items()},
                    session_id=session_id,
                )
                feeds[session_id] = record.features("test")[3 * copy :]
        assert scheduler.n_lanes == len(tiny_cohort) > 1
        return feeds

    def test_one_predict_per_detector_and_unit_per_tick(self, tiny_zoo, tiny_cohort):
        stub = _CountingDetector()
        scheduler = StreamScheduler()
        feeds = self.open_fleet(
            scheduler,
            tiny_zoo,
            tiny_cohort,
            {
                "sample": lambda: StreamingDetector(stub, unit="sample", include_scores=True),
                "window": lambda: StreamingDetector(stub, unit="window", include_scores=True),
            },
        )
        history = tiny_zoo.dataset.history
        for tick in range(history + 3):
            stub.batches.clear()
            outcomes = scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
            warm = tick >= history - 1
            # One call for the sample unit, one more once windows are warm,
            # each over every session of every lane.
            assert stub.batches == [len(feeds)] * (2 if warm else 1)
            for session_id, outcome in outcomes.items():
                trace = feeds[session_id]
                assert outcome.verdicts["sample"].score == stub.scores(trace[tick][None])[0]
                window = outcome.verdicts["window"]
                if warm:
                    view = trace[tick - history + 1 : tick + 1][None]
                    assert window.score == stub.scores(view)[0]
                    assert window.flagged == bool(stub.predict(view)[0])
                else:
                    assert window.warming

    def test_one_madgan_call_per_tick_across_lanes(self, madgan, tiny_zoo, tiny_cohort):
        """One ``predict_incremental`` call per tick serves every lane, one
        part per lane; ``inversion_calls`` still counts each warm lane's
        batch plus the one cold batch."""
        calls = []
        predict = madgan.predict_incremental

        def spy(windows, states, parts=None):
            calls.append((list(states), list(parts)))
            return predict(windows, states, parts)

        madgan.predict_incremental = spy
        try:
            scheduler = StreamScheduler()
            adapters = {}

            def adapter():
                built = StreamingDetector(madgan, unit="window")
                adapters[id(built.inversion_state)] = built
                return built

            feeds = self.open_fleet(scheduler, tiny_zoo, tiny_cohort, {"madgan": adapter})
            lane_of = {
                id(scheduler.session(sid).detectors["madgan"].inversion_state): sid.split("/")[0]
                for sid in feeds
            }
            history = tiny_zoo.dataset.history
            for tick in range(history + 6):
                calls.clear()
                states = [adapter.inversion_state for adapter in adapters.values()]
                before = [(state.latent is None, state.fallbacks) for state in states]
                inversions = madgan.inversion_calls
                scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
                if tick < history - 1:
                    assert not calls
                    continue
                ((called_states, parts),) = calls
                assert len(called_states) == len(feeds)
                lanes = [lane_of[id(state)] for state in called_states]
                bounds = np.cumsum([0, *parts])
                assert len(parts) == len(tiny_cohort)
                assert all(
                    len(set(lanes[lo:hi])) == 1 for lo, hi in zip(bounds, bounds[1:])
                )
                warm_lanes = {
                    lane_of[id(state)]
                    for state, (cold, _) in zip(states, before)
                    if not cold
                }
                owes_cold = any(
                    cold or state.fallbacks > fallbacks
                    for state, (cold, fallbacks) in zip(states, before)
                )
                assert madgan.inversion_calls - inversions == len(warm_lanes) + int(owes_cold)
        finally:
            del madgan.predict_incremental

    def test_per_lane_metric_series_count_lane_parts(self, tiny_zoo, tiny_cohort):
        """``detector_queries_total`` / ``detector_batch`` stay per lane: one
        query per lane and group, batch = the lane's rows of the call."""
        from repro.obs import Observer
        from repro.obs.metrics import series_key

        stub = _CountingDetector()
        scheduler = StreamScheduler(obs=Observer(trace=True))
        feeds = self.open_fleet(
            scheduler,
            tiny_zoo,
            tiny_cohort,
            {
                "sample": lambda: StreamingDetector(stub, unit="sample"),
                "window": lambda: StreamingDetector(stub, unit="window"),
            },
        )
        history = tiny_zoo.dataset.history
        ticks = history + 2
        for tick in range(ticks):
            scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()}, now=tick)
        snapshot = scheduler.obs_snapshot()
        queries = ticks + (ticks - history + 1)  # sample every tick, window once warm
        for record in tiny_cohort:
            lane = tiny_zoo.model_for(record.label).state_hash()
            key = series_key("serving.detector_queries_total", {"lane": lane, "incremental": "no"})
            assert snapshot["counters"][key] == queries
            batch = snapshot["histograms"][series_key("serving.detector_batch", {"lane": lane})]
            assert batch["count"] == queries
            assert batch["sum"] == queries * self.SESSIONS_PER_LANE
        spans = [span for span in scheduler.obs.spans if span.stage == "detector_batch"]
        assert len(spans) == len(stub.batches) == queries
        assert all(span.lane is None for span in spans)
        assert {span.detail["lanes"] for span in spans} == {len(tiny_cohort)}
        assert {span.detail["batch"] for span in spans} == {len(feeds)}


# ------------------------------------------------------ stacked lane steps
@lru_cache(maxsize=None)
def _stream_predictor(history: int, hidden: int, clip: bool, seed: int):
    """An untrained forecaster with a fitted scaler: random weights serve
    bitwise comparisons as well as trained ones, and build in milliseconds."""
    from repro.data.dataset import WindowScaler
    from repro.glucose import GlucosePredictor

    predictor = GlucosePredictor(
        history=history, hidden_size=hidden, input_clip_std=3.0 if clip else None, seed=seed
    )
    rng = np.random.default_rng(seed)
    predictor.scaler = WindowScaler().fit(
        rng.normal(120.0, 30.0, size=(16, history, predictor.n_features))
    )
    return predictor


#: ``(history, hidden, clamp)`` of the lanes the property draws.  The first
#: two share a stream signature (the clamp is per lane), so most drawn lane
#: sets stack several lanes into one step.
_LANE_SHAPES = [(4, 8, True), (4, 8, False), (5, 6, True)]


class TestStackedLaneStep:
    """Lanes of one tick that share a stream signature and a warm-row count
    are stepped together (one stacked recurrence, head and unscaling); each
    lane's predictions and ring state stay bitwise those of its own one-lane
    ``step_stream``."""

    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.integers(0, len(_LANE_SHAPES) - 1), st.integers(0, 3)),
            min_size=1, max_size=5, unique=True,
        ),
        sizes=st.lists(st.integers(1, 24), min_size=5, max_size=5),
        same_size=st.booleans(),
        miss_rate=st.sampled_from([0.0, 0.15, 0.4]),
        extra_ticks=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_each_lane_matches_its_one_lane_step(
        self, lanes, sizes, same_size, miss_rate, extra_ticks, seed
    ):
        rng = np.random.default_rng(seed)
        scheduler = StreamScheduler()
        served = []  # (predictor, reference state, session ids)
        for (shape, copy_seed), n_sessions in zip(lanes, sizes):
            n_sessions = sizes[0] if same_size else n_sessions
            predictor = _stream_predictor(*_LANE_SHAPES[shape], seed=10 * shape + copy_seed)
            ids = [f"{shape}.{copy_seed}/{index}" for index in range(n_sessions)]
            for session_id in ids:
                scheduler.open_session("p", predictor, session_id=session_id)
            served.append((predictor, predictor.stream_state(n_sessions), ids))
        histories = [predictor.history for predictor, _, _ in served]
        for _ in range(max(histories) + extra_ticks):
            # Session slots miss ticks on one pattern shared by every lane:
            # warm and warming slots mix inside a lane, while lanes of one
            # size keep equal warm-row counts and so step together.
            missed = rng.random(24) < miss_rate
            delivery = {
                session_id: rng.normal(120.0, 40.0, predictor.n_features)
                for predictor, _, ids in served
                for index, session_id in enumerate(ids)
                if not missed[index]
            }
            if not delivery:
                continue
            outcomes = scheduler.tick(delivery)
            for predictor, state, ids in served:
                delivered = [index for index, sid in enumerate(ids) if sid in delivery]
                if not delivered:
                    continue
                expected = predictor.step_stream(
                    np.stack([delivery[ids[index]] for index in delivered]),
                    state,
                    rows=np.array(delivered),
                )
                for index, value in zip(delivered, expected):
                    got = outcomes[ids[index]].prediction
                    if np.isnan(value):
                        assert got is None
                    else:
                        assert got == value  # bitwise, not approx
        for predictor, state, ids in served:
            lane_state = scheduler._lanes[predictor.state_hash()].state
            slots = [scheduler.session(sid)._slot for sid in ids]
            assert slots == list(range(len(ids)))
            assert lane_state.ring[: len(ids)].tobytes() == state.ring.tobytes()
            assert np.array_equal(lane_state.cursor[: len(ids)], state.cursor)
            assert np.array_equal(lane_state.count[: len(ids)], state.count)


# ------------------------------------------- column routing vs per-session
class _PerSessionScheduler(StreamScheduler):
    """Reference twin of the scheduler's detector bookkeeping, one
    (session, adapter) pair at a time.

    It keeps the per-session form the lane columns replaced: outcomes,
    health and routing in one loop per session, dict groups holding one
    ``(outcome, name, adapter, tick, session)`` target per row, and one
    verdict built per target.  Its one change from that form is the rule
    the column code keeps too: a session that its own step quarantined
    routes to no detector.  Row order, group order, counters and spans must
    come out bitwise the same as the column code's.
    """

    def _health_after_step(self, session, outcome, warm):
        non_finite = outcome.prediction is None and warm
        if non_finite and self.obs is not None:
            self.obs.registry.inc("serving.nonfinite_predictions_total", lane=session._lane_key)
        health = session.health
        if health is None:
            return
        if non_finite:
            outcome.error = outcome.error or "non-finite prediction"
            health.record_error(outcome.tick, "non-finite prediction", delivered_at=self._now)
            if health.blocked:
                self._quarantine_session(session)
        else:
            health.record_clean(outcome.tick, delivered_at=self._now)

    def _serve_lane(self, lane_key, step, results, pending_views):
        from repro.detectors.streaming import StreamVerdict
        from repro.serving.session import SessionTick

        lane, rows, warm = step.lane, step.rows, step.warm
        sessions = step.sessions
        outcomes = []
        for (session, _, tag), sample, prediction, is_warm in zip(
            step.items, step.samples, step.predictions, warm
        ):
            value = None if np.isnan(prediction) else float(prediction)
            outcome = SessionTick(session.session_id, session.ticks, sample.copy(), value, ingress=tag)
            session.ticks += 1
            session.last_sample = sample
            if value is not None:
                session.last_prediction = value
            self._health_after_step(session, outcome, is_warm)
            results[session.session_id] = outcome
            outcomes.append(outcome)
        sources = {"sample": step.samples[:, np.newaxis, :], "window": None}
        warming = {}
        lane_rows = {}  # group key -> (group, this lane's rows of it)
        for index, (session, outcome) in enumerate(zip(sessions, outcomes)):
            if session.health is not None and session.health.blocked:
                continue  # quarantined by its own step
            for name, adapter in session.detectors.items():
                detector_tick = adapter.take_tick()
                if adapter.unit == "window" and not warm[index]:
                    outcome.verdicts[name] = StreamVerdict(tick=detector_tick, warming=True)
                    warming[name] = warming.get(name, 0) + 1
                    continue
                group_key = (id(adapter.detector), adapter.unit)
                entry = lane_rows.get(group_key)
                if entry is None:
                    group = pending_views.get(group_key)
                    if group is None:
                        group = pending_views[group_key] = dict(
                            detector=adapter.detector, incremental=adapter.incremental,
                            wants_scores=False, lanes=[], views=[], targets=[],
                        )
                    entry = lane_rows[group_key] = (group, [])
                entry[1].append(index)
                entry[0]["targets"].append((outcome, name, adapter, detector_tick, session))
                if adapter.include_scores:
                    entry[0]["wants_scores"] = True
        if self.obs is not None:
            for name, count in warming.items():
                self.obs.registry.inc("serving.detector_warming_total", count, detector=name)
        for group_key, (group, group_rows) in lane_rows.items():
            unit = group_key[-1]
            if sources[unit] is None:
                sources["window"] = lane.windows(rows)
            group["lanes"].append((lane_key, len(group_rows)))
            group["views"].append(sources[unit][group_rows])

    def _query_detectors(self, pending_views):
        from time import perf_counter

        obs, now = self.obs, self._now
        for group in pending_views.values():
            group_started = None
            if obs is not None:
                group_started = perf_counter()
                incremental = "yes" if group["incremental"] else "no"
                for lane_key, count in group["lanes"]:
                    obs.registry.inc(
                        "serving.detector_queries_total", lane=lane_key, incremental=incremental
                    )
                    obs.registry.observe("serving.detector_batch", count, lane=lane_key)
            detector, views = group["detector"], group["views"]
            views = views[0] if len(views) == 1 else np.concatenate(views)
            runs = getattr(detector, "warm_runs", 0)
            try:
                if group["incremental"]:
                    states = [target[2].inversion_state for target in group["targets"]]
                    parts = [count for _, count in group["lanes"]]
                    flags, scores = detector.predict_incremental(views, states, parts)
                else:
                    flags = detector.predict(views)
                    scores = detector.scores(views) if group["wants_scores"] else None
            except Exception as exc:
                self._detector_failure(group["targets"], exc)
                continue
            group["warm_runs"] = getattr(detector, "warm_runs", 0) - runs
            self._apply_group_verdicts(group, flags, scores, group_started, now)

    def _apply_group_verdicts(self, group, flags, scores, group_started, now):
        from repro.detectors.streaming import StreamVerdict

        obs, tallies = self.obs, {}
        for index, (outcome, name, adapter, detector_tick, _) in enumerate(group["targets"]):
            score = (
                float(scores[index]) if scores is not None and adapter.include_scores else None
            )
            verdict = StreamVerdict(
                tick=detector_tick,
                warming=False,
                flagged=bool(flags[index]),
                score=score,
                degraded=adapter.watchdog_tripped(),
            )
            outcome.verdicts[name] = verdict
            if obs is not None:
                tally = (name, verdict.flagged, verdict.degraded)
                tallies[tally] = tallies.get(tally, 0) + 1
        if obs is None:
            return
        for (name, flagged, degraded), count in tallies.items():
            obs.registry.inc(
                "serving.detector_verdicts_total", count, detector=name,
                flagged="yes" if flagged else "no",
            )
            if degraded:
                obs.registry.inc("serving.watchdog_degraded_total", count, detector=name)
        if group["incremental"]:
            for _, name, adapter, _, _ in group["targets"]:
                self._observe_inversion(name, adapter)
        if obs.trace:
            lanes = group["lanes"]
            detail = {"warm_runs": group["warm_runs"]} if group["incremental"] else {}
            obs.emit_span(
                "detector_batch",
                group_started,
                tick=now,
                lane=lanes[0][0] if len(lanes) == 1 else None,
                sessions=tuple(target[4].session_id for target in group["targets"]),
                batch=len(group["targets"]),
                lanes=len(lanes),
                incremental=group["incremental"],
                **detail,
            )

    def _detector_failure(self, targets, exc):
        from repro.detectors.streaming import StreamVerdict
        from repro.serving import SchedulerTickError

        if self.health is None:
            raise SchedulerTickError("detector query", [t[4] for t in targets], exc) from exc
        obs = self.obs
        if obs is not None:
            obs.event(
                "detector_failure",
                sessions=[target[4].session_id for target in targets],
                delivered_at=self._now,
                error=f"{type(exc).__name__}: {exc}",
            )
        for outcome, name, _, detector_tick, session in targets:
            if obs is not None:
                obs.registry.inc("serving.detector_failures_total", detector=name)
            outcome.verdicts[name] = StreamVerdict(
                tick=detector_tick, warming=False, flagged=None, degraded=True
            )
            outcome.error = f"detector {name!r}: {type(exc).__name__}: {exc}"
            session.health.record_error(
                outcome.tick, f"detector {name!r} raised: {exc}", delivered_at=self._now
            )
            if session.health.blocked:
                self._quarantine_session(session)


class _FlakyDetector:
    """Stateless stub whose ``predict`` raises on one call (0: never)."""

    name = "flaky"

    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.calls = 0

    def scores(self, windows):
        return np.asarray(windows).reshape(len(windows), -1).sum(axis=1)

    def predict(self, windows):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("flaky detector call")
        return (self.scores(windows) % 7.0 > 3.5).astype(int)


class _Logged:
    """Forwards ``predict`` / ``scores`` to a stateless detector and logs
    every call with its input bytes, so two runs can compare the order of
    the calls and of the rows inside them."""

    def __init__(self, name, detector, log):
        self.name, self.detector, self.log = name, detector, log

    def predict(self, windows):
        self.log.append((self.name, "predict", np.asarray(windows).tobytes()))
        return self.detector.predict(windows)

    def scores(self, windows):
        self.log.append((self.name, "scores", np.asarray(windows).tobytes()))
        return self.detector.scores(windows)


#: ``(adapter name, detector, unit)`` a session may carry.  ``knn`` and
#: ``madgan`` each serve under two names, so one session can put two rows
#: into one group; ``flaky`` serves both units.
_ROUTING_ADAPTERS = [
    ("knn", "knn", "sample"),
    ("knn_twin", "knn", "sample"),
    ("vae", "vae", "window"),
    ("hmm", "hmm", "window"),
    ("madgan", "madgan", "window"),
    ("madgan_twin", "madgan", "window"),
    ("flaky", "flaky", "sample"),
    ("flaky_window", "flaky", "window"),
]


class TestColumnRouting:
    """Lane-column routing of detector rows and verdicts equals the
    per-session reference bitwise: detector calls and their rows, outcomes,
    verdicts, registry series, health timelines, events, spans and MAD-GAN
    ``inversion_calls``."""

    @pytest.fixture(scope="class")
    def fitted(self, tiny_zoo, tiny_cohort):
        from repro.detectors import GaussianHMMDetector, LSTMVAEDetector, MADGANDetector

        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        benign = windows[::4]
        return {
            "knn": KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :]),
            "vae": LSTMVAEDetector(epochs=1, hidden_size=8, batch_size=16, seed=0).fit(benign),
            "hmm": GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(benign),
            "madgan": MADGANDetector(
                epochs=1, hidden_size=8, inversion_steps=4, warm_inversion_steps=2,
                max_samples=200, seed=0,
            ).fit(benign),
        }

    @staticmethod
    def _serve(scheduler_cls, fitted, zoo, sessions, deliveries, health, fail_on):
        import copy

        from repro.obs import Observer
        from repro.serving import SchedulerTickError, tick_fingerprint

        detectors = dict(copy.deepcopy(fitted), flaky=_FlakyDetector(fail_on))
        calls = []
        for name in ("knn", "vae", "hmm", "flaky"):
            detectors[name] = _Logged(name, detectors[name], calls)
        scheduler = scheduler_cls(health=health, obs=Observer(trace=True))
        for session_id, label, adapters in sessions:
            scheduler.open_session(
                label,
                zoo.model_for(label),
                detectors={
                    name: StreamingDetector(detectors[detector], unit=unit, include_scores=scores)
                    for (name, detector, unit), scores in adapters
                },
                session_id=session_id,
            )
        ticks, error = [], None
        for now, delivery in enumerate(deliveries):
            try:
                ticks.append(tick_fingerprint(scheduler.tick(delivery, now=now)))
            except SchedulerTickError as exc:
                error = str(exc)
                break
        obs = scheduler.obs
        return {
            "ticks": ticks,
            "error": error,
            "series": obs.registry.snapshot(),
            "events": obs.events,
            "spans": [
                (span.stage, span.tick, span.lane, span.sessions, span.detail)
                for span in obs.spans
            ],
            "calls": calls,
            "inversion_calls": detectors["madgan"].inversion_calls,
            "health": {
                session_id: [
                    (event.tick, str(event.state), event.reason, event.delivered_at)
                    for event in scheduler.session(session_id).health.timeline
                ]
                for session_id, _, _ in sessions
                if health is not None
            },
        }

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_columns_match_the_per_session_reference(self, data, fitted, tiny_zoo, tiny_cohort):
        from repro.serving import HealthConfig

        labels = list(tiny_cohort.labels)
        lanes = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
        adapter_sets = st.lists(
            st.tuples(st.sampled_from(_ROUTING_ADAPTERS), st.booleans()),
            max_size=5,
            unique_by=lambda item: item[0][0],
        )
        sessions = [
            (f"{label}/{index}", label, adapters)
            for label in lanes
            for index, adapters in enumerate(
                data.draw(st.lists(adapter_sets, min_size=1, max_size=5))
            )
        ]
        health = data.draw(
            st.sampled_from(
                [None, HealthConfig(degrade_after=1, quarantine_after=1, backoff_ticks=2)]
            )
        )
        fail_on = data.draw(st.integers(0, 12))
        deliver_rate = data.draw(st.sampled_from([1.0, 0.75]))
        seed = data.draw(st.integers(0, 2**16))

        rng = np.random.default_rng(seed)
        traces = {label: tiny_cohort[label].features("test") for label in lanes}
        history = tiny_zoo.dataset.history
        # Staggered first deliveries mix warm and warming rows in one lane.
        starts = rng.integers(0, 5, len(sessions))
        deliveries = []
        for tick in range(history + 8):
            delivery = {}
            for index, (session_id, label, _) in enumerate(sessions):
                if tick < starts[index] or rng.random() >= deliver_rate:
                    continue
                sample = traces[label][tick + 3 * index].copy()
                if health is not None and rng.random() < 0.04:
                    sample[CGM_COLUMN] = np.nan  # poisons a warm window: quarantine
                delivery[session_id] = sample
            deliveries.append(delivery)

        served = [
            self._serve(cls, fitted, tiny_zoo, sessions, deliveries, health, fail_on)
            for cls in (StreamScheduler, _PerSessionScheduler)
        ]
        columns, reference = served
        assert columns["error"] == reference["error"]
        assert len(columns["ticks"]) == len(reference["ticks"])
        for got, expected in zip(columns["ticks"], reference["ticks"]):
            assert got == expected
        for field in ("calls", "series", "events", "spans", "inversion_calls", "health"):
            assert columns[field] == reference[field], field
