"""MAD-GAN serving: one call per tick, and every lane's inversion bitwise its own.

The scheduler serves a MAD-GAN's rows of every lane with ONE
``predict_incremental`` call per tick, one part per lane.  Inside it each
part's warm rows stay one inversion batch, with its own loss scale and Adam
state, and parts with equal warm-row counts advance in one stacked
recurrence; the discriminator pass is stacked by part size the same way.
The properties here pin that the stacking changes no bit:

* the LSTM kernels with leading stack axes equal their per-slice calls;
* the stacked inversion of L batches equals L separate ``_invert`` calls
  (errors and latents) in float32 and float64, at hidden sizes 8, 12, 16;
* the stacked discriminator pass equals one pass per batch;
* a multi-lane scheduler serving one shared MAD-GAN equals
  :func:`lane_by_lane_scores`, the per-lane reference (each lane's warm rows
  inverted alone, one merged cold batch, cold-start latents drawn lane by
  lane): verdicts, scores, every ``InversionState`` field,
  ``inversion_calls`` and the detector's RNG state.
"""

import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors import InvalidPartsError, MADGANDetector, StreamingDetector
from repro.nn import LSTM
from repro.serving import HealthConfig, StreamScheduler

from tests.conftest import make_toy_windows

DTYPES = [np.float32, np.float64]


@lru_cache(maxsize=None)
def fitted(hidden_size: int) -> MADGANDetector:
    """A small fitted MAD-GAN per hidden size (shared: tests pass their latents)."""
    windows, _ = make_toy_windows(n_benign=40, n_malicious=0, seed=21)
    return MADGANDetector(
        epochs=1,
        hidden_size=hidden_size,
        batch_size=20,
        inversion_steps=4,
        warm_inversion_steps=2,
        max_samples=40,
        seed=hidden_size,
    ).fit(windows)


def lane_by_lane_scores(detector: MADGANDetector, lanes) -> np.ndarray:
    """Per-lane reference of one serving tick: ``lanes`` is ``[(windows, states)]``.

    Each lane is classified, warm-inverted on its own, checked for
    fallbacks and draws its cold-start latents, in lane order; then every
    lane's owed cold rows run as one batch, and each lane settles its
    states and scores its windows through the discriminator alone.
    Returns the DR scores of every lane's rows, concatenated.
    """
    latent_shape = (detector.sequence_length, detector.latent_dim)
    refresh = detector.cold_refresh_interval
    scale = detector._benign_reconstruction_scale or 1.0
    plans = []
    for windows, states in lanes:
        scaled = detector._scale(windows)
        errors = np.empty(len(states))
        warm, owed, fallbacks = [], [], set()
        for index, state in enumerate(states):
            if state.latent is None:
                owed.append(index)
            elif state.latent.shape != latent_shape:
                raise ValueError("state latent shape")
            elif refresh is not None and state.ticks > 0 and state.ticks % refresh == 0:
                owed.append(index)
            else:
                warm.append(index)
        if warm:
            initial = np.stack(
                [np.concatenate([states[i].latent[1:], states[i].latent[-1:]]) for i in warm]
            )
            warm_errors, warm_latents = detector._invert_fast(
                scaled[warm], initial, detector.warm_inversion_steps
            )
            detector.warm_runs += 1  # one run per lane: nothing is stacked
            for position, index in enumerate(warm):
                state = states[index]
                previous = max(0.0 if state.error is None else state.error, 0.01 * scale)
                errors[index] = warm_errors[position]
                state.latent = warm_latents[position]
                if warm_errors[position] > detector.warm_fallback_ratio * previous:
                    state.fallbacks += 1
                    state.consecutive_fallbacks += 1
                    fallbacks.add(index)
                    owed.append(index)
                else:
                    state.consecutive_fallbacks = 0
        draw = detector._sample_latent(len(owed)) * 0.1 if owed else None
        plans.append((scaled, states, errors, owed, fallbacks, draw))

    owing = [plan for plan in plans if plan[3]]
    if owing:
        cold_errors, cold_latents = detector._invert_fast(
            np.concatenate([scaled[owed] for scaled, _, _, owed, _, _ in owing]),
            np.concatenate([draw for *_, draw in owing]),
            detector.inversion_steps,
        )
    scores, offset = [], 0
    for scaled, states, errors, owed, fallbacks, _ in plans:
        for index in owed:
            state, cold_error = states[index], float(cold_errors[offset])
            latent = cold_latents[offset]
            offset += 1
            if index in fallbacks:
                if cold_error > errors[index]:
                    continue
            else:
                state.consecutive_fallbacks = 0
            errors[index] = cold_error
            state.latent = latent
        for index, state in enumerate(states):
            state.error = float(errors[index])
            state.ticks += 1
        scores.append(detector._dr_scores(errors, detector._discrimination_scores(scaled)))
    return np.concatenate(scores)


def state_fields(state):
    latent = None if state.latent is None else state.latent.tobytes()
    return (latent, state.error, state.ticks, state.fallbacks, state.consecutive_fallbacks)


# ------------------------------------------------------------------- kernels
class TestStackedKernels:
    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.integers(1, 6),
        batch=st.integers(1, 4),
        hidden=st.sampled_from([4, 8, 16]),
        reverse=st.booleans(),
        sequences=st.booleans(),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_lstm_equals_each_slice(
        self, lanes, batch, hidden, reverse, sequences, dtype, seed
    ):
        """Forward outputs and input gradients of a frozen stacked layer
        are its per-slice calls', byte for byte."""
        layer = LSTM(3, hidden, return_sequences=sequences, reverse=reverse, seed=seed)
        for parameter in layer.parameters():
            parameter.data = parameter.data.astype(dtype)
        layer.requires_grad_(False)
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(lanes, batch, 7, 3)).astype(dtype)
        output, cache = layer.fused_forward_train(inputs)
        grad = rng.normal(size=output.shape).astype(dtype)
        d_inputs = layer.fused_backward_train(grad, cache)
        fast = layer.fast_forward(inputs)
        for lane in range(lanes):
            alone, alone_cache = layer.fused_forward_train(inputs[lane])
            assert output[lane].tobytes() == alone.tobytes()
            alone_d = layer.fused_backward_train(grad[lane], alone_cache)
            assert d_inputs[lane].tobytes() == alone_d.tobytes()
            assert fast[lane].tobytes() == layer.fast_forward(inputs[lane]).tobytes()

    def test_stacked_backward_needs_frozen_weights(self):
        layer = LSTM(3, 4, return_sequences=True, seed=0)
        output, cache = layer.fused_forward_train(np.zeros((2, 1, 5, 3)))
        with pytest.raises(ValueError, match="frozen"):
            layer.fused_backward_train(np.ones_like(output), cache)
        generator = fitted(8).generator
        output, cache = generator.fused_forward_train(np.zeros((2, 1, 12, 4)))
        with pytest.raises(ValueError, match="frozen"):
            generator.fused_backward_train(np.ones_like(output), cache)


# ------------------------------------------------------------------ inversion
class TestStackedInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.integers(1, 16),
        rows=st.integers(1, 4),
        steps=st.integers(1, 6),
        dtype=st.sampled_from(DTYPES),
        hidden=st.sampled_from([8, 12, 16]),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_inversion_is_each_batch_alone(
        self, lanes, rows, steps, dtype, hidden, seed
    ):
        detector = fitted(hidden)
        rng = np.random.default_rng(seed)
        windows = rng.normal(size=(lanes, rows, 12, 4))
        latents = rng.normal(scale=0.5, size=(lanes, rows, 12, detector.latent_dim))
        calls = detector.inversion_calls
        errors, found = detector._invert(windows, latents, steps, dtype)
        assert detector.inversion_calls - calls == lanes  # batches, not runs
        for lane in range(lanes):
            alone_errors, alone_latents = detector._invert(
                windows[lane], latents[lane], steps, dtype
            )
            assert errors[lane].tobytes() == alone_errors.tobytes()
            assert found[lane].tobytes() == alone_latents.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.integers(1, 8),
        rows=st.integers(1, 4),
        hidden=st.sampled_from([8, 12, 16]),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_discriminator_is_each_batch_alone(self, lanes, rows, hidden, seed):
        detector = fitted(hidden)
        scaled = np.random.default_rng(seed).normal(size=(lanes, rows, 12, 4))
        stacked = detector._discrimination_scores(scaled).reshape(lanes, rows)
        for lane in range(lanes):
            alone = detector._discrimination_scores(scaled[lane])
            assert stacked[lane].tobytes() == alone.tobytes()


# --------------------------------------------------------------- entry point
class TestPartsCall:
    def test_invalid_part_fails_alone_before_any_change(self):
        detector = copy.deepcopy(fitted(8))
        windows = np.random.default_rng(0).normal(100.0, 10.0, size=(5, 12, 4))
        states = [detector.make_inversion_state() for _ in windows]
        detector.scores_incremental(windows, states, [2, 2, 1])
        states[2].latent = np.zeros((3, detector.latent_dim))  # part 1 is bad
        before = [state_fields(state) for state in states]
        rng_state = detector._rng.generator.bit_generator.state
        calls = detector.inversion_calls
        with pytest.raises(InvalidPartsError, match="shape") as caught:
            detector.predict_incremental(windows, states, [2, 2, 1])
        assert list(caught.value.errors) == [1]
        assert [state_fields(state) for state in states] == before
        assert detector._rng.generator.bit_generator.state == rng_state
        assert detector.inversion_calls == calls
        # The other parts, served alone, score as they would have with it.
        reference = copy.deepcopy(detector)
        keep = [0, 1, 4]
        ref_states = [copy.deepcopy(states[row]) for row in keep]
        flags, scores = detector.predict_incremental(
            windows[keep], [states[row] for row in keep], [2, 1]
        )
        expected = lane_by_lane_scores(
            reference, [(windows[:2], ref_states[:2]), (windows[4:], ref_states[2:])]
        )
        assert scores.tobytes() == expected.tobytes()
        assert flags.tolist() == reference.calibrator.predict(expected).tolist()

    def test_parts_must_split_the_rows(self):
        detector = fitted(8)
        windows = np.zeros((3, 12, 4))
        states = [detector.make_inversion_state() for _ in windows]
        for parts in ([2, 2], [3, 0], [1]):
            with pytest.raises(ValueError, match="do not split"):
                detector.scores_incremental(windows, states, parts)


# ----------------------------------------------------------------- scheduler
class TestOneCallAcrossLanes:
    @pytest.fixture(scope="class")
    def madgan(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        return MADGANDetector(
            epochs=1, hidden_size=8, inversion_steps=4, warm_inversion_steps=2,
            max_samples=200, seed=0,
        ).fit(windows[::4])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_scheduler_matches_the_lane_by_lane_reference(
        self, data, madgan, tiny_zoo, tiny_cohort
    ):
        labels = list(tiny_cohort.labels)
        lanes = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
        self.serve_against_reference(
            madgan,
            tiny_zoo,
            tiny_cohort,
            {label: data.draw(st.integers(1, 3)) for label in lanes},
            # 1.0 makes warm fallbacks frequent; a short refresh mixes
            # re-anchors in.
            fallback_ratio=data.draw(st.sampled_from([1.0, 1.3, 1.5])),
            refresh=data.draw(st.sampled_from([None, 3, 5])),
            health=data.draw(st.sampled_from([None, HealthConfig()])),
            deliver_rate=data.draw(st.sampled_from([1.0, 0.8])),
            seed=data.draw(st.integers(0, 2**16)),
        )

    def test_every_state_kind_meets_in_one_tick_stack(self, madgan, tiny_zoo, tiny_cohort):
        """A fixed scenario that is sure to stack lanes and mix cold starts,
        warm rows, fallbacks and refreshes (the property above draws them)."""
        served, reference, states = self.serve_against_reference(
            madgan, tiny_zoo, tiny_cohort, dict.fromkeys(tiny_cohort.labels, 2),
            fallback_ratio=1.0, refresh=3, health=None, deliver_rate=0.9, seed=4,
        )
        assert served.warm_runs < reference.warm_runs  # lanes were stacked
        assert any(state.fallbacks for state in states)
        assert max(state.ticks for state in states) > 2 * served.cold_refresh_interval

    @staticmethod
    def serve_against_reference(
        madgan, zoo, cohort, sessions, fallback_ratio, refresh, health, deliver_rate, seed
    ):
        """Serve ``{lane label: session count}`` and check every tick against
        :func:`lane_by_lane_scores`; returns ``(served, reference, the
        served inversion states)``."""
        served = copy.deepcopy(madgan)
        served.warm_fallback_ratio = fallback_ratio
        served.cold_refresh_interval = refresh
        reference = copy.deepcopy(served)
        rng = np.random.default_rng(seed)

        scheduler = StreamScheduler(health=health)
        traces, lane_of, ref_states, delivered = {}, {}, {}, {}
        for label, size in sessions.items():
            for copy_index in range(size):
                session_id = f"{label}/{copy_index}"
                scheduler.open_session(
                    label,
                    zoo.model_for(label),
                    detectors={
                        "madgan": StreamingDetector(served, unit="window", include_scores=True)
                    },
                    session_id=session_id,
                )
                traces[session_id] = cohort[label].features("test")[3 * copy_index :]
                lane_of[session_id] = label
                ref_states[session_id] = reference.make_inversion_state()
                delivered[session_id] = []
        session_ids = list(traces)
        history = served.sequence_length
        starts = dict(zip(session_ids, rng.integers(0, 5, len(session_ids))))

        calls = []
        spy = _Spy(served, calls)
        for tick in range(history + 12):
            order = [session_ids[i] for i in rng.permutation(len(session_ids))]
            delivery = {
                sid: traces[sid][tick]
                for sid in order
                if tick >= starts[sid] and rng.random() < deliver_rate
            }
            if not delivery:
                continue
            calls.clear()
            with spy:
                outcomes = scheduler.tick(delivery)
            # Reference: warm rows lane by lane, lanes in order of first
            # delivery (warm or not).
            parts = {}
            for sid, sample in delivery.items():
                delivered[sid].append(sample)
                parts.setdefault(lane_of[sid], [])
                if len(delivered[sid]) >= history:
                    parts[lane_of[sid]].append(sid)
            parts = {lane: sids for lane, sids in parts.items() if sids}
            if not parts:
                assert calls == []
                continue
            expected = lane_by_lane_scores(
                reference,
                [
                    (
                        np.stack([np.stack(delivered[sid][-history:]) for sid in sids]),
                        [ref_states[sid] for sid in sids],
                    )
                    for sids in parts.values()
                ],
            )
            # One call per tick, one part per lane.
            assert calls == [[len(sids) for sids in parts.values()]]
            rows = [sid for sids in parts.values() for sid in sids]
            verdicts = [outcomes[sid].verdicts["madgan"] for sid in rows]
            assert [verdict.score for verdict in verdicts] == expected.tolist()
            flags = reference.calibrator.predict(expected)
            assert [verdict.flagged for verdict in verdicts] == [bool(flag) for flag in flags]
            assert served.inversion_calls == reference.inversion_calls

        states = [
            scheduler.session(sid).detectors["madgan"].inversion_state for sid in session_ids
        ]
        for state, sid in zip(states, session_ids):
            assert state_fields(state) == state_fields(ref_states[sid])
        assert (
            served._rng.generator.bit_generator.state
            == reference._rng.generator.bit_generator.state
        )
        return served, reference, states


class _Spy:
    """Records the part sizes of every ``predict_incremental`` call in a block."""

    def __init__(self, detector, calls):
        self.detector, self.calls = detector, calls

    def __enter__(self):
        original = self.detector.predict_incremental

        def spy(windows, states, parts=None):
            self.calls.append(list(parts))
            return original(windows, states, parts)

        self.detector.predict_incremental = spy

    def __exit__(self, *exc):
        del self.detector.predict_incremental


# ------------------------------------------------------- parity tooling hook
class TestParityRow:
    """Wire scripts/check_parity.py's MAD-GAN streaming row into tier-1."""

    def test_one_call_equals_each_lanes_own(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_madgan_stream_parity(tiny_zoo, tiny_cohort)
        assert report["verdicts_compared"] > 0
        assert report["warm_runs"] < report["lane_warm_runs"]


# ------------------------------------------------------------- observability
class TestObservedCall:
    def test_span_carries_lanes_and_warm_runs_and_stays_inert(
        self, tiny_zoo, tiny_cohort
    ):
        """The merged MAD-GAN ``detector_batch`` span names its lanes and
        stacked warm runs, and observing the tick changes no outcome."""
        from repro.obs import Observer
        from repro.serving import tick_fingerprint

        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        base = MADGANDetector(
            epochs=1, hidden_size=8, inversion_steps=4, warm_inversion_steps=2,
            max_samples=200, seed=0,
        ).fit(windows[::4])
        runs = []
        for obs in (None, Observer(trace=True)):
            detector = copy.deepcopy(base)
            scheduler = StreamScheduler(obs=obs)
            for label in tiny_cohort.labels:
                scheduler.open_session(
                    label,
                    tiny_zoo.model_for(label),
                    detectors={
                        "madgan": StreamingDetector(detector, unit="window", include_scores=True)
                    },
                )
            traces = {label: tiny_cohort[label].features("test") for label in tiny_cohort.labels}
            ticks = [
                tick_fingerprint(scheduler.tick({label: t[tick] for label, t in traces.items()}))
                for tick in range(detector.sequence_length + 4)
            ]
            runs.append((ticks, detector, obs))
        (plain, _, _), (observed, detector, obs) = runs
        assert observed == plain
        spans = [span for span in obs.spans if span.stage == "detector_batch"]
        assert len(spans) == 5  # one call per warm tick, over every lane
        lanes = len(tiny_cohort.labels)
        assert all(span.detail["lanes"] == lanes and span.lane is None for span in spans)
        # Tick one is every lane's cold start; then one stacked warm run.
        assert [span.detail["warm_runs"] for span in spans] == [0, 1, 1, 1, 1]
        assert sum(span.detail["warm_runs"] for span in spans) == detector.warm_runs


# ----------------------------------------------------------- failure rules
class TestPartFailures:
    @pytest.fixture(scope="class")
    def madgan(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        return MADGANDetector(
            epochs=1, hidden_size=8, inversion_steps=4, warm_inversion_steps=2,
            max_samples=200, seed=0,
        ).fit(windows[::4])

    def warm_fleet(self, madgan, tiny_zoo, tiny_cohort):
        """Two sessions on every lane, ticked until their windows are warm."""
        scheduler = StreamScheduler(health=HealthConfig(quarantine_after=5))
        feeds = {}
        for label in tiny_cohort.labels:
            for index in range(2):
                session_id = f"{label}/{index}"
                scheduler.open_session(
                    label,
                    tiny_zoo.model_for(label),
                    detectors={
                        "madgan": StreamingDetector(madgan, unit="window", include_scores=True)
                    },
                    session_id=session_id,
                )
                feeds[session_id] = tiny_cohort[label].features("test")[2 * index :]
        for tick in range(madgan.sequence_length + 2):
            scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
        return scheduler, feeds

    def test_a_rejected_lane_fails_alone(self, madgan, tiny_zoo, tiny_cohort):
        scheduler, feeds = self.warm_fleet(copy.deepcopy(madgan), tiny_zoo, tiny_cohort)
        bad_lane = tiny_cohort.labels[1]
        bad = [sid for sid in feeds if sid.startswith(f"{bad_lane}/")]
        # Reference: the same tick without the rejected lane's deliveries.
        reference = copy.deepcopy(scheduler)
        tick = madgan.sequence_length + 2
        expected = reference.tick(
            {sid: trace[tick] for sid, trace in feeds.items() if sid not in bad}
        )
        state = scheduler.session(bad[1]).detectors["madgan"].inversion_state
        state.latent = state.latent[:3]  # a latent of the wrong shape
        outcomes = scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
        for sid in bad:
            verdict = outcomes[sid].verdicts["madgan"]
            assert verdict.flagged is None and verdict.degraded
            assert "state latent must have shape" in outcomes[sid].error
        for sid, outcome in expected.items():
            got, want = outcomes[sid].verdicts["madgan"], outcome.verdicts["madgan"]
            assert (got.score, got.flagged, got.degraded) == (want.score, want.flagged, False)
            assert outcomes[sid].error is None

    def test_a_failing_call_degrades_every_lane(self, madgan, tiny_zoo, tiny_cohort):
        detector = copy.deepcopy(madgan)
        scheduler, feeds = self.warm_fleet(detector, tiny_zoo, tiny_cohort)

        def broken(*args, **kwargs):
            raise RuntimeError("inversion blew up")

        detector._invert_fast = broken
        tick = detector.sequence_length + 2
        outcomes = scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
        for sid in feeds:
            verdict = outcomes[sid].verdicts["madgan"]
            assert verdict.flagged is None and verdict.degraded
            assert "inversion blew up" in outcomes[sid].error
