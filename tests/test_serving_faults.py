"""Fault-injection and graceful-degradation layer: pins and property tests.

Covers the robustness contract end to end:

* fault plans are seeded, deterministic, and **commute** with device clocks
  and session churn (the faulted value at position ``p`` never depends on
  delivery order),
* the zero fault config is bitwise-inert — a replay with
  ``SensorFaultConfig()`` is identical to one with no injector at all,
* ingress validation policies (reject / clamp / hold-last),
* the :class:`SessionHealth` state machine (degrade → quarantine → backoff
  re-admission → probation → terminal failure),
* per-lane error isolation: a poisoned session is quarantined while
  co-scheduled sessions' outputs stay bitwise-identical,
* checkpoint validation, scheduler error naming, the inversion-divergence
  watchdog, vote renormalization in the degraded ensemble, and the chaos
  harness gates (tier-1 wiring of ``scripts/chaos_replay.py``).
"""

import copy

import numpy as np
import pytest

from repro.data.cohort import CGM_COLUMN
from repro.detectors import KNNDistanceDetector, StreamingDetector
from repro.detectors.base import AnomalyDetector
from repro.detectors.ensemble import VotingEnsembleDetector
from repro.serving import (
    CheckpointError,
    DeviceClockConfig,
    DeviceFaultPlan,
    FaultInjector,
    FaultKind,
    HealthConfig,
    HealthState,
    IngressConfig,
    IngressPolicy,
    SchedulerTickError,
    SensorFaultConfig,
    SessionChurnConfig,
    SessionHealth,
    StreamReplayer,
    StreamScheduler,
    replay_fingerprint,
    validate_checkpoint,
)
from repro.serving.faults import SENSOR_FLOOR

from tests.conftest import stream_session, stream_verdicts

#: A lively mix used by the property tests — every kind fires on a 40+ tick
#: trace with near certainty.
ACTIVE_FAULTS = SensorFaultConfig(
    bias_rate=0.05,
    stuck_rate=0.05,
    spike_rate=0.08,
    drift_rate=0.03,
    dropout_rate=0.03,
    malformed_rate=0.03,
    seed=11,
)


@pytest.fixture(scope="module")
def serve_zoo(tiny_cohort):
    """Aggregate-only zoo — one serving lane shared by every patient."""
    from repro.glucose import GlucoseModelZoo

    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=1, hidden_size=8),
        train_personalized=False,
        seed=5,
    )
    zoo.fit(tiny_cohort)
    return zoo


@pytest.fixture(scope="module")
def knn_detector(serve_zoo, tiny_cohort):
    windows, _, _ = serve_zoo.dataset.from_cohort(tiny_cohort, split="train")
    return KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :])


# ------------------------------------------------------------------ fault plans
class TestFaultPlans:
    def test_zero_config_plan_is_empty_and_identity(self):
        injector = FaultInjector(SensorFaultConfig())
        assert not injector.enabled
        plan = injector.plan_for("dev", 64)
        assert plan.n_events == 0
        sample = np.array([120.0, 1.0, 2.0])
        out, kinds, _ = plan.apply(3, sample, None)
        assert out is sample  # identity — the bitwise-inertness contract
        assert kinds == ()

    def test_plans_are_deterministic_per_label(self):
        injector = FaultInjector(ACTIVE_FAULTS)
        first = injector.plan_for("dev-a", 80)
        second = injector.plan_for("dev-a", 80)
        assert first.events == second.events
        np.testing.assert_array_equal(first.offsets, second.offsets)
        np.testing.assert_array_equal(first.stuck, second.stuck)
        np.testing.assert_array_equal(first.delays, second.delays)
        np.testing.assert_array_equal(first.malformed_mask, second.malformed_mask)

    def test_plans_differ_across_labels(self):
        injector = FaultInjector(ACTIVE_FAULTS)
        a = injector.plan_for("dev-a", 200)
        b = injector.plan_for("dev-b", 200)
        assert a.events != b.events

    def test_every_kind_fires_on_a_long_trace(self):
        plan = FaultInjector(ACTIVE_FAULTS).plan_for("dev", 400)
        kinds = {event.kind for event in plan.events}
        assert kinds == set(FaultKind)

    def test_faulted_cgm_stays_physiological(self):
        plan = FaultInjector(ACTIVE_FAULTS).plan_for("dev", 200)
        held = None
        for position in range(200):
            sample = np.array([140.0, 0.5, 1.5])
            out, kinds, held = plan.apply(position, sample, held)
            cgm = out[CGM_COLUMN]
            if plan.malformed_mask[position]:
                continue  # the one kind allowed to leave the valid band
            assert SENSOR_FLOOR <= cgm <= 499.0

    def test_stuck_at_holds_last_transmitted_cgm(self):
        from repro.serving.faults import FaultEvent

        plan = DeviceFaultPlan(label="dev", n_ticks=4)
        plan.stuck[1:3] = True
        plan.events.append(FaultEvent(FaultKind.STUCK, 1, 2))
        sample = np.array([200.0, 0.0, 0.0])
        out, kinds, held = plan.apply(1, sample, 111.0)
        assert out[CGM_COLUMN] == 111.0
        assert FaultKind.STUCK in kinds
        assert held == 111.0  # the transmitted (held) value carries forward

    def test_malformed_overrides_and_preserves_held(self):
        plan = DeviceFaultPlan(label="dev", n_ticks=2)
        plan.malformed_mask[0] = True
        plan.malformed_values[0] = np.nan
        from repro.serving.faults import FaultEvent

        plan.events.append(FaultEvent(FaultKind.MALFORMED, 0, 1))
        out, kinds, held = plan.apply(0, np.array([150.0, 0.0, 0.0]), 99.0)
        assert np.isnan(out[CGM_COLUMN])
        assert kinds == (FaultKind.MALFORMED,)
        assert held == 99.0  # a non-finite transmission never becomes the hold value

    def test_dropout_delay_accounting(self):
        config = SensorFaultConfig(dropout_rate=0.2, dropout_duration=(2, 2), seed=4)
        plan = FaultInjector(config).plan_for("dev", 100)
        assert plan.total_delay() == int(plan.delays.sum()) > 0
        for event in plan.events:
            assert event.kind is FaultKind.DROPOUT
            assert plan.delay_at(event.start) >= 2
        assert plan.delay_at(10_000) == 0  # past-the-end queries are safe


# ------------------------------------------------------------- replay identity
class TestReplayFaultComposition:
    def test_zero_config_replay_is_bitwise_identical(self, serve_zoo, tiny_cohort, knn_detector):
        kwargs = dict(detectors={"knn": (knn_detector, "sample")})
        plain = StreamReplayer(serve_zoo, **kwargs).replay(
            tiny_cohort, split="test", max_ticks=30
        )
        zeroed = StreamReplayer(serve_zoo, faults=SensorFaultConfig(), **kwargs).replay(
            tiny_cohort, split="test", max_ticks=30
        )
        assert replay_fingerprint(plain) == replay_fingerprint(zeroed)
        for trace in zeroed.sessions.values():
            assert trace.faulted_ticks == []

    def test_faulted_replay_is_deterministic(self, serve_zoo, tiny_cohort):
        reports = [
            StreamReplayer(serve_zoo, faults=ACTIVE_FAULTS).replay(
                tiny_cohort, split="test", max_ticks=40
            )
            for _ in range(2)
        ]
        assert replay_fingerprint(reports[0]) == replay_fingerprint(reports[1])
        faulted = sum(
            len(trace.faulted_ticks) for trace in reports[0].sessions.values()
        )
        assert faulted > 0

    def test_fault_injection_commutes_with_clocks_and_churn(self, serve_zoo, tiny_cohort):
        """The faulted value at position p never depends on delivery order."""
        lockstep = StreamReplayer(serve_zoo, faults=ACTIVE_FAULTS).replay(
            tiny_cohort, split="test", max_ticks=40
        )
        perturbed = StreamReplayer(
            serve_zoo,
            faults=ACTIVE_FAULTS,
            clocks=DeviceClockConfig(drift=0.2, jitter=0.3, dropout=0.1, seed=3),
            churn=SessionChurnConfig(join_stagger=1, disconnect_every=12, reconnect_after=2),
        ).replay(tiny_cohort, split="test", max_ticks=40)
        for record in tiny_cohort:
            reference = lockstep.sessions[record.label].delivered_cgm()
            segments = perturbed.segments_for(record.label)
            assert len(segments) > 1  # churn actually split the trace
            rejoined = np.concatenate(
                [trace.delivered_cgm() for trace in segments]
            )
            np.testing.assert_array_equal(reference, rejoined)

    def test_fault_ticks_are_never_counted_as_attacks(self, serve_zoo, tiny_cohort):
        report = StreamReplayer(serve_zoo, faults=ACTIVE_FAULTS).replay(
            tiny_cohort, split="test", max_ticks=40
        )
        for trace in report.sessions.values():
            assert trace.attacked_ticks == []


# ------------------------------------------------------------------ ingress
class TestIngressValidation:
    def test_valid_sample_passes_by_identity(self):
        config = IngressConfig()
        sample = np.array([120.0, 1.0, 0.0])
        delivered, tag = config.validate(sample, None)
        assert delivered is sample and tag is None

    def test_reject_policy_drops_bad_samples(self):
        config = IngressConfig(policy=IngressPolicy.REJECT)
        for bad in ([np.nan, 0.0, 0.0], [1200.0, 0.0, 0.0], [-5.0, 0.0, 0.0]):
            delivered, tag = config.validate(np.array(bad), np.array([100.0, 0.0, 0.0]))
            assert delivered is None and tag == "rejected"

    def test_clamp_repairs_finite_out_of_range(self):
        config = IngressConfig(policy=IngressPolicy.CLAMP)
        delivered, tag = config.validate(np.array([1200.0, 2.0, 3.0]), None)
        assert tag == "clamped"
        assert delivered[CGM_COLUMN] == config.glucose_range[1]
        assert delivered[1] == 2.0 and delivered[2] == 3.0

    def test_clamp_falls_back_to_hold_for_non_finite(self):
        config = IngressConfig(policy=IngressPolicy.CLAMP)
        last = np.array([108.0, 1.0, 0.0])
        delivered, tag = config.validate(np.array([np.nan, 0.0, 0.0]), last)
        assert tag == "held"
        np.testing.assert_array_equal(delivered, last)
        assert delivered is not last  # a defensive copy, not the caller's array

    def test_hold_last_without_history_rejects(self):
        config = IngressConfig(policy=IngressPolicy.HOLD_LAST)
        delivered, tag = config.validate(np.array([np.nan, 0.0, 0.0]), None)
        assert delivered is None and tag == "rejected"


# ------------------------------------------------------------- health machine
class TestSessionHealthMachine:
    def test_degrade_then_quarantine_then_recover(self):
        config = HealthConfig(
            degrade_after=1, quarantine_after=3, recover_after=2, backoff_ticks=2
        )
        health = SessionHealth(config)
        assert health.record_error(0, "boom") is HealthState.DEGRADED
        assert health.record_error(1, "boom") is HealthState.DEGRADED
        assert health.record_error(2, "boom") is HealthState.QUARANTINED
        assert health.blocked
        # Backoff counts attempted deliveries down; the re-admitting delivery
        # is served on probation.
        assert not health.admit(3)
        assert health.admit(4)
        assert health.state is HealthState.RECOVERED
        health.record_clean(4)
        assert health.record_clean(5) is HealthState.HEALTHY

    def test_probation_strike_requarantines_with_longer_backoff(self):
        config = HealthConfig(quarantine_after=1, backoff_ticks=2, backoff_factor=2.0)
        health = SessionHealth(config)
        health.record_error(0, "first")
        first_backoff = health.backoff_remaining
        while not health.admit(1):
            pass
        assert health.state is HealthState.RECOVERED
        health.record_error(2, "probation strike")
        assert health.state is HealthState.QUARANTINED
        assert health.backoff_remaining > first_backoff
        assert any(
            event.reason.startswith("probation failed") for event in health.timeline
        )

    def test_readmission_budget_exhaustion_fails_terminally(self):
        config = HealthConfig(quarantine_after=1, backoff_ticks=1, max_readmissions=1)
        health = SessionHealth(config)
        health.record_error(0, "boom")  # quarantine #1
        assert health.admit(1)  # re-admission #1 (the budget)
        health.record_error(2, "boom")  # strike -> no re-admissions left
        assert health.state is HealthState.FAILED
        assert not health.admit(3)
        assert health.record_error(4, "boom") is HealthState.FAILED

    def test_quarantine_now_escalates_immediately(self):
        health = SessionHealth(HealthConfig(quarantine_after=3))
        assert health.quarantine_now(0, "lane exploded") is HealthState.QUARANTINED
        assert health.total_errors == 1

    def test_clean_ticks_reset_the_error_streak(self):
        config = HealthConfig(degrade_after=2, quarantine_after=3)
        health = SessionHealth(config)
        health.record_error(0, "boom")
        health.record_clean(1)
        health.record_error(2, "boom")
        assert health.state is HealthState.HEALTHY  # never two in a row

    def test_config_validation(self):
        with pytest.raises(ValueError, match="degrade_after"):
            HealthConfig(degrade_after=3, quarantine_after=2)
        with pytest.raises(ValueError, match="backoff_factor"):
            HealthConfig(backoff_factor=0.5)


# ------------------------------------------------------------ checkpoint gates
class TestCheckpointValidation:
    def test_clean_predictor_passes_and_returns_hash(self, tiny_zoo, tiny_cohort):
        predictor = tiny_zoo.model_for(next(iter(tiny_cohort)).label)
        assert validate_checkpoint(predictor) == predictor.state_hash()

    def test_hash_mismatch_is_rejected(self, tiny_zoo, tiny_cohort):
        predictor = tiny_zoo.model_for(next(iter(tiny_cohort)).label)
        with pytest.raises(CheckpointError, match="state_hash mismatch"):
            validate_checkpoint(predictor, expected_hash="not-the-hash")

    def test_non_finite_weights_are_rejected(self, tiny_zoo, tiny_cohort):
        predictor = copy.deepcopy(tiny_zoo.model_for(next(iter(tiny_cohort)).label))
        name, parameter = next(iter(predictor.model.named_parameters().items()))
        np.asarray(parameter.data)[...] = np.nan
        with pytest.raises(CheckpointError, match="non-finite"):
            validate_checkpoint(predictor)

    def test_scheduler_refuses_pinned_mismatch(self, tiny_zoo, tiny_cohort):
        label = next(iter(tiny_cohort)).label
        scheduler = StreamScheduler()
        with pytest.raises(CheckpointError):
            scheduler.open_session(
                label, tiny_zoo.model_for(label), expected_state_hash="bogus"
            )
        assert scheduler.n_sessions == 0


# ------------------------------------------------------------- error reporting
class _HeadFaultScaler:
    """A fitted scaler whose target unscaling raises: one lane's part of a
    stacked forecast fails while its input scaling and ring write work."""

    def __init__(self, scaler):
        self._scaler = scaler

    def __getattr__(self, name):
        return getattr(self._scaler, name)

    @property
    def target_scale(self):
        raise FloatingPointError("head blew up")


class TestSchedulerErrorNaming:
    def test_tick_error_names_sessions_and_ticks(self, tiny_zoo, tiny_cohort, monkeypatch):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        scheduler = StreamScheduler()
        session = scheduler.open_session(record.label, predictor)
        features = record.features("test")
        scheduler.tick({session.session_id: features[0]})

        def explode(*args, **kwargs):
            raise FloatingPointError("lane blew up")

        # The per-lane, mutating half of the model step.
        monkeypatch.setattr(predictor, "push_stream", explode)
        with pytest.raises(SchedulerTickError) as excinfo:
            scheduler.tick({session.session_id: features[1]})
        error = excinfo.value
        assert error.stage == "lane step"
        assert error.session_ids == [session.session_id]
        assert error.ticks == [1]
        assert f"{session.session_id!r}@tick 1" in str(error)
        assert "FloatingPointError: lane blew up" in str(error)
        scheduler.close_session(session.session_id)

    @staticmethod
    def _two_lane_run(tiny_zoo, tiny_cohort, monkeypatch, health):
        """Two same-shape lanes (two sessions each) warm up together; on the
        first warm tick the second lane's part of the stacked step raises."""
        records = list(tiny_cohort)[:2]
        scheduler = StreamScheduler(health=health)
        lanes = {}
        for record in records:
            predictor = copy.deepcopy(tiny_zoo.model_for(record.label))
            lanes[record.label] = (predictor, [
                scheduler.open_session(record.label, predictor, session_id=f"{record.label}/{i}")
                for i in range(2)
            ])
        assert scheduler.n_lanes == 2
        history = lanes[records[0].label][0].history
        for tick in range(history - 1):
            scheduler.tick({
                session.session_id: record.features("test")[tick + index]
                for record in records
                for index, session in enumerate(lanes[record.label][1])
            })
        poisoned, poisoned_sessions = lanes[records[1].label]
        monkeypatch.setattr(poisoned, "scaler", _HeadFaultScaler(poisoned.scaler))
        delivery = {
            session.session_id: record.features("test")[history - 1 + index]
            for record in records
            for index, session in enumerate(lanes[record.label][1])
        }
        return scheduler, delivery, poisoned_sessions, lanes[records[0].label]

    def test_stacked_step_error_names_only_the_raising_lane(
        self, tiny_zoo, tiny_cohort, monkeypatch
    ):
        scheduler, delivery, poisoned, _ = self._two_lane_run(
            tiny_zoo, tiny_cohort, monkeypatch, health=None
        )
        with pytest.raises(SchedulerTickError) as excinfo:
            scheduler.tick(delivery)
        error = excinfo.value
        assert error.stage == "lane step"
        assert error.session_ids == [session.session_id for session in poisoned]
        assert "head blew up" in str(error)

    def test_stacked_step_error_quarantines_only_the_raising_lane(
        self, tiny_zoo, tiny_cohort, monkeypatch
    ):
        scheduler, delivery, poisoned, (healthy, healthy_sessions) = self._two_lane_run(
            tiny_zoo, tiny_cohort, monkeypatch, health=HealthConfig()
        )
        outcomes = scheduler.tick(delivery)
        for session in poisoned:
            assert outcomes[session.session_id].dropped
            assert "head blew up" in outcomes[session.session_id].error
            assert session.health.state is HealthState.QUARANTINED
        # The other lane of the group is served as if it had been stepped alone.
        reference = StreamScheduler()
        for session in healthy_sessions:
            reference.open_session(session.patient_label, healthy, session_id=session.session_id)
        record = tiny_cohort[healthy_sessions[0].patient_label]
        for tick in range(healthy.history):
            expected = reference.tick({
                session.session_id: record.features("test")[tick + index]
                for index, session in enumerate(healthy_sessions)
            })
        for session in healthy_sessions:
            outcome = outcomes[session.session_id]
            assert not outcome.dropped and outcome.prediction is not None
            assert outcome.prediction == expected[session.session_id].prediction
            assert session.health.state is HealthState.HEALTHY

    def test_detector_error_names_the_detector(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))

        class _Exploding(AnomalyDetector):
            name = "exploding"

            def fit(self, windows, labels=None):
                return self

            def scores(self, windows):
                raise RuntimeError("detector blew up")

            def predict(self, windows):
                raise RuntimeError("detector blew up")

        scheduler = StreamScheduler()
        session = scheduler.open_session(
            record.label,
            tiny_zoo.model_for(record.label),
            detectors={"boom": StreamingDetector(_Exploding(), unit="sample")},
        )
        with pytest.raises(SchedulerTickError) as excinfo:
            scheduler.tick({session.session_id: record.features("test")[0]})
        assert excinfo.value.stage == "detector query"
        assert session.session_id in str(excinfo.value)
        scheduler.close_session(session.session_id)


# ---------------------------------------------------------- isolation parity
class TestQuarantineIsolation:
    HEALTH = HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4)

    def _run(self, predictor, traces, n_ticks, health, ingress):
        """Tick a dict of {sid: trace or None}; None delivers NaN garbage."""
        scheduler = StreamScheduler(health=health, ingress=ingress)
        n_features = predictor.n_features
        sessions = {
            sid: scheduler.open_session(sid, predictor, session_id=sid)
            for sid in traces
        }
        outcomes = {sid: [] for sid in traces}
        for tick in range(n_ticks):
            delivery = {}
            for sid, trace in traces.items():
                delivery[sid] = (
                    np.full(n_features, np.nan) if trace is None else trace[tick]
                )
            for sid, outcome in scheduler.tick(delivery).items():
                outcomes[sid].append(outcome)
        states = {sid: sessions[sid].health for sid in traces}
        for sid in traces:
            scheduler.close_session(sid)
        return outcomes, states

    def test_poisoned_session_is_quarantined_and_neighbors_unaffected(
        self, tiny_zoo, tiny_cohort
    ):
        records = list(tiny_cohort)
        predictor = tiny_zoo.model_for(records[0].label)
        clean_trace = records[0].features("test")
        ingress = IngressConfig(policy=IngressPolicy.REJECT)

        together, states = self._run(
            predictor,
            {"clean": clean_trace, "poisoned": None},
            20,
            self.HEALTH,
            ingress,
        )
        alone, _ = self._run(predictor, {"clean": clean_trace}, 20, self.HEALTH, ingress)

        # The poisoned stream was quarantined (and under sustained garbage,
        # every probation strikes out).
        assert states["poisoned"].state in (HealthState.QUARANTINED, HealthState.FAILED)
        assert states["poisoned"].quarantines >= 1
        assert all(outcome.dropped for outcome in together["poisoned"])
        # The clean stream's outputs are bitwise what it produces alone.
        assert len(together["clean"]) == len(alone["clean"]) == 20
        for with_noise, reference in zip(together["clean"], alone["clean"]):
            assert with_noise.prediction == reference.prediction
            np.testing.assert_array_equal(with_noise.sample, reference.sample)
            assert not with_noise.dropped and with_noise.error is None
        assert states["clean"].state is HealthState.HEALTHY

    def test_nan_poisoned_state_is_detected_and_recovers(self, tiny_zoo, tiny_cohort):
        """Without ingress a NaN poisons the recurrent state; health catches it."""
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        trace = record.features("test")
        health = HealthConfig(
            degrade_after=1, quarantine_after=2, recover_after=2, backoff_ticks=2
        )
        scheduler = StreamScheduler(health=health, ingress=None)
        session = scheduler.open_session(record.label, predictor)
        history = predictor.history
        outcomes = []
        for tick in range(history + 30):
            sample = trace[tick].copy()
            if tick == history + 2:
                sample[CGM_COLUMN] = np.nan  # one poisoned reading
            outcomes.append(scheduler.tick({session.session_id: sample})[session.session_id])
        assert any(outcome.error == "non-finite prediction" for outcome in outcomes)
        assert session.health.quarantines >= 1
        # Quarantine reset the stream state; after re-admission and re-warming
        # the session serves finite predictions again.
        assert outcomes[-1].prediction is not None
        assert np.isfinite(outcomes[-1].prediction)
        assert session.health.state in (HealthState.HEALTHY, HealthState.RECOVERED)
        scheduler.close_session(session.session_id)

    def test_quarantining_tick_feeds_no_detector(self, tiny_zoo, tiny_cohort):
        """The tick whose own step quarantines a session routes it nowhere:
        no detector sees its poisoned sample, the tick carries no verdicts,
        and the re-admitted stream's verdicts count from tick 0 again."""
        from repro.detectors.streaming import StreamVerdict

        class _RecordingDetector:
            name = "recording"

            def __init__(self):
                self.batches = []

            def scores(self, windows):
                return np.zeros(len(windows))

            def predict(self, windows):
                self.batches.append(np.array(windows))
                return np.zeros(len(windows), dtype=int)

        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        trace = record.features("test")
        stub = _RecordingDetector()
        scheduler = StreamScheduler(
            health=HealthConfig(degrade_after=1, quarantine_after=1, backoff_ticks=2)
        )
        session = scheduler.open_session(
            record.label,
            predictor,
            detectors={
                "sample": StreamingDetector(stub, unit="sample"),
                "window": StreamingDetector(stub, unit="window"),
            },
        )
        poisoned = predictor.history + 2  # the window is warm
        outcomes = []
        for tick in range(poisoned + 3):
            sample = trace[tick].copy()
            if tick == poisoned:
                sample[CGM_COLUMN] = np.nan
            outcomes.append(scheduler.tick({session.session_id: sample})[session.session_id])

        quarantining = outcomes[poisoned]
        assert quarantining.error == "non-finite prediction"
        assert quarantining.prediction is None and not quarantining.dropped
        assert quarantining.verdicts == {}
        assert session.health.quarantines == 1
        assert outcomes[poisoned + 1].dropped  # backing off
        readmitted = outcomes[poisoned + 2]
        assert not readmitted.dropped
        assert readmitted.verdicts == {
            "sample": StreamVerdict(tick=0, warming=False, flagged=False),
            "window": StreamVerdict(tick=0, warming=True),
        }
        assert stub.batches and not any(np.isnan(batch).any() for batch in stub.batches)
        scheduler.close_session(session.session_id)

    def test_detector_failure_degrades_verdict_not_the_tick(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))

        class _FlakyDetector(AnomalyDetector):
            name = "flaky"
            calls = 0

            def fit(self, windows, labels=None):
                return self

            def scores(self, windows):
                return np.zeros(len(windows))

            def predict(self, windows):
                type(self).calls += 1
                if type(self).calls == 2:
                    raise RuntimeError("transient detector failure")
                return np.zeros(len(windows), dtype=int)

        scheduler = StreamScheduler(health=HealthConfig(quarantine_after=5))
        session = scheduler.open_session(
            record.label,
            tiny_zoo.model_for(record.label),
            detectors={"flaky": StreamingDetector(_FlakyDetector(), unit="sample")},
        )
        trace = record.features("test")
        first = scheduler.tick({session.session_id: trace[0]})[session.session_id]
        assert first.verdicts["flaky"].flagged is not None
        second = scheduler.tick({session.session_id: trace[1]})[session.session_id]
        # The failed query degrades the verdict but the model tick survived.
        assert second.verdicts["flaky"].flagged is None
        assert second.verdicts["flaky"].degraded
        assert not second.dropped
        assert "detector 'flaky'" in second.error
        third = scheduler.tick({session.session_id: trace[2]})[session.session_id]
        assert third.verdicts["flaky"].flagged is not None
        scheduler.close_session(session.session_id)


# ------------------------------------------------------------------ watchdog
class _StubState:
    def __init__(self):
        self.consecutive_fallbacks = 0

    def reset(self):
        self.consecutive_fallbacks = 0


class _StubIncrementalDetector(AnomalyDetector):
    name = "stub-incremental"

    def fit(self, windows, labels=None):
        return self

    def scores(self, windows):
        return np.zeros(len(windows))

    def predict(self, windows):
        return np.zeros(len(windows), dtype=int)

    def make_inversion_state(self):
        return _StubState()

    def predict_incremental(self, windows, states, parts=None):
        return np.zeros(len(windows), dtype=int), np.zeros(len(windows))


class TestDivergenceWatchdog:
    def test_watchdog_threshold(self):
        adapter = StreamingDetector(
            _StubIncrementalDetector(), unit="window", history=3, divergence_watchdog=2
        )
        assert adapter.incremental
        assert not adapter.watchdog_tripped()
        adapter.inversion_state.consecutive_fallbacks = 1
        assert not adapter.watchdog_tripped()
        adapter.inversion_state.consecutive_fallbacks = 2
        assert adapter.watchdog_tripped()
        adapter.reset()
        assert not adapter.watchdog_tripped()

    def test_watchdog_disabled_or_stateless_is_never_tripped(self):
        stateless = StreamingDetector(
            _StubIncrementalDetector(), unit="sample", divergence_watchdog=1
        )
        assert not stateless.watchdog_tripped()
        no_watchdog = StreamingDetector(
            _StubIncrementalDetector(), unit="window", history=3
        )
        no_watchdog.inversion_state.consecutive_fallbacks = 99
        assert not no_watchdog.watchdog_tripped()

    def test_watchdog_validation(self):
        with pytest.raises(ValueError, match="divergence_watchdog"):
            StreamingDetector(
                _StubIncrementalDetector(), unit="window", divergence_watchdog=0
            )

    def test_degraded_verdict_surfaces_through_update(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        predictor = tiny_zoo.model_for(record.label)
        adapter = StreamingDetector(
            _StubIncrementalDetector(), unit="window", divergence_watchdog=1
        )
        session = stream_session(predictor, stub=adapter)
        features = record.features("test")[: predictor.history]
        verdicts = stream_verdicts(session, features[:-1], "stub")
        assert all(verdict.warming for verdict in verdicts)
        adapter.inversion_state.consecutive_fallbacks = 1
        (verdict,) = stream_verdicts(session, features[-1:], "stub")
        assert not verdict.warming
        assert verdict.degraded

    def test_madgan_tracks_consecutive_fallbacks(self):
        from repro.detectors.madgan import InversionState

        state = InversionState()
        assert state.consecutive_fallbacks == 0
        state.consecutive_fallbacks = 3
        # reset() must clear the watchdog counter with the rest of the carry.
        state.reset()
        assert state.consecutive_fallbacks == 0


# ------------------------------------------------------------------- ensemble
class _FixedVoteDetector(AnomalyDetector):
    def __init__(self, name, vote):
        self.name = name
        self.vote = int(vote)

    def fit(self, windows, labels=None):
        return self

    def scores(self, windows):
        return np.full(len(windows), float(self.vote))

    def predict(self, windows):
        return np.full(len(windows), self.vote, dtype=int)


class TestEnsembleDegradation:
    def _ensemble(self, votes=(1, 1, 0), min_votes=2):
        members = [
            _FixedVoteDetector(f"member-{index}", vote)
            for index, vote in enumerate(votes)
        ]
        return VotingEnsembleDetector(members, min_votes=min_votes)

    def test_effective_min_votes_preserves_fraction(self):
        ensemble = self._ensemble()
        assert ensemble.effective_min_votes(3) == 2  # 2-of-3 intact
        assert ensemble.effective_min_votes(2) == 2  # ceil(2/3 * 2)
        assert ensemble.effective_min_votes(1) == 1  # never impossible
        with pytest.raises(ValueError):
            ensemble.effective_min_votes(4)

    def test_exclude_by_index_name_and_object(self):
        ensemble = self._ensemble()
        by_index = ensemble.active_detectors(exclude=[0])
        by_name = ensemble.active_detectors(exclude=["member-0"])
        by_object = ensemble.active_detectors(exclude=[ensemble.detectors[0]])
        assert by_index == by_name == by_object == ensemble.detectors[1:]
        with pytest.raises(ValueError, match="every ensemble member"):
            ensemble.active_detectors(exclude=[0, 1, 2])

    def test_vote_renormalization_around_dropped_member(self):
        windows = np.zeros((4, 2, 3))
        # Votes (1, 1, 0) with 2-of-3: flagged.
        assert self._ensemble().predict(windows).tolist() == [1] * 4
        # Drop a YES voter: one survivor vote of the required 2-of-2 -> clear.
        assert self._ensemble().predict(windows, exclude=["member-0"]).tolist() == [0] * 4
        # Drop the NO voter: 2-of-2 yes votes -> still flagged.
        assert self._ensemble().predict(windows, exclude=["member-2"]).tolist() == [1] * 4
        # Two members down: 1-of-1 renormalized threshold, survivor decides.
        assert self._ensemble().predict(windows, exclude=[1, 2]).tolist() == [1] * 4

    def test_unexcluded_path_is_unchanged(self):
        windows = np.zeros((3, 2, 3))
        ensemble = self._ensemble(votes=(1, 0, 0))
        np.testing.assert_array_equal(ensemble.predict(windows), np.zeros(3, dtype=int))
        np.testing.assert_array_equal(
            ensemble.scores(windows), np.full(3, 1.0 / 3.0)
        )


# ------------------------------------------------------------ tier-1 chaos wire
class TestChaosSmoke:
    """Wire scripts/chaos_replay.py's gates into the tier-1 flow."""

    def test_chaos_gates_hold(self, check_parity, serve_zoo, tiny_cohort):
        gates = check_parity.run_chaos_smoke(serve_zoo, tiny_cohort, n_ticks=40)
        assert gates["no_unhandled_exceptions"]["passed"]
        assert gates["zero_config_bitwise_identical"]["passed"]
        fp = gates["fp_inflation_bounded"]
        assert fp["passed"] and fp["inflation"] <= fp["bound"]
        detection = gates["detection_preserved_under_faults"]
        assert detection["passed"]
        assert (
            detection["faulted_detection_rate"]
            >= detection["fault_free_detection_rate"] - detection["tolerance"]
        )
