"""Session batching: one stacked incremental model step per tick per lane group.

The scheduler is the serving-side twin of the attack campaign's cohort
batching: instead of merging the windows of patients sharing a model into one
lockstep *search*, it merges the live streams of sessions sharing a model into
one stacked incremental *step*.  Sessions are grouped into **lanes** by
:meth:`GlucosePredictor.state_hash` — weights + scaler, not object identity —
so separately loaded copies of the same checkpoint share a lane.  Each lane
holds one stacked :class:`~repro.nn.recurrent.BiLSTMStreamState` with a slot
per session.  A tick gathers whichever sessions received a sample, writes
each lane's new samples into its slots (one ``push_stream`` per lane), and
predicts for every lane of equal shape and warm-row count with ONE stacked
:func:`~repro.glucose.predictor.forecast_streams` call, so personalized
lanes share one recurrence.  All detector queries that share an underlying
detector object are batched into one ``predict`` per detector.

Capacity is dynamic: lanes double their slot arrays when full and recycle the
slots of closed sessions, so thousands of sessions can come and go without
rebuilding any state.

Graceful degradation (``repro.serving.health``) threads through the tick:
with a :class:`~repro.serving.health.HealthConfig` and/or
:class:`~repro.serving.health.IngressConfig` the scheduler validates every
sample before it can touch recurrent state, isolates lane/detector failures
to the sessions they hit (quarantining them while every other lane ticks
on), and re-admits quarantined sessions after a bounded backoff.  With
neither configured the tick path is byte-for-byte the pre-robustness one;
failures then surface as :class:`SchedulerTickError` naming the offending
sessions and ticks instead of an anonymous traceback.
"""

from __future__ import annotations

import bisect
import logging
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.glucose.predictor import GlucosePredictor, forecast_streams
from repro.detectors.streaming import StreamVerdict
from repro.serving.health import (
    HealthConfig,
    IngressConfig,
    SessionHealth,
    validate_checkpoint,
)
from repro.serving.session import PatientSession, SessionTick

logger = logging.getLogger(__name__)

#: Initial number of slots a fresh lane allocates.
_INITIAL_LANE_CAPACITY = 4


class SchedulerTickError(RuntimeError):
    """A tick failed for named sessions (raised when health isolation is off).

    Wraps the underlying exception with the session labels and tick indices
    it poisoned, so a fleet-scale failure is attributable to a stream
    instead of an anonymous traceback.
    """

    def __init__(self, stage: str, sessions, exc: BaseException):
        self.stage = stage
        self.session_ids = [session.session_id for session in sessions]
        self.ticks = [session.ticks for session in sessions]
        detail = ", ".join(
            f"{session.session_id!r}@tick {session.ticks}" for session in sessions
        )
        super().__init__(
            f"{stage} failed for session(s) {detail}: {type(exc).__name__}: {exc}"
        )


class _Lane:
    """All sessions served by one model: a stacked stream state plus slots.

    ``samples`` ``(slots, history, F)`` is the one copy of every session's
    delivered raw samples, at the positions of ``state``'s projection ring,
    whose ``cursor`` / ``count`` order and count both rings.  ``weights``
    (the encoder's direction-stacked
    :meth:`~repro.nn.recurrent.BiLSTM.stream_weights`) and ``signature``
    (:meth:`GlucosePredictor.stream_signature`, the lane-group key) are
    derived from the predictor once per lane lifetime and never
    snapshotted: unpickling and copying rebuild them.
    """

    __slots__ = ("predictor", "state", "samples", "sessions", "_free", "weights", "signature")
    #: The slots a snapshot carries.
    _SAVED = ("predictor", "state", "samples", "sessions", "_free")

    def __init__(self, predictor: GlucosePredictor, capacity: int = _INITIAL_LANE_CAPACITY):
        self.predictor = predictor
        self.state = predictor.stream_state(capacity)
        self.samples = np.zeros((capacity, predictor.history, predictor.n_features))
        self.sessions: Dict[int, PatientSession] = {}
        self._free: List[int] = list(range(capacity))
        self._derive()

    def _derive(self) -> None:
        self.weights = self.predictor.model[0].stream_weights()
        self.signature = self.predictor.stream_signature()

    def __getstate__(self):
        return {name: getattr(self, name) for name in self._SAVED}

    def __setstate__(self, state) -> None:
        # Snapshots written before the derived slots existed hold the
        # default ``(None, slots)`` pair.
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            setattr(self, name, value)
        self._derive()

    def allocate(self, session: PatientSession) -> int:
        if not self._free:
            old = self.state.n_streams
            self.state.grow(max(2 * old, _INITIAL_LANE_CAPACITY))
            self.samples = np.pad(self.samples, ((0, self.state.n_streams - old), (0, 0), (0, 0)))
            self._free = list(range(old, self.state.n_streams))
        slot = self._free.pop(0)
        self.sessions[slot] = session
        return slot

    def release(self, slot: int) -> None:
        self.sessions.pop(slot, None)
        self.state.reset_slots(np.array([slot]))
        bisect.insort(self._free, slot)

    def record(self, rows: np.ndarray, samples: np.ndarray) -> None:
        """Store the samples a model step just consumed at its ring positions."""
        state = self.state
        self.samples[rows, (state.cursor[rows] - 1) % state.capacity] = samples

    def warm(self, rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` hold a full window."""
        return self.state.count[rows] == self.state.capacity

    def windows(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), history, F)`` windows, oldest sample first (full slots only)."""
        capacity = self.state.capacity
        order = (self.state.cursor[rows, np.newaxis] + np.arange(capacity)) % capacity
        return self.samples[rows[:, np.newaxis], order]

    def window(self, slot: int) -> Optional[np.ndarray]:
        """One slot's window in time order, or None while it warms up."""
        return self.windows(np.array([slot]))[0] if self.warm(slot) else None

    def context_window(self, slot: int, incoming: np.ndarray) -> Optional[np.ndarray]:
        """The slot's last ``history - 1`` samples plus ``incoming``, or None."""
        capacity = self.state.capacity
        if self.state.count[slot] < capacity - 1:
            return None
        order = (self.state.cursor[slot] + np.arange(1, capacity)) % capacity
        return np.vstack([self.samples[slot, order], np.asarray(incoming, dtype=float)[None]])

    def __len__(self) -> int:
        return len(self.sessions)


class _LaneStep:
    """One lane's share of a tick: its deliveries and its model step's result."""

    __slots__ = ("lane", "items", "samples", "rows", "warm", "predictions", "error", "started")

    def __init__(self, lane: _Lane, items: List[tuple], started: float):
        self.lane = lane
        self.items = items
        self.samples = np.stack([sample for _, sample, _ in items])
        self.rows = np.array([session._slot for session, _, _ in items])
        self.warm: Optional[np.ndarray] = None
        self.predictions = np.full(len(items), np.nan)
        self.error: Optional[BaseException] = None
        self.started = started

    @property
    def sessions(self) -> List[PatientSession]:
        return [session for session, _, _ in self.items]


def _forecast_group(steps: List[_LaneStep]) -> None:
    """Predict a lane group's warm rows in one stacked step.

    If the stacked call raises, the group re-runs it one lane at a time, so
    only the lane that raises records an error.  The call writes nothing,
    so re-running it changes no other lane's bits.
    """
    try:
        predictions = forecast_streams(
            [step.lane.predictor for step in steps],
            [step.lane.state for step in steps],
            [step.rows[step.warm] for step in steps],
            [step.lane.weights for step in steps],
        )
    except Exception as exc:
        if len(steps) == 1:
            steps[0].error = exc
        else:
            for step in steps:
                _forecast_group([step])
        return
    for step, lane_predictions in zip(steps, predictions):
        step.predictions[step.warm] = lane_predictions


class StreamScheduler:
    """Coalesce concurrent patient streams into per-model batched ticks.

    Every tick steps each lane once (:meth:`_tick_lanes`), a one-session
    tick included: a per-lane ring write, then one stacked recurrence, head
    and unscaling per group of lanes with equal
    :meth:`GlucosePredictor.stream_signature` and warm-row count.  Every
    lane's predictions are bitwise those of its own ``step_stream``.  A lane
    keeps its sessions' history once: the last
    ``history`` delivered samples of every slot sit next to the slot's
    input projections, and every window detector and the online attacker's
    context read from there.

    Every incremental detector (MAD-GAN, see
    :data:`~repro.detectors.streaming.INCREMENTAL_API`) is served in three
    phases: each of its groups runs ``begin_scores_incremental`` (the warm
    inversions and the cold-start latent draws), then the cold work every
    group owes runs as ONE batched
    :meth:`~repro.detectors.madgan.MADGANDetector.invert_cold` call per
    detector per tick, then each group runs ``finish_predict_incremental``.
    The cold-start latents are drawn in the begin phase, so the detector
    RNG stream never shifts: a detector backing one group scores bitwise
    like its one-shot ``scores_incremental``, and one shared across lanes
    gives each lane's one-shot verdicts (both pinned by
    ``tests/test_detectors_vae_hmm.py``).
    Every other detector (kNN, OC-SVM, LSTM-VAE, HMM) is stateless and
    answers ONE ``predict`` per detector per tick over every lane's rows:
    each row's score is independent of its batch
    (:func:`~repro.nn.functional.rowwise_matmul`, and the 8-window padding
    in :meth:`~repro.detectors.lstm_vae.LSTMVAEDetector.scores`; pinned by
    ``tests/test_detectors_batch_invariance.py``), so merging lanes changes
    no bit and sharded layouts stay twins of single-process serving.

    Parameters
    ----------
    health:
        Optional :class:`~repro.serving.health.HealthConfig`.  Every opened
        session gets a :class:`~repro.serving.health.SessionHealth` state
        machine; errors (ingress rejections, lane/detector exceptions,
        non-finite predictions) degrade and eventually quarantine the
        session — its lane slot, ring, and adapters are reset and its
        deliveries dropped until a bounded backoff re-admits it — while
        every other session keeps ticking.  None (the default) disables all
        health bookkeeping: failures raise :class:`SchedulerTickError`.
    ingress:
        Optional :class:`~repro.serving.health.IngressConfig` validating
        every delivered sample before any model or detector sees it.  None
        admits samples unchecked (the previous behavior).
    validate_checkpoints:
        When True, :meth:`open_session` refuses predictors whose weights or
        scaler statistics contain non-finite values
        (:func:`~repro.serving.health.validate_checkpoint`).
    obs:
        Optional :class:`~repro.obs.Observer`.  When set, every tick emits
        deterministic metrics (lane/detector/ingress/health series — see
        ``docs/observability.md`` for the catalog) and trace spans covering
        the tick stages (ingress → lane_gather → lane_step → detector_batch
        → health → merge).  None (the default) is bitwise inert: no
        counter, span, or event is recorded and the tick path is
        byte-for-byte the uninstrumented one
        (the observed twin rows in ``scripts/check_parity.py`` gate this).
    """

    def __init__(
        self,
        health: Optional[HealthConfig] = None,
        ingress: Optional[IngressConfig] = None,
        validate_checkpoints: bool = False,
        obs=None,
    ):
        self.health = health
        self.ingress = ingress
        self.validate_checkpoints = bool(validate_checkpoints)
        self.obs = obs
        self._lanes: Dict[str, _Lane] = {}
        self._sessions: Dict[str, PatientSession] = {}
        # Device-clock slot of the tick in flight (tick(..., now=)); stamps
        # health transitions and spans with the delivering global tick.
        self._now: Optional[int] = None

    # ---------------------------------------------------------------- sessions
    def open_session(
        self,
        patient_label: str,
        predictor: GlucosePredictor,
        detectors=None,
        session_id: Optional[str] = None,
        expected_state_hash: Optional[str] = None,
    ) -> PatientSession:
        """Register a new live stream served by ``predictor``.

        Sessions landing on models with equal :meth:`GlucosePredictor.state_hash`
        share a lane (and therefore a stacked model step) even when the
        predictor objects are distinct.

        ``expected_state_hash`` pins the model this session must be served
        by: the predictor is validated (hash match + non-finite weight scan)
        and rejected with :class:`~repro.serving.health.CheckpointError` on
        mismatch — as is any corrupted checkpoint when the scheduler runs
        with ``validate_checkpoints=True``.
        """
        session_id = str(session_id if session_id is not None else patient_label)
        if session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} already exists")
        for name, adapter in (detectors or {}).items():
            if adapter.unit == "window" and adapter.history not in (None, predictor.history):
                raise ValueError(
                    f"window detector {name!r} has history {adapter.history}, but the "
                    f"predictor serving session {session_id!r} has {predictor.history}"
                )
        if self.validate_checkpoints or expected_state_hash is not None:
            # validate_checkpoint returns the hash it verified, so the lane
            # key costs no second digest.
            lane_key = validate_checkpoint(predictor, expected_state_hash)
        else:
            lane_key = predictor.state_hash()
        lane = self._lanes.get(lane_key)
        if lane is None:
            lane = self._lanes[lane_key] = _Lane(predictor)
        session = PatientSession(session_id, patient_label, predictor, detectors=detectors)
        if self.health is not None:
            session.health = SessionHealth(self.health, session_id=session_id, obs=self.obs)
        slot = lane.allocate(session)
        session._attach(self, lane_key, slot)
        self._sessions[session_id] = session
        if self.obs is not None:
            self.obs.registry.inc("serving.sessions_opened_total", lane=lane_key)
        return session

    def close_session(self, session_id: str) -> None:
        """Tear a session down and recycle its lane slot."""
        session = self._sessions.pop(str(session_id))
        lane = self._lanes[session._lane_key]
        lane.release(session._slot)
        if not lane.sessions:
            del self._lanes[session._lane_key]
        if self.obs is not None:
            self.obs.registry.inc("serving.sessions_closed_total", lane=session._lane_key)
        session._attach(None, None, None)

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def n_lanes(self) -> int:
        """Number of distinct models currently being served."""
        return len(self._lanes)

    def session(self, session_id: str) -> PatientSession:
        return self._sessions[str(session_id)]

    def obs_snapshot(self) -> Optional[Dict[str, dict]]:
        """Deterministic series snapshot, or None when uninstrumented.

        API-symmetric with
        :meth:`repro.serving.shard.ShardedScheduler.obs_snapshot`, which
        returns the order-invariant merge over its workers.
        """
        return self.obs.registry.snapshot() if self.obs is not None else None

    # --------------------------------------------------------------- recovery
    def snapshot(self, extra=None, meta=None):
        """Capture the complete deterministic state at a tick boundary.

        Returns a :class:`~repro.serving.recovery.SchedulerSnapshot` from
        which :meth:`restore` rebuilds a scheduler whose subsequent ticks
        are **bitwise equal** to this scheduler's (sample rings, lane stream
        states, detector adapter/inversion states, health machines with
        backoff depth, and RNG positions all travel; model weights are
        content-addressed once per lane).  Call between ticks only — the
        resume-parity contract is defined at tick boundaries
        (``docs/recovery.md``).  ``extra`` / ``meta`` are for embedders like
        the shard worker (see :func:`repro.serving.recovery.capture_scheduler`).
        """
        from repro.serving.recovery import capture_scheduler

        return capture_scheduler(self, extra=extra, meta=meta)

    @classmethod
    def restore(cls, snapshot, obs=None) -> "StreamScheduler":
        """Rebuild a scheduler from a :meth:`snapshot` capture.

        ``obs`` becomes the restored scheduler's observer; the snapshot's
        cumulative metric series is absorbed into it so counters continue
        from their pre-crash values.  Model payloads are re-validated
        against their content-address
        (:func:`~repro.serving.health.validate_checkpoint`) before any
        session is served.
        """
        from repro.serving.recovery import restore_scheduler

        scheduler, _ = restore_scheduler(snapshot, obs=obs)
        return scheduler

    # ----------------------------------------------------------------- health
    def _quarantine_session(self, session: PatientSession) -> None:
        """Reset a quarantined session's per-stream state (it may be corrupt)."""
        session._reset_stream_state()
        lane = self._lanes[session._lane_key]
        lane.state.reset_slots(np.array([session._slot]))

    def _dropped_tick(
        self, session: PatientSession, sample: np.ndarray, ingress: str, error=None
    ) -> SessionTick:
        """Advance the session's tick counter without serving the sample."""
        tick_index = session.ticks
        session.ticks += 1
        if self.obs is not None:
            self.obs.registry.inc(
                "serving.ticks_dropped_total", lane=session._lane_key, reason=ingress
            )
        return SessionTick(
            session_id=session.session_id,
            tick=tick_index,
            sample=np.array(sample, dtype=np.float64, copy=True),
            prediction=None,
            ingress=ingress,
            dropped=True,
            error=error,
        )

    def _admit(
        self, samples: Mapping[str, np.ndarray]
    ) -> Tuple[List[Tuple[PatientSession, np.ndarray, Optional[str]]], Dict[str, SessionTick]]:
        """Validate/gate one tick's deliveries before any state is touched.

        Returns the admitted ``(session, sample, ingress_tag)`` triples (in
        delivery order) plus the dropped :class:`SessionTick` outcomes for
        quarantined or rejected deliveries.  With neither health nor ingress
        configured this is exactly the old per-delivery shape validation.
        """
        admitted: List[Tuple[PatientSession, np.ndarray, Optional[str]]] = []
        dropped: Dict[str, SessionTick] = {}
        for session_id, sample in samples.items():
            session = self._sessions[str(session_id)]
            sample = np.asarray(sample, dtype=np.float64)
            if sample.shape != (session.predictor.n_features,):
                raise ValueError(
                    f"sample for session {session_id!r} must have shape "
                    f"({session.predictor.n_features},), got {sample.shape}"
                )
            health = session.health
            if health is not None and health.blocked:
                if not health.admit(session.ticks, delivered_at=self._now):
                    dropped[session.session_id] = self._dropped_tick(
                        session, sample, ingress="quarantined"
                    )
                    continue
                # Re-admitted on probation: this very delivery is served.
            tag: Optional[str] = None
            if self.ingress is not None:
                delivered, tag = self.ingress.validate(sample, session.last_sample)
                if delivered is None:
                    outcome = self._dropped_tick(session, sample, ingress="rejected")
                    dropped[session.session_id] = outcome
                    if health is not None:
                        health.record_error(
                            outcome.tick, "ingress: rejected sample", delivered_at=self._now
                        )
                        if health.blocked:
                            self._quarantine_session(session)
                    continue
                if tag is not None:
                    sample = delivered
                    if self.obs is not None:
                        self.obs.registry.inc(
                            "serving.ingress_repaired_total",
                            lane=session._lane_key,
                            tag=tag,
                        )
                    if health is not None:
                        health.record_error(
                            session.ticks, f"ingress: {tag} sample", delivered_at=self._now
                        )
                        if health.blocked:
                            outcome = self._dropped_tick(
                                session, sample, ingress="quarantined"
                            )
                            dropped[session.session_id] = outcome
                            self._quarantine_session(session)
                            continue
            admitted.append((session, sample, tag))
        return admitted, dropped

    def _health_after_step(self, session: PatientSession, outcome: SessionTick, warm) -> None:
        """Post-step bookkeeping: non-finite predictions are errors."""
        # A None prediction is legitimate only while the stream warms up;
        # once the lane slot holds a full window a non-finite prediction
        # means the recurrent state is poisoned (e.g. a NaN slipped in
        # before ingress validation was enabled).
        non_finite = outcome.prediction is None and warm
        if non_finite and self.obs is not None:
            self.obs.registry.inc(
                "serving.nonfinite_predictions_total", lane=session._lane_key
            )
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

    def _lane_failure(
        self,
        lane_sessions: List[PatientSession],
        stacked: np.ndarray,
        exc: BaseException,
        results: Dict[str, SessionTick],
    ) -> None:
        """One lane's stacked step raised: quarantine its sessions or re-raise."""
        if self.health is None:
            raise SchedulerTickError("lane step", lane_sessions, exc) from exc
        lane_key = lane_sessions[0]._lane_key
        session_ids = [session.session_id for session in lane_sessions]
        logger.warning(
            "lane %s step failed for session(s) %s at delivered_at=%s: %s: %s",
            lane_key,
            session_ids,
            self._now,
            type(exc).__name__,
            exc,
        )
        if self.obs is not None:
            self.obs.registry.inc("serving.lane_failures_total", lane=lane_key)
            self.obs.event(
                "lane_failure",
                lane=lane_key,
                sessions=session_ids,
                delivered_at=self._now,
                error=f"{type(exc).__name__}: {exc}",
            )
        for session, sample in zip(lane_sessions, stacked):
            outcome = self._dropped_tick(
                session,
                sample,
                ingress="quarantined",
                error=f"lane step: {type(exc).__name__}: {exc}",
            )
            results[session.session_id] = outcome
            # A partially applied stacked step may have corrupted the slot:
            # quarantine immediately rather than waiting out the threshold.
            session.health.quarantine_now(
                outcome.tick, f"lane step raised: {exc}", delivered_at=self._now
            )
            self._quarantine_session(session)

    # ----------------------------------------------------------------- ticking
    def tick(
        self, samples: Mapping[str, np.ndarray], now: Optional[int] = None
    ) -> Dict[str, SessionTick]:
        """Deliver one raw sample to each named session; return their outcomes.

        Parameters
        ----------
        samples:
            ``{session_id: (n_features,) raw sample}`` — **sample** units
            (one unscaled measurement per stream), not windows.  Sessions
            not named are untouched (a device that missed a transmission
            slot); their rings simply don't advance.
        now:
            Optional device-clock slot (the replayer's global tick) this
            delivery happened at.  Purely observational: it stamps health
            transitions (``HealthEvent.delivered_at``) and trace spans so
            quarantine events line up with the tick that caused them; it
            never affects predictions or verdicts.

        Returns
        -------
        ``{session_id: SessionTick}`` for exactly the named sessions.  A
        tick's ``prediction`` is None while that stream's window is warming
        up (its first ``history - 1`` delivered samples), then a float in
        mg/dL; window-unit detector verdicts carry ``warming=True`` over the
        same span.  With health/ingress configured some outcomes may be
        ``dropped`` (quarantined session, rejected sample) — those ticks ran
        no model step and carry no verdicts.

        All model work is one ``push_stream`` call per lane (scaling, input
        projection, ring write) and one stacked ``forecast_streams`` call per
        group of lanes with equal stream signature and warm-row count
        (recurrence, Dense head, unscaling).  Each slice of the stacked call
        makes the same BLAS call as a lane's own ``step_stream``, so its
        predictions are bitwise those of stepping it alone.  If the stacked
        call raises, the group re-runs it one lane at a time, and only the
        lane that raises again fails its sessions.  A stateless
        detector answers one ``predict`` call per distinct underlying
        detector object and unit across *all* lanes: each lane appends its
        rows in lane order, and the verdicts are scattered back.  Its scores
        are batch-invariant (a row's bits never depend on the rows beside
        it), so a session's outputs stay bitwise independent of which other
        lanes share its detectors — the invariant the sharded fabric's
        parity gate pins.  Incremental adapters stay lane-scoped: each lane
        runs one ``begin_scores_incremental`` / ``finish_predict_incremental``
        pair, which advances their per-stream states exactly once, and the
        lanes share one cold batch per detector.
        """
        obs = self.obs
        self._now = now
        tick_started = perf_counter() if obs is not None else 0.0
        events_mark = len(obs.events) if obs is not None else 0
        admitted, results = self._admit(samples)
        if obs is not None:
            obs.emit_span(
                "ingress",
                tick_started,
                tick=now,
                delivered=len(samples),
                admitted=len(admitted),
                dropped=len(results),
            )
        if not admitted:
            if obs is not None:
                self._finish_tick_obs(tick_started, events_mark, results)
            return results
        self._tick_lanes(admitted, results)
        if obs is not None:
            self._finish_tick_obs(tick_started, events_mark, results)
        return results

    def _tick_lanes(self, admitted: List[tuple], results: Dict[str, SessionTick]) -> None:
        """Serve ``admitted`` with one stacked model step per lane group; fill ``results``.

        Three passes.  Each lane first pushes its sessions' samples under
        its own ``try``: scaling, input projection and ring write, the part
        of the step that mutates the lane
        (:meth:`GlucosePredictor.push_stream`).  Then lanes whose
        :meth:`GlucosePredictor.stream_signature` and warm-row count match
        make one :func:`~repro.glucose.predictor.forecast_streams` call: the
        recurrence, head and unscaling of the whole group, stacked.  Last,
        each lane is served in delivery order: outcomes, health and
        detector queueing.
        """
        obs = self.obs
        gather_started = perf_counter() if obs is not None else 0.0
        per_lane: Dict[str, List[Tuple[PatientSession, np.ndarray, Optional[str]]]] = {}
        for session, sample, tag in admitted:
            per_lane.setdefault(session._lane_key, []).append((session, sample, tag))
        if obs is not None:
            obs.emit_span("lane_gather", gather_started, tick=self._now, lanes=len(per_lane))

        steps: List[Tuple[str, _LaneStep]] = []
        # (stream signature, warm rows) -> the lanes stepped together
        groups: Dict[tuple, List[_LaneStep]] = {}
        for lane_key, items in per_lane.items():
            lane = self._lanes[lane_key]
            step = _LaneStep(lane, items, perf_counter() if obs is not None else 0.0)
            steps.append((lane_key, step))
            try:
                lane.predictor.push_stream(step.samples, lane.state, step.rows, lane.weights)
            except Exception as exc:
                step.error = exc
                continue
            lane.record(step.rows, step.samples)
            step.warm = lane.warm(step.rows)
            n_warm = int(np.count_nonzero(step.warm))
            if n_warm:
                groups.setdefault((lane.signature, n_warm), []).append(step)
        for group in groups.values():
            _forecast_group(group)
        if obs is not None:
            for lane_key, step in steps:
                if step.error is None:
                    self._observe_lane_step(lane_key, step)

        # (detector object id, unit) -> views + where they go; incremental
        # groups are keyed (lane, detector object id, unit).
        pending_views: Dict[tuple, dict] = {}
        for lane_key, step in steps:
            if step.error is not None:
                self._lane_failure(step.sessions, step.samples, step.error, results)
            else:
                self._serve_lane(lane_key, step, results, pending_views)
        self._query_detectors(pending_views)

    def _serve_lane(
        self,
        lane_key: str,
        step: _LaneStep,
        results: Dict[str, SessionTick],
        pending_views: Dict[tuple, dict],
    ) -> None:
        """Record one stepped lane's outcomes and queue its detectors.

        Every window-unit group of the lane takes its views from one gather
        of the lane's sample ring, and every sample-unit group from the
        stacked samples; rows stay in delivery order.  Only warm slots'
        windows are ever queued.
        """
        lane = step.lane
        sessions = step.sessions
        rows = step.rows
        warm = step.warm
        outcomes = []
        for (session, _, tag), sample, prediction, is_warm in zip(
            step.items, step.samples, step.predictions, warm
        ):
            value = None if np.isnan(prediction) else float(prediction)
            outcome = SessionTick(
                session.session_id, session.ticks, sample.copy(), value, ingress=tag
            )
            session.ticks += 1
            session.last_sample = sample
            if value is not None:
                session.last_prediction = value
            self._health_after_step(session, outcome, is_warm)
            results[session.session_id] = outcome
            outcomes.append(outcome)

        if self.health is not None:  # a quarantine above reset its slot
            warm = lane.warm(rows)
        sources = {"sample": step.samples[:, np.newaxis, :], "window": None}
        warming: Dict[str, int] = {}
        # group key -> (group, this lane's rows of it)
        lane_rows: Dict[tuple, Tuple[dict, List[int]]] = {}
        for index, (session, outcome) in enumerate(zip(sessions, outcomes)):
            for name, adapter in session.detectors.items():
                detector_tick = adapter.take_tick()
                if adapter.unit == "window" and not warm[index]:
                    outcome.verdicts[name] = StreamVerdict(tick=detector_tick, warming=True)
                    warming[name] = warming.get(name, 0) + 1
                    continue
                # Stateless detectors batch across lanes (their scores are
                # batch-invariant); an incremental detector's group stays
                # inside the lane.
                group_key = (id(adapter.detector), adapter.unit)
                if adapter.incremental:
                    group_key = (lane_key,) + group_key
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
                group = entry[0]
                group["targets"].append((outcome, name, adapter, detector_tick, session))
                if adapter.include_scores:
                    group["wants_scores"] = True
        if self.obs is not None:
            for name, count in warming.items():
                self.obs.registry.inc("serving.detector_warming_total", count, detector=name)
        for group_key, (group, group_rows) in lane_rows.items():
            unit = group_key[-1]
            if sources[unit] is None:
                sources["window"] = lane.windows(rows)
            group["lanes"].append((lane_key, len(group_rows)))
            group["views"].append(sources[unit][group_rows])

    def _observe_lane_step(self, lane_key: str, step: _LaneStep) -> None:
        """Metric series and ``lane_step`` span of one lane's model step.

        The span runs from the lane's push to the end of the tick's stacked
        steps, so the spans of lanes stepped together overlap.
        """
        obs = self.obs
        batch = len(step.items)
        obs.registry.inc("serving.ticks_served_total", batch, lane=lane_key)
        obs.registry.observe("serving.lane_step_batch", batch, lane=lane_key)
        if obs.trace:
            obs.emit_span(
                "lane_step",
                step.started,
                tick=self._now,
                lane=lane_key,
                sessions=tuple(session.session_id for session in step.sessions),
                batch=batch,
            )

    def _query_detectors(self, pending_views: Dict[tuple, dict]) -> None:
        """Run every queued detector group and attach its verdicts."""
        obs = self.obs
        now = self._now
        # One batched query per distinct detector object and unit; an
        # incremental group is one lane's, threads its per-stream states
        # through the detector's begin phase here and pools its owed cold
        # inversions for one merged batch per detector below.
        # id(detector) -> [(group, plan, started)], in tick iteration order
        # (the order the begin phases drew their cold-start latents —
        # splitting the merged inversion back follows it).
        plans: Dict[int, List] = {}

        for group in pending_views.values():
            group_started = None
            if obs is not None:
                group_started = perf_counter()
                # Per-lane series count each lane's part of a merged call,
                # so they do not depend on which lanes share a process.
                incremental = "yes" if group["incremental"] else "no"
                for lane_key, count in group["lanes"]:
                    obs.registry.inc(
                        "serving.detector_queries_total", lane=lane_key, incremental=incremental
                    )
                    obs.registry.observe("serving.detector_batch", count, lane=lane_key)
            detector = group["detector"]
            views = group["views"]
            views = views[0] if len(views) == 1 else np.concatenate(views)
            try:
                if group["incremental"]:
                    states = [adapter.inversion_state for _, _, adapter, _, _ in group["targets"]]
                    plan = detector.begin_scores_incremental(views, states)
                    plans.setdefault(id(detector), []).append((group, plan, group_started))
                    continue
                flags = detector.predict(views)
                scores = detector.scores(views) if group["wants_scores"] else None
            except Exception as exc:
                self._detector_failure(group["targets"], exc)
                continue
            self._apply_group_verdicts(group, flags, scores, group_started, now)

        for entries in plans.values():
            detector = entries[0][0]["detector"]
            owed = [plan for _, plan, _ in entries if plan.rerun_cold]
            cold_errors = cold_latents = None
            if owed:
                try:
                    cold_errors, cold_latents = detector.invert_cold(
                        np.concatenate([plan.scaled[plan.rerun_cold] for plan in owed]),
                        np.concatenate([plan.cold_initial for plan in owed]),
                    )
                except Exception as exc:
                    for group, _, _ in entries:
                        self._detector_failure(group["targets"], exc)
                    continue
                if obs is not None and len(owed) >= 2:
                    obs.registry.inc("serving.cold_coalesced_total")
                    obs.registry.observe(
                        "serving.cold_coalesce_windows", len(cold_errors)
                    )
            offset = 0
            for group, plan, group_started in entries:
                n_cold = len(plan.rerun_cold)
                slice_errors = slice_latents = None
                if n_cold:
                    slice_errors = cold_errors[offset : offset + n_cold]
                    slice_latents = cold_latents[offset : offset + n_cold]
                    offset += n_cold
                try:
                    flags, scores = detector.finish_predict_incremental(
                        plan, slice_errors, slice_latents
                    )
                except Exception as exc:
                    self._detector_failure(group["targets"], exc)
                    continue
                self._apply_group_verdicts(group, flags, scores, group_started, now)

    def _apply_group_verdicts(self, group, flags, scores, group_started, now) -> None:
        """Distribute one detector group's flags/scores to its sessions.

        Shared by the stateless per-group path and the incremental
        cold-batch path — verdict construction, per-verdict counters,
        inversion-activity draining, and the ``detector_batch`` span are
        identical either way.
        """
        obs = self.obs
        # (name, flagged, degraded) -> verdicts, counted once per group.
        tallies: Dict[tuple, int] = {}
        for index, (outcome, name, adapter, detector_tick, _) in enumerate(group["targets"]):
            score = (
                float(scores[index])
                if scores is not None and adapter.include_scores
                else None
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
        if obs is not None:
            for (name, flagged, degraded), count in tallies.items():
                obs.registry.inc(
                    "serving.detector_verdicts_total",
                    count,
                    detector=name,
                    flagged="yes" if flagged else "no",
                )
                if degraded:
                    obs.registry.inc("serving.watchdog_degraded_total", count, detector=name)
            if group["incremental"]:
                for _, name, adapter, _, _ in group["targets"]:
                    self._observe_inversion(name, adapter)
            if obs.trace:
                lanes = group["lanes"]
                obs.emit_span(
                    "detector_batch",
                    group_started,
                    tick=now,
                    lane=lanes[0][0] if len(lanes) == 1 else None,
                    sessions=tuple(
                        session.session_id for _, _, _, _, session in group["targets"]
                    ),
                    batch=len(group["targets"]),
                    lanes=len(lanes),
                    incremental=group["incremental"],
                )

    def _observe_inversion(self, name: str, adapter) -> None:
        """Fold one incremental adapter's inversion-activity deltas in."""
        counts = adapter.drain_inversion_counts()
        if counts is None:
            return
        scored, fallbacks = counts
        registry = self.obs.registry
        if scored:
            registry.inc("detector.inversion_ticks_total", scored, detector=name)
        if fallbacks:
            registry.inc("detector.inversion_fallbacks_total", fallbacks, detector=name)

    def _finish_tick_obs(self, tick_started: float, events_mark: int, results) -> None:
        """Emit the tick's trailing ``health`` and ``merge`` spans."""
        obs = self.obs
        transitions = sum(
            1
            for event in obs.events[events_mark:]
            if event.kind == "health_transition"
        )
        # The health stage is interleaved with lane/detector work, so its
        # span is an aggregate marker (seconds=None) carrying the number of
        # state transitions this tick caused; the merge span's seconds are
        # the whole-tick envelope.
        obs.emit_span("health", None, tick=self._now, transitions=transitions)
        served = sum(1 for outcome in results.values() if not outcome.dropped)
        obs.emit_span(
            "merge",
            tick_started,
            tick=self._now,
            results=len(results),
            served=served,
            dropped=len(results) - served,
        )

    def _detector_failure(self, targets, exc: BaseException) -> None:
        """One batched detector query raised: degrade its verdicts or re-raise."""
        if self.health is None:
            sessions = [session for _, _, _, _, session in targets]
            raise SchedulerTickError("detector query", sessions, exc) from exc
        session_ids = [session.session_id for _, _, _, _, session in targets]
        logger.warning(
            "detector query degraded for session(s) %s at delivered_at=%s: %s: %s",
            session_ids,
            self._now,
            type(exc).__name__,
            exc,
        )
        obs = self.obs
        if obs is not None:
            obs.event(
                "detector_failure",
                sessions=session_ids,
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
