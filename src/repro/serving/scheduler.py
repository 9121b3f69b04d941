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
detector object are batched into one call per detector: ``predict``, or
``predict_incremental`` with one part per lane.

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
import itertools
import logging
from collections import Counter
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.glucose.predictor import GlucosePredictor, forecast_streams
from repro.detectors.streaming import InvalidPartsError, StreamVerdict
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
    snapshotted: unpickling and copying rebuild them.  So are the detector
    columns of the last delivery pattern (:meth:`columns`), which every
    open or close drops.
    """

    __slots__ = (
        "predictor", "state", "samples", "sessions", "_free", "weights", "signature", "_columns"
    )
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
        self._columns: Tuple[Optional[tuple], list] = (None, [])

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
        self._columns = (None, [])
        return slot

    def release(self, slot: int) -> None:
        self.sessions.pop(slot, None)
        self._columns = (None, [])
        self.state.reset_slots(np.array([slot]))
        bisect.insort(self._free, slot)

    def columns(self, slots: tuple) -> list:
        """The detector columns of one delivery pattern, grouped by layout.

        ``slots`` holds the slot at each delivery position, or None where a
        position routes nowhere.  A slot's layout is ``(name, detector id,
        unit, include_scores)`` per adapter, in adapter order.
        Returns ``[(positions, [(layout entry, index, adapters), ...])]``,
        one item per distinct layout in order of first appearance.  The
        last pattern's columns are kept, so a lane whose deliveries repeat
        builds them once.
        """
        key, columns = self._columns
        if key == slots:
            return columns
        # layout -> (delivery positions, their adapters)
        layouts: Dict[tuple, Tuple[List[int], List[tuple]]] = {}
        for position, slot in enumerate(slots):
            if slot is None:
                continue
            detectors = self.sessions[slot].detectors
            layout = tuple(
                (name, id(adapter.detector), adapter.unit, adapter.include_scores)
                for name, adapter in detectors.items()
            )
            members = layouts.setdefault(layout, ([], []))
            members[0].append(position)
            members[1].append(tuple(detectors.values()))
        columns = [
            (
                positions,
                [
                    (entry, index, [adapters[index] for adapters in adapter_rows])
                    for index, entry in enumerate(layout)
                ],
            )
            for layout, (positions, adapter_rows) in layouts.items()
        ]
        self._columns = (slots, columns)
        return columns

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
        self.samples = np.array([sample for _, sample, _ in items])
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


def _first_row(item) -> Tuple[int, int]:
    """A lane's (delivery position, adapter index) of a group's first row."""
    return min((part[0][0], part[1]) for part in item[1])


class _DetectorGroup:
    """The rows of one detector call, as parallel columns.

    Rows come lane by lane in lane order; inside a lane in delivery order,
    then in each session's adapter order.  ``lanes`` holds each lane's
    ``(lane key, rows)`` part and ``views`` its stacked inputs.
    """

    __slots__ = (
        "detector", "incremental", "wants_scores", "lanes", "views",
        "outcomes", "names", "adapters", "ticks", "sessions", "scored",
    )

    def __init__(self, detector, incremental: bool):
        self.detector = detector
        self.incremental = incremental
        self.wants_scores = False
        self.lanes: List[Tuple[str, int]] = []
        self.views: List[np.ndarray] = []
        self.outcomes: List[SessionTick] = []
        self.names: List[str] = []
        self.adapters: list = []
        self.ticks: List[int] = []
        self.sessions: List[PatientSession] = []
        self.scored: List[bool] = []

    def subset(self, parts: List[int]) -> "_DetectorGroup":
        """A group of only the given lane parts (indices into ``lanes``)."""
        bounds = list(itertools.accumulate((count for _, count in self.lanes), initial=0))
        group = _DetectorGroup(self.detector, self.incremental)
        for index in parts:
            rows = slice(bounds[index], bounds[index + 1])
            group.add(
                self.lanes[index][0],
                self.views[index],
                self.outcomes[rows],
                self.names[rows],
                self.adapters[rows],
                self.ticks[rows],
                self.sessions[rows],
                self.scored[rows],
            )
        return group

    def add(self, lane_key, views, outcomes, names, adapters, ticks, sessions, scored) -> None:
        """Append one lane's rows."""
        self.lanes.append((lane_key, len(outcomes)))
        self.views.append(views)
        self.outcomes += outcomes
        self.names += names
        self.adapters += adapters
        self.ticks += ticks
        self.sessions += sessions
        self.scored += scored
        self.wants_scores = self.wants_scores or any(scored)


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

    Every detector answers ONE call per tick over every lane's rows, one
    per distinct detector object and unit.  A stateless detector (kNN,
    OC-SVM, LSTM-VAE, HMM) answers one ``predict``: each row's score is
    independent of its batch
    (:func:`~repro.nn.functional.rowwise_matmul`, and the 8-window padding
    in :meth:`~repro.detectors.lstm_vae.LSTMVAEDetector.scores`; pinned by
    ``tests/test_detectors_batch_invariance.py``), so merging lanes changes
    no bit and sharded layouts stay twins of single-process serving.  An
    incremental detector (MAD-GAN, see
    :data:`~repro.detectors.streaming.INCREMENTAL_API`) answers one
    ``predict_incremental`` with one part per lane: each lane's warm rows
    stay their own inversion batch (lanes with equal warm-row counts
    advance in one stacked recurrence, bitwise), and the cold work every
    lane owes runs as one batch, from cold-start latents drawn lane by
    lane.  A detector backing one lane therefore scores bitwise like its
    one-shot ``scores_incremental`` (pinned by
    ``tests/test_detectors_vae_hmm.py`` and ``tests/test_serving.py``).

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
        obs=None,
    ):
        self.health = health
        self.ingress = ingress
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
        mismatch.
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
        if expected_state_hash is not None:
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
        """Post-step health bookkeeping: non-finite predictions are errors."""
        # A None prediction is legitimate only while the stream warms up;
        # once the lane slot holds a full window a non-finite prediction
        # means the recurrent state is poisoned (e.g. a NaN slipped in
        # before ingress validation was enabled).
        health = session.health
        if outcome.prediction is None and warm:
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
        no model step and carry no verdicts.  Neither does the tick whose
        own step quarantined its session: it reaches no detector.

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
        parity gate pins.  An incremental detector answers one
        ``predict_incremental`` call with one part per lane, which advances
        each per-stream state exactly once; each lane's part scores as that
        lane's own batch, and the lanes share one cold batch.
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
        for item in admitted:
            per_lane.setdefault(item[0]._lane_key, []).append(item)
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

        # (detector object id, unit) -> its group
        queries: Dict[tuple, _DetectorGroup] = {}
        for lane_key, step in steps:
            if step.error is not None:
                self._lane_failure(step.sessions, step.samples, step.error, results)
            else:
                self._serve_lane(lane_key, step, results, queries)
        self._query_detectors(queries)

    def _serve_lane(
        self,
        lane_key: str,
        step: _LaneStep,
        results: Dict[str, SessionTick],
        queries: Dict[tuple, _DetectorGroup],
    ) -> None:
        """Record one stepped lane's outcomes, then queue its detector rows.

        One pass builds the outcomes and advances the session counters: the
        predictions are read once, and every outcome's ``sample`` is a row
        of one copy of the lane's samples.  With health configured each
        session's step is judged in delivery order, and a session that its
        own step quarantined routes to no detector: its adapters were just
        reset, so its tick carries no verdicts.
        """
        outcomes: List[SessionTick] = []
        for (session, _, tag), sample, delivered, value in zip(
            step.items, step.samples.copy(), step.samples, step.predictions.tolist()
        ):
            if value != value:  # NaN: a warming window (or a poisoned state)
                value = None
            else:
                session.last_prediction = value
            outcome = SessionTick(session.session_id, session.ticks, sample, value, ingress=tag)
            session.ticks += 1
            session.last_sample = delivered
            results[session.session_id] = outcome
            outcomes.append(outcome)
        if self.obs is not None:
            non_finite = int(np.count_nonzero(step.warm & np.isnan(step.predictions)))
            if non_finite:
                self.obs.registry.inc(
                    "serving.nonfinite_predictions_total", non_finite, lane=lane_key
                )
        warm = step.warm.tolist()
        slots: List[Optional[int]] = step.rows.tolist()
        if self.health is not None:
            for index, (session, outcome) in enumerate(zip(step.sessions, outcomes)):
                self._health_after_step(session, outcome, warm[index])
                if session.health.blocked:
                    slots[index] = None
        self._route_lane(lane_key, step, outcomes, warm, slots, queries)

    def _route_lane(
        self,
        lane_key: str,
        step: _LaneStep,
        outcomes: List[SessionTick],
        warm: List[bool],
        slots: List[Optional[int]],
        queries: Dict[tuple, _DetectorGroup],
    ) -> None:
        """Queue one lane's detector rows, one column per (layout, adapter).

        Sessions with equal layouts share columns (:meth:`_Lane.columns`).
        A window-unit column splits off its warming rows, every column
        takes one tick per adapter and joins its detector's group.  Inside
        the lane a group's rows stay in delivery order, then adapter order,
        and new groups open in the order of their first row: the
        per-session order, which MAD-GAN's cold-start draws follow.  Window
        views come from one gather of the lane's sample ring.  ``slots`` is
        None at the positions that route nowhere.
        """
        warming: Dict[str, int] = {}
        # group key -> this lane's parts of it
        parts: Dict[tuple, list] = {}
        all_warm = all(warm)
        for positions, columns in step.lane.columns(tuple(slots)):
            warm_rows = positions
            if not all_warm:
                mask = [warm[position] for position in positions]
                warm_rows = [position for position, is_warm in zip(positions, mask) if is_warm]
            for entry, index, adapters in columns:
                name, detector_id, unit, include_scores = entry
                rows = positions
                if unit == "window" and len(warm_rows) < len(positions):
                    for position, adapter, is_warm in zip(positions, adapters, mask):
                        if not is_warm:
                            outcomes[position].verdicts[name] = StreamVerdict(
                                tick=adapter.take_tick(), warming=True
                            )
                    warming[name] = warming.get(name, 0) + len(positions) - len(warm_rows)
                    if not warm_rows:
                        continue
                    rows = warm_rows
                    adapters = [adapter for adapter, is_warm in zip(adapters, mask) if is_warm]
                ticks = [adapter.take_tick() for adapter in adapters]
                parts.setdefault((detector_id, unit), []).append(
                    (rows, index, name, adapters, ticks, include_scores)
                )
        if warming and self.obs is not None:
            for name, count in warming.items():
                self.obs.registry.inc("serving.detector_warming_total", count, detector=name)

        sessions = step.sessions
        served = len(outcomes)
        sources = {"sample": step.samples[:, np.newaxis, :]}
        for key, lane_parts in sorted(parts.items(), key=_first_row):
            group = queries.get(key)
            if group is None:
                first = lane_parts[0][3][0]
                group = queries[key] = _DetectorGroup(first.detector, first.incremental)
            if len(lane_parts) == 1:
                rows, _, name, adapters, ticks, scored = lane_parts[0]
                names = [name] * len(rows)
                scored = [scored] * len(rows)
            else:
                merged = sorted(
                    (row, index, name, adapter, tick, scored)
                    for rows, index, name, adapters, ticks, scored in lane_parts
                    for row, adapter, tick in zip(rows, adapters, ticks)
                )
                rows, _, names, adapters, ticks, scored = (list(column) for column in zip(*merged))
            unit = key[-1]
            source = sources.get(unit)
            if source is None:
                source = sources[unit] = step.lane.windows(step.rows)
            if len(lane_parts) == 1 and len(rows) == served:  # every row, in order
                group.add(lane_key, source, outcomes, names, adapters, ticks, sessions, scored)
            else:
                group.add(
                    lane_key,
                    source[rows],
                    [outcomes[row] for row in rows],
                    names,
                    adapters,
                    ticks,
                    [sessions[row] for row in rows],
                    scored,
                )

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

    def _query_detectors(self, queries: Dict[tuple, _DetectorGroup]) -> None:
        """Run every queued detector group and attach its verdicts.

        One call per group: ``predict`` (and ``scores`` if wanted), or
        ``predict_incremental`` with one part per lane.  A call that raises
        degrades every row of its group for the tick.
        """
        obs = self.obs
        now = self._now
        for group in queries.values():
            group_started = None
            if obs is not None:
                group_started = perf_counter()
                # Per-lane series count each lane's part of a merged call,
                # so they do not depend on which lanes share a process.
                incremental = "yes" if group.incremental else "no"
                for lane_key, count in group.lanes:
                    obs.registry.inc(
                        "serving.detector_queries_total", lane=lane_key, incremental=incremental
                    )
                    obs.registry.observe("serving.detector_batch", count, lane=lane_key)
            detector = group.detector
            warm_runs = 0
            if group.incremental:
                warm_runs = getattr(detector, "warm_runs", 0)
                served = self._predict_incremental(group)
                if served is None:
                    continue
                group, (flags, scores) = served
                warm_runs = getattr(detector, "warm_runs", 0) - warm_runs
            else:
                try:
                    # One fresh array per call: a lane part may be a view of
                    # the lane's samples or a gather shared with another group.
                    views = np.concatenate(group.views)
                    flags = detector.predict(views)
                    scores = detector.scores(views) if group.wants_scores else None
                except Exception as exc:
                    self._detector_failure(group, exc)
                    continue
            self._apply_group_verdicts(group, flags, scores, group_started, now, warm_runs)

    def _predict_incremental(self, group: _DetectorGroup):
        """``(group, (flags, scores))`` of one call over every lane part, or None.

        Lane parts rejected up front (:class:`InvalidPartsError`) fail alone
        and the call is repeated on the rest, whose group is returned.
        """
        while group.lanes:
            states = [adapter.inversion_state for adapter in group.adapters]
            parts = [count for _, count in group.lanes]
            try:
                return group, group.detector.predict_incremental(
                    np.concatenate(group.views), states, parts
                )
            except InvalidPartsError as exc:
                for index, error in sorted(exc.errors.items()):
                    self._detector_failure(group.subset([index]), error)
                group = group.subset(
                    [index for index in range(len(parts)) if index not in exc.errors]
                )
            except Exception as exc:
                self._detector_failure(group, exc)
                return None
        return None

    def _apply_group_verdicts(
        self, group: _DetectorGroup, flags, scores, group_started, now, warm_runs=0
    ) -> None:
        """Distribute one detector group's flags/scores to its sessions.

        Shared by the stateless per-group path and the incremental
        cold-batch path — verdict construction, per-verdict counters,
        inversion-activity draining, and the ``detector_batch`` span are
        identical either way.  Flags and scores are read once per group,
        and only incremental adapters can have a tripped watchdog.
        """
        obs = self.obs
        flags = np.asarray(flags).astype(bool).tolist()
        if scores is None or not group.wants_scores:
            scores = itertools.repeat(None)
        else:
            scores = np.asarray(scores, dtype=np.float64).tolist()
            if not all(group.scored):
                scores = [score if scored else None for score, scored in zip(scores, group.scored)]
        if group.incremental:
            degraded = [adapter.watchdog_tripped() for adapter in group.adapters]
        else:
            degraded = itertools.repeat(False)
        for outcome, name, detector_tick, flagged, score, is_degraded in zip(
            group.outcomes, group.names, group.ticks, flags, scores, degraded
        ):
            outcome.verdicts[name] = StreamVerdict(
                detector_tick, False, flagged, score, is_degraded
            )
        if obs is None:
            return
        # (name, flagged, degraded) -> verdicts, counted once per group.
        for (name, flagged, is_degraded), count in Counter(
            zip(group.names, flags, degraded)
        ).items():
            obs.registry.inc(
                "serving.detector_verdicts_total",
                count,
                detector=name,
                flagged="yes" if flagged else "no",
            )
            if is_degraded:
                obs.registry.inc("serving.watchdog_degraded_total", count, detector=name)
        if group.incremental:
            for name, adapter in zip(group.names, group.adapters):
                self._observe_inversion(name, adapter)
        if obs.trace:
            lanes = group.lanes
            detail = {"warm_runs": warm_runs} if group.incremental else {}
            obs.emit_span(
                "detector_batch",
                group_started,
                tick=now,
                lane=lanes[0][0] if len(lanes) == 1 else None,
                sessions=tuple(session.session_id for session in group.sessions),
                batch=len(group.outcomes),
                lanes=len(lanes),
                incremental=group.incremental,
                **detail,
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

    def _detector_failure(self, group: _DetectorGroup, exc: BaseException) -> None:
        """One batched detector query raised: degrade its verdicts or re-raise."""
        if self.health is None:
            raise SchedulerTickError("detector query", group.sessions, exc) from exc
        session_ids = [session.session_id for session in group.sessions]
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
        for outcome, name, detector_tick, session in zip(
            group.outcomes, group.names, group.ticks, group.sessions
        ):
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
