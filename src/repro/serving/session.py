"""Live per-patient streaming sessions.

A :class:`PatientSession` is the serving-side unit of state for one CGM
stream.  It owns what is *per patient* apart from history: counters, health,
the per-stream detector adapters, and a slot handle into its lane.  The
stream's history lives in the lane, once: the lane's sample ring holds the
last ``history`` delivered raw samples of every slot next to their
ring-buffered input projections, and :meth:`PatientSession.window` /
:meth:`PatientSession.context_window` (the context an online attacker
manipulates) are read from it.  Memory per session is fixed — advancing a
tick never allocates anything that grows with the stream length.

Sessions are created by :meth:`StreamScheduler.open_session` and advanced by
:meth:`StreamScheduler.tick`; :meth:`PatientSession.update` is the one-session
convenience wrapper over the scheduler tick.

Everything a session holds — counters, health, detector adapters — is
plain picklable state with no live OS resources, which is what lets
``repro.serving.recovery`` capture sessions into scheduler snapshots and
restore them bit-for-bit (``docs/recovery.md``); the predictor itself is
deduplicated out of the pickle graph by ``state_hash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.detectors.streaming import StreamingDetector, StreamVerdict
from repro.glucose.predictor import GlucosePredictor


@dataclass
class SessionTick:
    """Everything the serving layer produced for one session at one tick.

    Attributes
    ----------
    session_id, tick:
        Session identity and its 0-based tick counter.
    sample:
        The *delivered* raw sample — what the model and detectors actually
        saw, i.e. the tampered value when an online attacker intercepted it
        (for a ``dropped`` tick: the sample that was refused).
    prediction:
        Forecast in mg/dL, or None while the prediction window is warming up.
    verdicts:
        Per-detector streaming verdicts for this measurement.  Empty on a
        ``dropped`` tick, and on the tick whose own model step quarantined
        the session: that tick reaches no detector, and the session's
        adapters restart from tick 0 when it is re-admitted.
    attacked:
        True when the delivered sample differs from the benign one (set by
        the replayer / caller that did the tampering).
    fault:
        Benign sensor-fault kinds active on this tick (set by the replayer's
        :class:`~repro.serving.faults.FaultInjector`); empty when none.
    ingress:
        Ingress-validation outcome when the delivered sample was repaired or
        refused: ``"clamped"``, ``"held"``, ``"rejected"``, or
        ``"quarantined"``; None for a normally served tick.
    dropped:
        True when the tick was never served (ingress rejection or
        quarantine) — no model step ran, no verdicts exist.
    error:
        Short description of the failure that poisoned this tick (lane
        exception, detector failure, non-finite prediction); None otherwise.
    """

    session_id: str
    tick: int
    sample: np.ndarray
    prediction: Optional[float]
    verdicts: Dict[str, StreamVerdict] = field(default_factory=dict)
    attacked: bool = False
    fault: tuple = ()
    ingress: Optional[str] = None
    dropped: bool = False
    error: Optional[str] = None


class PatientSession:
    """One live patient stream attached to a scheduler lane.

    Parameters
    ----------
    session_id:
        Unique id within the scheduler (defaults to the patient label).
    patient_label:
        The patient this stream belongs to.
    predictor:
        The fitted forecaster serving this stream (personalized or aggregate).
    detectors:
        Optional ``{name: StreamingDetector}`` monitors fed every delivered
        sample.  Adapters are per-session (they count the stream's ticks and
        carry any incremental state) but may share their underlying fitted
        detector object — the scheduler batches detector queries across
        sessions sharing one.
    """

    def __init__(
        self,
        session_id: str,
        patient_label: str,
        predictor: GlucosePredictor,
        detectors: Optional[Mapping[str, StreamingDetector]] = None,
    ):
        self.session_id = str(session_id)
        self.patient_label = str(patient_label)
        self.predictor = predictor
        self.detectors: Dict[str, StreamingDetector] = dict(detectors or {})
        self.history = int(predictor.history)
        self.ticks = 0
        self.last_prediction: Optional[float] = None
        #: Health state machine (set by a health-enabled scheduler; None
        #: otherwise — the zero-overhead default).
        self.health = None
        #: Last successfully delivered raw sample (the ingress hold-last
        #: source); None until the first delivery.
        self.last_sample: Optional[np.ndarray] = None

        # Scheduler wiring (set by StreamScheduler.open_session).
        self._scheduler = None
        self._lane_key: Optional[str] = None
        self._slot: Optional[int] = None

    # ------------------------------------------------------------------ wiring
    def _attach(self, scheduler, lane_key: str, slot: int) -> None:
        self._scheduler = scheduler
        self._lane_key = lane_key
        self._slot = slot

    @property
    def slot(self) -> Optional[int]:
        """This session's row in its lane's stacked recurrent state."""
        return self._slot

    @property
    def lane_key(self) -> Optional[str]:
        """Hash of the model (weights + scaler) this session is served by."""
        return self._lane_key

    # ----------------------------------------------------------------- history
    def _reset_stream_state(self) -> None:
        """Forget all per-stream history (quarantine: the state may be corrupt).

        The detector adapters and the cached last sample are cleared; the
        owning scheduler resets the lane slot (recurrent state and samples)
        separately.  A re-admitted session warms up from scratch, exactly
        like a churn reconnect.
        """
        self.last_sample = None
        self.last_prediction = None
        for adapter in self.detectors.values():
            adapter.reset()

    def _lane(self):
        if self._scheduler is None:
            raise RuntimeError("session is not attached to a scheduler")
        return self._scheduler._lanes[self._lane_key]

    def window(self) -> Optional[np.ndarray]:
        """The last ``history`` delivered samples in time order, or None."""
        return self._lane().window(self._slot)

    def context_window(self, incoming: np.ndarray) -> Optional[np.ndarray]:
        """The window the model *would* see if ``incoming`` were delivered now.

        The last ``history - 1`` delivered samples plus the incoming one —
        the context an online attacker manipulates before delivery.  None
        while fewer than ``history - 1`` samples have been delivered.
        """
        return self._lane().context_window(self._slot, incoming)

    # ----------------------------------------------------------------- ticking
    def update(self, sample: np.ndarray) -> SessionTick:
        """Deliver one sample through the owning scheduler (single-session tick)."""
        if self._scheduler is None:
            raise RuntimeError(
                "session is not attached to a scheduler; create it via "
                "StreamScheduler.open_session"
            )
        return self._scheduler.tick({self.session_id: sample})[self.session_id]
