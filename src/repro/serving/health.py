"""Graceful degradation: session health states, ingress validation, checkpoint gates.

The scheduler (PR 3–5) assumed every session delivers clean finite samples
and every model step succeeds.  One NaN reading poisons a BiLSTM hidden
state *permanently* — every later prediction of that stream is NaN — and an
exception thrown inside a stacked lane step used to abort the whole tick for
every co-scheduled session.  This module is the serving fabric's immune
system:

* :class:`IngressConfig` validates each delivered sample **before** it can
  touch any recurrent state, with three policies for bad samples: reject
  (drop the tick), clamp (clip a finite out-of-range CGM back into the
  physiological band), or hold-last (re-deliver the previous good sample).
* :class:`SessionHealth` is a per-session state machine
  (healthy → degraded → quarantined → recovered) with bounded
  retry/backoff re-admission: repeated errors quarantine the session (its
  lane slot is reset and recycled-in-place; other lanes tick on), a backoff
  countdown re-admits it on probation, a probation failure re-quarantines
  with doubled backoff, and after ``max_readmissions`` strikes the session
  fails terminally.
* :func:`validate_checkpoint` gates model loading: a lane refuses a
  predictor whose ``state_hash`` mismatches the expected one or whose
  weights/scaler statistics contain non-finite values.

The scheduler threads all of this through :meth:`StreamScheduler.tick`;
with no health/ingress configured the scheduler byte-for-byte reproduces the
pre-robustness behavior (``tests/test_serving_faults.py`` pins parity).

:class:`SessionHealth` — including its transition timeline and a live
quarantine-backoff countdown — is part of the state captured by scheduler
snapshots (``repro.serving.recovery``): a session restored mid-quarantine
resumes the same countdown and re-admits on the same tick it would have
without the crash (``tests/test_recovery.py`` pins this).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.data.cohort import CGM_COLUMN
from repro.glucose.states import MAX_PLAUSIBLE_GLUCOSE

logger = logging.getLogger(__name__)


class HealthState(str, Enum):
    """Lifecycle of one monitored session."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"  # errors observed, still served
    QUARANTINED = "quarantined"  # not served; backoff counting down
    RECOVERED = "recovered"  # re-admitted on probation
    FAILED = "failed"  # terminal: re-admission budget exhausted


class IngressPolicy(str, Enum):
    """What to do with a non-finite or out-of-range delivered sample."""

    REJECT = "reject"  # drop the tick entirely (data loss, state safe)
    CLAMP = "clamp"  # clip a finite out-of-range CGM into the valid band
    HOLD_LAST = "hold_last"  # re-deliver the last good sample instead


@dataclass(frozen=True)
class IngressConfig:
    """Sample validation applied before any model or detector sees a tick.

    A sample is *invalid* when any feature is non-finite or its CGM value
    falls outside ``glucose_range``.  ``CLAMP`` can only repair a finite
    out-of-range CGM; a non-finite sample falls back to hold-last, and when
    no previous good sample exists the tick is rejected regardless of
    policy (there is nothing safe to deliver).
    """

    policy: IngressPolicy = IngressPolicy.REJECT
    glucose_range: Tuple[float, float] = (20.0, MAX_PLAUSIBLE_GLUCOSE)

    def __post_init__(self):
        low, high = self.glucose_range
        if not low < high:
            raise ValueError("glucose_range must satisfy low < high")

    def validate(
        self, sample: np.ndarray, last_good: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """Return ``(deliverable sample or None, ingress tag or None)``.

        ``(sample, None)`` — by identity — for a valid sample; a tag of
        ``"clamped"`` / ``"held"`` with a repaired sample, or ``(None,
        "rejected")`` when the tick must be dropped.
        """
        finite = bool(np.all(np.isfinite(sample)))
        low, high = self.glucose_range
        cgm = sample[CGM_COLUMN]
        in_range = bool(low <= cgm <= high) if finite else False
        if finite and in_range:
            return sample, None
        if self.policy == IngressPolicy.CLAMP and finite:
            repaired = np.array(sample, dtype=np.float64, copy=True)
            repaired[CGM_COLUMN] = float(np.clip(cgm, low, high))
            return repaired, "clamped"
        if self.policy in (IngressPolicy.CLAMP, IngressPolicy.HOLD_LAST):
            if last_good is not None:
                return np.array(last_good, dtype=np.float64, copy=True), "held"
        return None, "rejected"


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for the :class:`SessionHealth` state machine.

    Parameters
    ----------
    degrade_after:
        Consecutive errors before HEALTHY demotes to DEGRADED.
    quarantine_after:
        Consecutive errors before the session is QUARANTINED (its lane
        state reset, deliveries dropped).
    recover_after:
        Consecutive clean ticks that promote DEGRADED / RECOVERED back to
        HEALTHY.
    backoff_ticks:
        Attempted deliveries a quarantined session sits out before its
        probationary re-admission; doubles (``backoff_factor``) per
        successive quarantine.
    backoff_factor:
        Multiplier applied to the backoff per quarantine (exponential
        backoff re-admission).
    max_readmissions:
        Re-admissions granted before the session FAILS terminally.
    """

    degrade_after: int = 1
    quarantine_after: int = 3
    recover_after: int = 4
    backoff_ticks: int = 8
    backoff_factor: float = 2.0
    max_readmissions: int = 3

    def __post_init__(self):
        if self.degrade_after < 1 or self.quarantine_after < 1:
            raise ValueError("degrade_after and quarantine_after must be >= 1")
        if self.degrade_after > self.quarantine_after:
            raise ValueError("degrade_after must not exceed quarantine_after")
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")
        if self.backoff_ticks < 1:
            raise ValueError("backoff_ticks must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_readmissions < 0:
            raise ValueError("max_readmissions must be >= 0")


@dataclass(frozen=True)
class HealthEvent:
    """One state transition in a session's health timeline.

    ``tick`` is the *session-local* tick of the transition; ``delivered_at``
    is the device-clock slot (the replayer's global tick) of the delivery
    that triggered it, so quarantine events line up with the trace spans of
    the tick that caused them (None when the scheduler is driven without a
    device clock, e.g. direct ``tick()`` calls in tests).  ``backoff`` is
    the re-admission backoff depth in ticks at a QUARANTINED transition
    (0 for every other state).
    """

    tick: int
    state: HealthState
    reason: str
    delivered_at: Optional[int] = None
    backoff: int = 0


class SessionHealth:
    """Per-session error bookkeeping and state machine.

    Owned by :class:`~repro.serving.session.PatientSession` when the
    scheduler runs with a :class:`HealthConfig`; driven by the scheduler:
    ``record_error`` on ingress rejections / lane failures / non-finite
    predictions, ``record_clean`` on successful ticks, ``admit`` per
    attempted delivery while quarantined.

    ``session_id`` and ``obs`` are optional observability wiring: with an
    :class:`~repro.obs.Observer` every transition increments the
    ``serving.health_transitions_total{state=...}`` counter and records a
    ``health_transition`` event carrying session/tick identity and backoff
    depth.  The ``delivered_at`` argument every event method accepts is the
    device-clock slot of the delivery driving the transition (threaded by
    the scheduler from ``tick(..., now=)``).
    """

    def __init__(self, config: HealthConfig, session_id: Optional[str] = None, obs=None):
        self.config = config
        self.session_id = session_id
        self.obs = obs
        self.state = HealthState.HEALTHY
        self.consecutive_errors = 0
        self.consecutive_clean = 0
        self.total_errors = 0
        self.quarantines = 0
        self.readmissions = 0
        self.backoff_remaining = 0
        self.timeline: List[HealthEvent] = [HealthEvent(0, HealthState.HEALTHY, "opened")]

    # ------------------------------------------------------------------ queries
    @property
    def blocked(self) -> bool:
        """True while deliveries to this session must be dropped."""
        return self.state in (HealthState.QUARANTINED, HealthState.FAILED)

    @property
    def serving(self) -> bool:
        return not self.blocked

    def _transition(
        self,
        tick: int,
        state: HealthState,
        reason: str,
        delivered_at: Optional[int] = None,
        backoff: int = 0,
    ) -> None:
        self.state = state
        self.timeline.append(HealthEvent(tick, state, reason, delivered_at, backoff))
        if state in (HealthState.QUARANTINED, HealthState.FAILED):
            logger.warning(
                "session %s -> %s at tick %s (delivered_at=%s): %s",
                self.session_id,
                state.value,
                tick,
                delivered_at,
                reason,
            )
        if self.obs is not None:
            self.obs.registry.inc("serving.health_transitions_total", state=state.value)
            self.obs.event(
                "health_transition",
                session=self.session_id,
                tick=tick,
                delivered_at=delivered_at,
                state=state.value,
                reason=reason,
                backoff=backoff,
            )

    # ------------------------------------------------------------------- events
    def record_error(
        self, tick: int, reason: str, delivered_at: Optional[int] = None
    ) -> HealthState:
        """Register one error event; returns the (possibly new) state.

        A transition *into* QUARANTINED tells the scheduler to reset the
        session's lane slot (samples and recurrent state) and detector
        adapters — the quarantined state may be corrupted and re-admission
        re-warms from scratch.
        """
        self.consecutive_clean = 0
        self.consecutive_errors += 1
        self.total_errors += 1
        if self.state in (HealthState.QUARANTINED, HealthState.FAILED):
            return self.state
        probation_strike = self.state == HealthState.RECOVERED
        if probation_strike or self.consecutive_errors >= self.config.quarantine_after:
            self._quarantine(
                tick, reason, probation_strike=probation_strike, delivered_at=delivered_at
            )
        elif (
            self.state == HealthState.HEALTHY
            and self.consecutive_errors >= self.config.degrade_after
        ):
            self._transition(tick, HealthState.DEGRADED, reason, delivered_at)
        return self.state

    def _quarantine(
        self,
        tick: int,
        reason: str,
        probation_strike: bool = False,
        delivered_at: Optional[int] = None,
    ) -> None:
        if self.quarantines > self.config.max_readmissions:
            self._transition(
                tick,
                HealthState.FAILED,
                f"re-admission budget exhausted ({reason})",
                delivered_at,
            )
            return
        backoff = self.config.backoff_ticks * (self.config.backoff_factor ** self.quarantines)
        self.quarantines += 1
        if self.quarantines > self.config.max_readmissions:
            # This was the last allowed quarantine — no re-admission follows.
            self._transition(
                tick, HealthState.FAILED, f"final quarantine ({reason})", delivered_at
            )
            return
        self.backoff_remaining = int(np.ceil(backoff))
        self.consecutive_errors = 0
        prefix = "probation failed: " if probation_strike else ""
        self._transition(
            tick,
            HealthState.QUARANTINED,
            prefix + reason,
            delivered_at,
            backoff=self.backoff_remaining,
        )

    def quarantine_now(
        self, tick: int, reason: str, delivered_at: Optional[int] = None
    ) -> HealthState:
        """Escalate straight to quarantine (severe failure: lane exception).

        Used when the error may have corrupted per-stream state — waiting
        out the consecutive-error threshold would keep serving from a
        possibly torn recurrent state.
        """
        self.consecutive_clean = 0
        self.total_errors += 1
        if self.state in (HealthState.QUARANTINED, HealthState.FAILED):
            return self.state
        self._quarantine(tick, reason, delivered_at=delivered_at)
        return self.state

    def record_clean(self, tick: int, delivered_at: Optional[int] = None) -> HealthState:
        """Register one successful tick; may promote back to HEALTHY."""
        self.consecutive_errors = 0
        self.consecutive_clean += 1
        if (
            self.state in (HealthState.DEGRADED, HealthState.RECOVERED)
            and self.consecutive_clean >= self.config.recover_after
        ):
            self._transition(tick, HealthState.HEALTHY, "recovered", delivered_at)
        return self.state

    def admit(self, tick: int, delivered_at: Optional[int] = None) -> bool:
        """One delivery attempted while blocked; True when re-admitted now.

        Each attempted delivery counts the backoff down; when it reaches
        zero the session re-enters on probation (RECOVERED) and the
        triggering delivery is served.
        """
        if self.state == HealthState.FAILED:
            return False
        if self.state != HealthState.QUARANTINED:
            return True
        self.backoff_remaining -= 1
        if self.backoff_remaining > 0:
            return False
        self.readmissions += 1
        self.consecutive_clean = 0
        self._transition(
            tick, HealthState.RECOVERED, f"re-admission #{self.readmissions}", delivered_at
        )
        return True


class CheckpointError(RuntimeError):
    """A model failed validation before a lane would accept it."""


def _scan_non_finite(name: str, value) -> Optional[str]:
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.all(np.isfinite(value)):
            return name
    return None


def validate_checkpoint(predictor, expected_hash: Optional[str] = None) -> str:
    """Validate a predictor before a lane accepts it; returns its state hash.

    Raises :class:`CheckpointError` when ``expected_hash`` mismatches the
    predictor's :meth:`~repro.glucose.predictor.GlucosePredictor.state_hash`
    or when any model weight / scaler statistic contains a non-finite value
    (a torn or corrupted checkpoint must never be served).
    """
    actual = predictor.state_hash()
    if expected_hash is not None and actual != expected_hash:
        logger.warning(
            "checkpoint rejected: state_hash mismatch (expected %s, got %s)",
            expected_hash,
            actual,
        )
        raise CheckpointError(
            f"state_hash mismatch: expected {expected_hash!r}, got {actual!r} — "
            "refusing to serve a model that is not the one the caller pinned"
        )
    bad: List[str] = []
    for name, tensor in predictor.model.state_dict().items():
        if _scan_non_finite(name, np.asarray(tensor)) is not None:
            bad.append(name)
    scaler = getattr(predictor, "scaler", None)
    if scaler is not None:
        for attr, value in vars(scaler).items():
            target = getattr(value, "__dict__", None)
            if isinstance(value, np.ndarray):
                if _scan_non_finite(attr, value) is not None:
                    bad.append(f"scaler.{attr}")
            elif target is not None:
                # Nested scaler objects (e.g. WindowScaler wrapping a
                # StandardScaler) — scan one level deep.
                for inner_attr, inner in target.items():
                    if isinstance(inner, np.ndarray) and _scan_non_finite(inner_attr, inner):
                        bad.append(f"scaler.{attr}.{inner_attr}")
    if bad:
        logger.warning(
            "checkpoint rejected: non-finite values in %s (state_hash=%s)",
            ", ".join(sorted(bad)),
            actual,
        )
        raise CheckpointError(
            f"checkpoint contains non-finite values in: {', '.join(sorted(bad))} — "
            "refusing to serve a corrupted model"
        )
    return actual
