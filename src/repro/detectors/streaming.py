"""Streaming adapter turning any static detector into a per-tick monitor.

The paper's detectors are *static*: they score pre-materialized windows or
samples.  The deployment they model is *online* — a pump-side monitor sees CGM
measurements one at a time and must flag the manipulated trace as it streams.
:class:`StreamingDetector` closes that gap: attached to a session of a
:class:`~repro.serving.scheduler.StreamScheduler`, it names the view the
underlying detector was trained on (the final measurement for
``unit="sample"`` detectors such as kNN and OneClassSVM, the whole
multivariate window for ``unit="window"`` detectors such as MAD-GAN,
LSTM-VAE, and the Gaussian HMM), and the scheduler feeds it that view each
tick.  Windows come from the session's lane, which keeps the one copy of
every stream's last ``history`` samples; the adapter buffers nothing.
Verdicts are therefore *identical* to running the offline ``predict`` on
the same windows — pinned by ``tests/test_serving.py`` and
``tests/test_detectors_vae_hmm.py`` (per-detector score tolerances:
``docs/detectors.md``).

Window detectors exposing the incremental protocol (:data:`INCREMENTAL_API`
— today only MAD-GAN, whose carried state is the warm-started inversion
latent) are served incrementally with one carried state object per stream:
each tick the scheduler makes ONE ``predict_incremental(windows, states,
parts)`` call per detector, with one part per lane.  The detector validates
every part first; it raises :class:`InvalidPartsError` naming the bad ones
before changing anything, so they fail alone.  Every other window brain
(LSTM-VAE, HMM) is stateless: one batched ``predict`` per tick, which
measured faster than carrying per-stream state at 64 and 1024 streams.

The adapter serves one stream; the underlying detector object may be shared
by many adapters, which is what lets the serving scheduler coalesce the
per-tick views of every session into one batched detector call.

Adapter state (tick counter, carried incremental state — including
MAD-GAN's ``InversionState`` RNG position) pickles exactly, so scheduler
snapshots (``repro.serving.recovery``) resume streaming verdicts bitwise;
the shared-detector aliasing above survives restore because the whole
scheduler state is one pickle graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.detectors.base import AnomalyDetector

#: Detection units the adapter understands (mirrors eval.experiments.DetectorSpec).
STREAM_UNITS = ("sample", "window")

#: Methods that make a window detector incremental (see the module docstring).
INCREMENTAL_API = ("make_inversion_state", "predict_incremental")


class InvalidPartsError(ValueError):
    """``predict_incremental`` rejected some parts before changing anything.

    ``errors`` maps each rejected part's index to its exception (the message
    is the first one's); the call may be repeated on the other parts.
    """

    def __init__(self, errors):
        self.errors = dict(errors)
        super().__init__(str(next(iter(self.errors.values()))))


@dataclass
class StreamVerdict:
    """Outcome of one streamed measurement.

    Attributes
    ----------
    tick:
        0-based index of the measurement within the stream.
    warming:
        True while the stream has not yet delivered a full window (only
        possible for ``unit="window"`` detectors); ``flagged`` is None then.
    flagged:
        Detector decision for this tick (1 = malicious) once warm.  None on
        a degraded tick whose detector query failed (see ``degraded``).
    score:
        Continuous anomaly score when the adapter was built with
        ``include_scores=True``; None otherwise.
    degraded:
        True when the verdict should not be trusted at face value: the
        stream's inversion-divergence watchdog tripped (``flagged`` is
        still the detector's output) or the detector query itself failed
        under a health-enabled scheduler (``flagged`` is None).  A voting
        ensemble should renormalize around degraded members
        (:meth:`repro.detectors.ensemble.VotingEnsembleDetector.predict`
        with ``exclude``).
    """

    tick: int
    warming: bool
    flagged: Optional[bool] = None
    score: Optional[float] = None
    degraded: bool = False


class StreamingDetector:
    """Attach a fitted :class:`AnomalyDetector` to one served stream.

    Pass adapters to :meth:`~repro.serving.scheduler.StreamScheduler.open_session`;
    each tick's :class:`~repro.serving.session.SessionTick` carries their
    :class:`StreamVerdict`.

    Parameters
    ----------
    detector:
        A *fitted* detector.  May be shared across many adapters/streams.
    unit:
        ``"sample"`` feeds the detector single-measurement views ``(1, 1, F)``
        (the paper's per-measurement kNN/OC-SVM flags); ``"window"`` feeds it
        full ``(1, history, F)`` windows (MAD-GAN, LSTM-VAE, HMM).
    history:
        Window length for ``unit="window"``: None (the default) takes the
        serving predictor's ``history``; any other value must equal it, or
        ``open_session`` raises ``ValueError``.  Ignored for sample
        detectors.
    include_scores:
        Also report the continuous anomaly score each tick.  For plain
        detectors this is one extra :meth:`AnomalyDetector.scores` call per
        tick; incremental detectors reuse the very scores their flags were
        thresholded from, at no extra cost.
    divergence_watchdog:
        Mark verdicts ``degraded`` once the stream's incremental inversion
        has fallen back to a cold re-anchor this many *consecutive* ticks
        (:attr:`repro.detectors.madgan.InversionState.consecutive_fallbacks`).
        A stream whose warm inversion keeps diverging is tracking its
        window badly — its scores still obey the no-inflation fallback
        guarantee, but a health-aware consumer should weigh them down.
        None (the default) disables the watchdog; ignored for
        non-incremental adapters.
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        unit: str = "sample",
        history: Optional[int] = None,
        include_scores: bool = False,
        divergence_watchdog: Optional[int] = None,
    ):
        if unit not in STREAM_UNITS:
            raise ValueError(f"unit must be one of {STREAM_UNITS}, got {unit!r}")
        if history is not None and history <= 0:
            raise ValueError("history must be positive")
        if divergence_watchdog is not None and divergence_watchdog < 1:
            raise ValueError("divergence_watchdog must be >= 1 or None")
        self.detector = detector
        self.unit = unit
        self.history = None if history is None else int(history)
        self.include_scores = bool(include_scores)
        #: Served through the incremental protocol, with one carried state
        #: (the adapter's) per stream.
        self.incremental = unit == "window" and all(
            hasattr(detector, name) for name in INCREMENTAL_API
        )
        self.divergence_watchdog = (
            None if divergence_watchdog is None else int(divergence_watchdog)
        )
        self._inversion_state = detector.make_inversion_state() if self.incremental else None
        self._ticks = 0
        # (ticks, fallbacks) high-water mark for drain_inversion_counts().
        self._inversion_mark = (0, 0)

    # ------------------------------------------------------------------- state
    @property
    def ticks(self) -> int:
        """Number of samples consumed so far."""
        return self._ticks

    @property
    def inversion_state(self):
        """The per-stream incremental carry-over (None for stateless adapters)."""
        return self._inversion_state

    def watchdog_tripped(self) -> bool:
        """True when the inversion-divergence watchdog says "degraded".

        Always False without ``divergence_watchdog`` or for non-incremental
        adapters; otherwise compares the stream's consecutive cold-fallback
        count against the configured threshold.
        """
        if self.divergence_watchdog is None or self._inversion_state is None:
            return False
        consecutive = getattr(self._inversion_state, "consecutive_fallbacks", 0)
        return consecutive >= self.divergence_watchdog

    def take_tick(self) -> int:
        """Count one consumed sample; return its 0-based tick."""
        tick = self._ticks
        self._ticks += 1
        return tick

    def reset(self) -> None:
        """Restart the stream (the detector itself is untouched)."""
        self._ticks = 0
        if self._inversion_state is not None:
            self._inversion_state.reset()
        self._inversion_mark = (0, 0)

    def drain_inversion_counts(self) -> Optional[Tuple[int, int]]:
        """Inversion-activity deltas since the previous drain, or None.

        Returns ``(scored, fallbacks)`` for incremental adapters: windows
        scored through the stream's carry-over state, and how many of them
        fell back to a cold re-anchor (warm ticks are the difference).  Both
        are deterministic event counts read off
        :class:`~repro.detectors.madgan.InversionState`; the scheduler feeds
        them into ``detector.inversion_*`` counters after each query.
        Stateless adapters return None.
        """
        state = self._inversion_state
        if state is None:
            return None
        marked_ticks, marked_fallbacks = self._inversion_mark
        self._inversion_mark = (state.ticks, state.fallbacks)
        return state.ticks - marked_ticks, state.fallbacks - marked_fallbacks
