"""Replay physiology-simulator traces through the live serving stack.

The :class:`StreamReplayer` is the bridge between the repository's offline
world (simulated cohorts, fitted forecasters, fitted detectors) and the
serving subsystem: it opens one session per patient record, feeds the trace
one tick at a time through the :class:`StreamScheduler`, lets an optional
:class:`OnlineAttacker` tamper samples in flight, and collects everything
needed for the paper's *online* evaluation — the per-measurement TP/FN
breakdown of Figure 5, but measured live, plus the quantity only a streaming
evaluation can produce: **detection latency**, the number of ticks between an
attack episode starting and a detector first flagging the stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.cohort import CGM_COLUMN, Cohort
from repro.utils.rng import SeedLike, as_random_state
from repro.detectors.base import AnomalyDetector
from repro.detectors.streaming import StreamingDetector
from repro.eval.metrics import ConfusionMatrix, confusion_matrix
from repro.glucose.models import GlucoseModelZoo
from repro.glucose.states import Scenario, scenario_for_samples
from repro.serving.attacker import AttackEpisode, OnlineAttacker
from repro.serving.faults import FaultInjector, SensorFaultConfig
from repro.serving.scheduler import StreamScheduler
from repro.serving.session import SessionTick


@dataclass(frozen=True)
class DeviceClockConfig:
    """Per-device transmission clock model for :class:`StreamReplayer`.

    A real CGM fleet does not tick in lockstep: each sensor's transmission
    period drifts a little from nominal, individual transmissions jitter,
    and some are dropped outright (radio loss).  This config drives a
    per-device delivery schedule over the replayer's global clock, so the
    scheduler's missed-tick path (sessions absent from a ``tick`` mapping),
    slot recycling, and detection-latency accounting are exercised the way
    production traffic would.

    Parameters
    ----------
    drift:
        Each device draws a fixed period of ``1 + U(-drift, drift)`` global
        ticks per sample.  A slow device (period > 1) progressively falls
        behind the global clock and misses transmission slots.
    jitter:
        Additional per-delivery interval noise ``U(-jitter, jitter)``
        (ticks).  Intervals are clamped to at least 0.25 ticks.
    dropout:
        Probability that a due transmission is lost; the device retries on
        the next global tick (the sample is delayed, never skipped — CGM
        samples are a sequence, not a best-effort stream).
    seed:
        Seed for the per-device period draws and per-delivery noise.

    ``DeviceClockConfig()`` (all zeros) reproduces the lockstep replay
    exactly; it is also what ``StreamReplayer(clocks=None)`` uses.
    """

    drift: float = 0.0
    jitter: float = 0.0
    dropout: float = 0.0
    seed: SeedLike = 0

    def __post_init__(self):
        if not 0.0 <= self.drift < 1.0:
            raise ValueError("drift must be in [0, 1)")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class SessionChurnConfig:
    """Session lifecycle model: devices joining and leaving mid-replay.

    The device clocks (:class:`DeviceClockConfig`) perturb *when* an open
    session transmits; this config perturbs *whether the session exists* —
    the other half of production traffic.  Devices come online staggered,
    disconnect mid-trace (their session closes, the scheduler recycles its
    lane slot and any later joiner may claim it), reconnect as a fresh
    session that warms up from an empty ring, and tear down as soon as their
    trace drains.  The replay still guarantees every device delivers its
    full trace — samples are a sequence, and a disconnected device resumes
    where it left off.

    Parameters
    ----------
    join_stagger:
        Device ``i`` opens its first session at global tick
        ``i * join_stagger`` (0 = everyone joins up front, the previous
        behavior).
    disconnect_every:
        After this many delivered samples a device disconnects: its session
        closes mid-replay and the remaining trace is delivered by a new
        session (id ``label#1``, ``label#2``, ...) opened
        ``reconnect_after`` ticks later.  None disables mid-trace churn.
    reconnect_after:
        Global ticks a disconnected device stays offline before its next
        segment joins.
    close_on_drain:
        Close a session the moment its trace drains instead of at replay
        end, so its lane slot is recycled while other devices still stream
        (slot-recycling under load; the drained trace is unaffected).

    Note on attackers: :class:`OnlineAttacker` episodes are keyed by
    *session id* and expressed in session-local ticks, so under churn an
    episode targets one specific segment (``label``, ``label#1``, ...) and
    its ``start`` counts from that segment's first delivered sample.
    Episodes pointing past a segment's end are never injected and are
    excluded from detection metrics.
    """

    join_stagger: int = 0
    disconnect_every: Optional[int] = None
    reconnect_after: int = 1
    close_on_drain: bool = True

    def __post_init__(self):
        if self.join_stagger < 0:
            raise ValueError("join_stagger must be non-negative")
        if self.disconnect_every is not None and self.disconnect_every <= 0:
            raise ValueError("disconnect_every must be positive or None")
        if self.reconnect_after < 0:
            raise ValueError("reconnect_after must be non-negative")


@dataclass
class ReplaySessionTrace:
    """Everything one session produced during a replay.

    ``ticks`` are indexed in *session-tick* order (one entry per delivered
    sample); ``delivered_at[i]`` is the global replay tick at which session
    tick ``i`` was delivered (equal to ``i`` when the replay runs without
    device clocks).
    """

    session_id: str
    patient_label: str
    ticks: List[SessionTick] = field(default_factory=list)
    scenarios: List[Scenario] = field(default_factory=list)
    delivered_at: List[int] = field(default_factory=list)
    #: The session's health state transitions (empty without a
    #: health-enabled scheduler); captured when the session closes.
    health_timeline: List = field(default_factory=list)

    @property
    def n_ticks(self) -> int:
        return len(self.ticks)

    @property
    def faulted_ticks(self) -> List[int]:
        """Session ticks carrying a benign sensor fault."""
        return [outcome.tick for outcome in self.ticks if outcome.fault]

    @property
    def dropped_ticks(self) -> List[int]:
        """Session ticks refused by ingress validation or quarantine."""
        return [outcome.tick for outcome in self.ticks if outcome.dropped]

    @property
    def missed_slots(self) -> int:
        """Global ticks within this device's delivery span with no delivery.

        Zero for a lockstep replay; with device clocks it counts how often
        the scheduler advanced other sessions while this one's ring stood
        still (the missed-tick path).
        """
        if len(self.delivered_at) < 2:
            return 0
        span = self.delivered_at[-1] - self.delivered_at[0] + 1
        return int(span - len(self.delivered_at))

    @property
    def attacked_ticks(self) -> List[int]:
        return [outcome.tick for outcome in self.ticks if outcome.attacked]

    def predictions(self) -> np.ndarray:
        """Per-tick predictions (NaN while warming)."""
        return np.array(
            [np.nan if outcome.prediction is None else outcome.prediction for outcome in self.ticks]
        )

    def delivered_cgm(self) -> np.ndarray:
        return np.array([outcome.sample[CGM_COLUMN] for outcome in self.ticks])


@dataclass
class EpisodeOutcome:
    """Did a detector catch one attack episode, and how fast?"""

    session_id: str
    detector: str
    episode: AttackEpisode
    detected: bool
    first_flag_tick: Optional[int] = None

    @property
    def latency_ticks(self) -> Optional[float]:
        """Ticks from episode start to the first flag (None if undetected)."""
        if self.first_flag_tick is None:
            return None
        return float(self.first_flag_tick - self.episode.start)


@dataclass
class ReplayReport:
    """Aggregate result of one replay run."""

    sessions: Dict[str, ReplaySessionTrace] = field(default_factory=dict)
    episodes: List[EpisodeOutcome] = field(default_factory=list)
    detector_names: List[str] = field(default_factory=list)

    # -------------------------------------------------------------- detection
    def _iter_verdicts(self, detector: str):
        for trace in self.sessions.values():
            for outcome in trace.ticks:
                verdict = outcome.verdicts.get(detector)
                if verdict is None or verdict.warming:
                    continue
                yield trace, outcome, verdict

    def confusion(self, detector: str) -> ConfusionMatrix:
        """Tick-level confusion of one detector (tampered = positive class)."""
        truth: List[int] = []
        flags: List[int] = []
        for _, outcome, verdict in self._iter_verdicts(detector):
            truth.append(int(outcome.attacked))
            flags.append(int(verdict.flagged))
        return confusion_matrix(truth, flags)

    def trace_breakdown(self, detector: str) -> Dict[str, Dict[str, int]]:
        """Per-session true-positive / false-negative counts on tampered ticks."""
        breakdown: Dict[str, Dict[str, int]] = {}
        for trace, outcome, verdict in self._iter_verdicts(detector):
            counts = breakdown.setdefault(
                trace.session_id, {"true_positives": 0, "false_negatives": 0}
            )
            if not outcome.attacked:
                continue
            if verdict.flagged:
                counts["true_positives"] += 1
            else:
                counts["false_negatives"] += 1
        return breakdown

    # ------------------------------------------------------------------- churn
    def segments_for(self, patient_label: str) -> List["ReplaySessionTrace"]:
        """Every session segment one device produced, in creation order.

        Without churn this is the device's single session; with
        :class:`SessionChurnConfig` disconnects each reconnection opened a
        fresh session (``label``, ``label#1``, ``label#2``, ...) and the
        device's trace is the concatenation of its segments' ticks.
        """
        return [
            trace
            for trace in self.sessions.values()
            if trace.patient_label == patient_label
        ]

    def delivered_ticks(self, patient_label: str) -> int:
        """Total samples one device delivered across all its session segments."""
        return sum(trace.n_ticks for trace in self.segments_for(patient_label))

    # ---------------------------------------------------------------- latency
    def episode_outcomes(self, detector: str) -> List[EpisodeOutcome]:
        return [outcome for outcome in self.episodes if outcome.detector == detector]

    def mean_detection_latency(self, detector: str) -> float:
        """Mean ticks-to-first-flag over the *detected* episodes (NaN if none)."""
        latencies = [
            outcome.latency_ticks
            for outcome in self.episode_outcomes(detector)
            if outcome.latency_ticks is not None
        ]
        return float(np.mean(latencies)) if latencies else float("nan")

    def detection_rate(self, detector: str) -> float:
        """Fraction of attack episodes the detector flagged at least once."""
        outcomes = self.episode_outcomes(detector)
        if not outcomes:
            return float("nan")
        return float(np.mean([outcome.detected for outcome in outcomes]))

    # ------------------------------------------------------------- robustness
    def benign_false_alarms(self, detector: str, faulted_only: bool = False) -> Tuple[int, int]:
        """``(false alarms, benign ticks scored)`` for one detector.

        ``faulted_only`` restricts the count to benign ticks carrying a
        sensor fault — the ticks a fault-confused detector would flag.  The
        paper's false-alarm cost is the rate ``false alarms / benign ticks``.
        """
        alarms = 0
        scored = 0
        for _, outcome, verdict in self._iter_verdicts(detector):
            if outcome.attacked:
                continue
            if faulted_only and not outcome.fault:
                continue
            scored += 1
            if verdict.flagged:
                alarms += 1
        return alarms, scored

    def health_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-session counts of dropped/faulted/errored ticks and quarantines."""
        summary: Dict[str, Dict[str, int]] = {}
        for session_id, trace in self.sessions.items():
            # HealthState is a str-Enum, so this matches the enum member.
            quarantines = sum(
                1 for event in trace.health_timeline if event.state == "quarantined"
            )
            summary[session_id] = {
                "ticks": trace.n_ticks,
                "dropped": len(trace.dropped_ticks),
                "faulted": len(trace.faulted_ticks),
                "errors": sum(1 for outcome in trace.ticks if outcome.error),
                "quarantines": quarantines,
            }
        return summary

    def rollup(self, detector: str) -> Dict[str, float]:
        """One detector's chaos-harness roll-up: TP/FP, false-alarm cost, latency."""
        confusion = self.confusion(detector)
        alarms, benign = self.benign_false_alarms(detector)
        fault_alarms, faulted = self.benign_false_alarms(detector, faulted_only=True)
        return {
            "true_positives": float(confusion.true_positives),
            "false_positives": float(confusion.false_positives),
            "true_negatives": float(confusion.true_negatives),
            "false_negatives": float(confusion.false_negatives),
            "false_positive_rate": float(confusion.false_positive_rate),
            "false_alarm_rate_benign": alarms / benign if benign else 0.0,
            "false_alarm_rate_faulted": fault_alarms / faulted if faulted else 0.0,
            "detection_rate": self.detection_rate(detector),
            "mean_detection_latency": self.mean_detection_latency(detector),
        }


# ------------------------------------------------------------ fingerprints
def _bits(value) -> Optional[bytes]:
    """IEEE-754 bytes of an optional float.

    Comparing bytes makes ``==`` truly bitwise: ``-0.0`` differs from
    ``0.0``, and a NaN equals itself.
    """
    return None if value is None else struct.pack("<d", value)


def _outcome_fingerprint(outcome: SessionTick) -> dict:
    return {
        "tick": outcome.tick,
        "sample": outcome.sample.tobytes(),
        "prediction": _bits(outcome.prediction),
        "verdicts": [
            (
                name,
                verdict.tick,
                verdict.warming,
                verdict.flagged,
                _bits(verdict.score),
                verdict.degraded,
            )
            for name, verdict in sorted(outcome.verdicts.items())
        ],
        "attacked": outcome.attacked,
        "fault": outcome.fault,
        "ingress": outcome.ingress,
        "dropped": outcome.dropped,
        "error": outcome.error,
    }


def tick_fingerprint(outcomes: Mapping[str, SessionTick]) -> Dict[str, dict]:
    """Everything one scheduler tick must reproduce bitwise, keyed by session.

    ``outcomes`` is what ``StreamScheduler.tick`` (or the sharded fabric's)
    returns.  Two ticks are twins when their fingerprints compare equal.
    """
    return {
        session_id: _outcome_fingerprint(outcome)
        for session_id, outcome in sorted(outcomes.items())
    }


def replay_fingerprint(
    report: ReplayReport, attacker: Optional[OnlineAttacker] = None
) -> dict:
    """Everything one replay must reproduce bitwise.

    Per session: every tick's :func:`tick_fingerprint` fields, the global
    tick each sample was delivered at, and the health timeline (tick, state,
    reason, ``delivered_at``, backoff).  With the replay's ``attacker``, its
    tamper records and every detector's :meth:`ReplayReport.rollup` are
    compared too.  Floats are compared by their IEEE-754 bytes.
    """
    fingerprint = {
        "sessions": {
            session_id: {
                "ticks": [_outcome_fingerprint(outcome) for outcome in trace.ticks],
                "delivered_at": list(trace.delivered_at),
                "health": [
                    (event.tick, str(event.state), event.reason, event.delivered_at, event.backoff)
                    for event in trace.health_timeline
                ],
            }
            for session_id, trace in sorted(report.sessions.items())
        }
    }
    if attacker is not None:
        fingerprint["tampers"] = [
            (
                record.session_id,
                record.tick,
                record.scenario,
                _bits(record.benign_cgm),
                _bits(record.delivered_cgm),
                record.eligible,
                record.success,
                record.queries,
                record.warm_started,
            )
            for record in attacker.records
        ]
        fingerprint["rollup"] = {
            detector: {key: _bits(value) for key, value in report.rollup(detector).items()}
            for detector in report.detector_names
        }
    return fingerprint


class StreamReplayer:
    """Drive live sessions from simulated patient traces.

    Parameters
    ----------
    zoo:
        Fitted model zoo; each patient streams through the model the
        deployment would use for them.
    detectors:
        ``{name: (fitted detector, unit)}`` monitors attached to every
        session.  The detector *objects* are shared across sessions (the
        scheduler batches their queries); the per-stream ring adapters are
        created per session.  Units follow
        :class:`repro.eval.experiments.DetectorSpec`.
    attacker:
        Optional :class:`OnlineAttacker` tampering samples in flight.
    scheduler:
        Bring-your-own scheduler (e.g. to co-serve other sessions, or a
        pre-configured :class:`~repro.serving.shard.ShardedScheduler` for
        health/ingress-enabled sharded replays); a fresh one is created per
        replay otherwise.
    n_shards:
        Convenience scale-out: when set (and no ``scheduler`` was given),
        each replay runs on its own :class:`~repro.serving.shard.ShardedScheduler`
        with this many worker processes, torn down when the replay returns.
        Replay results are bitwise-identical to the single-process path for
        deterministic detectors — ``scripts/check_parity.py`` gates it.
    clocks:
        Optional :class:`DeviceClockConfig` giving every device its own
        transmission clock (drift/jitter/dropout).  None replays all
        devices in lockstep on the global clock — one sample per device per
        tick, the previous behavior.
    churn:
        Optional :class:`SessionChurnConfig` modelling devices joining and
        leaving mid-replay (staggered joins, mid-trace disconnect/reconnect
        segments, close-on-drain).  Exercises the scheduler's slot
        recycling at scale; None keeps every session open for the whole
        replay, the previous behavior.  Every device still delivers its
        full trace (the drain guarantee; ``tests/test_serving.py`` pins it).
    faults:
        Optional :class:`~repro.serving.faults.SensorFaultConfig` (or a
        prebuilt :class:`~repro.serving.faults.FaultInjector`) corrupting
        each device's trace with seeded *benign* sensor faults — bias,
        stuck-at, spikes, drift, dropout delivery delays, malformed samples
        — **upstream of the attacker**.  The faulted sample is the benign
        truth for attack accounting (a glitchy sensor is not an attack), so
        benign faults inflate only the false-alarm side of the report.
        Fault plans are drawn per device label (independent of delivery
        order), so they compose with ``clocks`` and ``churn`` without
        changing which faulted value position ``p`` delivers.  None — or
        the zero config — replays bitwise-identical to no injector at all
        (``tests/test_serving_faults.py`` pins this).
    divergence_watchdog:
        Optional K forwarded to every session's
        :class:`~repro.detectors.streaming.StreamingDetector` adapters:
        incremental streams report ``degraded`` verdicts after K
        consecutive cold fallbacks.  None disables the watchdog.
    obs:
        Optional :class:`~repro.obs.Observer`.  Forwarded into the
        scheduler/fabric the replay creates (bring-your-own schedulers wire
        their own), so every tick records the serving-side series and spans;
        the replayer additionally stamps each ``scheduler.tick`` with the
        global replay tick (``now=``), counts applied benign faults by kind
        (``replay.faults_applied_total``), and — once episodes are scored —
        emits the replay-level verdict/episode/latency series
        ``scripts/obs_report.py`` renders into the chaos-harness rollup.
        None (the default) is bitwise inert.
    """

    def __init__(
        self,
        zoo: GlucoseModelZoo,
        detectors: Optional[Mapping[str, Tuple[AnomalyDetector, str]]] = None,
        attacker: Optional[OnlineAttacker] = None,
        scheduler: Optional[StreamScheduler] = None,
        clocks: Optional[DeviceClockConfig] = None,
        churn: Optional[SessionChurnConfig] = None,
        faults: Optional[SensorFaultConfig] = None,
        divergence_watchdog: Optional[int] = None,
        n_shards: Optional[int] = None,
        obs=None,
    ):
        if scheduler is not None and n_shards is not None:
            raise ValueError(
                "pass either a bring-your-own scheduler or n_shards, not both"
            )
        self.zoo = zoo
        self.detectors = dict(detectors or {})
        self.attacker = attacker
        self.scheduler = scheduler
        self.n_shards = n_shards
        self.obs = obs
        self.clocks = clocks
        self.churn = churn
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)
        self.divergence_watchdog = divergence_watchdog

    def replay(
        self,
        cohort: Cohort,
        split: str = "test",
        max_ticks: Optional[int] = None,
    ) -> ReplayReport:
        """Stream every patient's trace tick-by-tick and collect the report.

        ``max_ticks`` caps how many *samples* each device delivers (session
        ticks).  With device clocks the replay runs as many global ticks as
        the slowest device needs, bounded by a drift/jitter/dropout-derived
        horizon; with session churn the same drain guarantee holds across a
        device's disconnect/reconnect segments.
        """
        owned_fabric = None
        if self.scheduler is not None:
            scheduler = self.scheduler
        elif self.n_shards is not None:
            from repro.serving.shard import ShardedScheduler

            scheduler = owned_fabric = ShardedScheduler(
                n_shards=self.n_shards, obs=self.obs
            )
        else:
            scheduler = StreamScheduler(obs=self.obs)
        report = ReplayReport(detector_names=list(self.detectors))
        churn = self.churn
        injector = self.faults if self.faults is not None and self.faults.enabled else None

        traces: List[dict] = []
        try:
            for record in cohort:
                features = record.features(split)
                if max_ticks is not None:
                    features = features[:max_ticks]
                if len(features) == 0:
                    continue
                traces.append(
                    {
                        "label": record.label,
                        "features": features,
                        "scenarios": scenario_for_samples(features[:, 2]),
                        "session": None,
                        "segment": 0,
                        "segment_deliveries": 0,
                        "position": 0,
                        # First join: staggered when churn says so.
                        "join_time": (
                            len(traces) * churn.join_stagger if churn is not None else 0
                        ),
                        "next_time": 0.0,
                        "period": 1.0,
                        # Benign sensor faults: the device's materialized
                        # plan and its last transmitted (post-fault) CGM —
                        # the stuck-at hold value, persisted across churn
                        # segments (the *device* is stuck, not the session).
                        "fault_plan": (
                            injector.plan_for(record.label, len(features))
                            if injector is not None
                            else None
                        ),
                        "held_cgm": None,
                        "fault_delayed": None,
                    }
                )
            if not traces:
                return report

            clocks = self.clocks
            drift = clocks.drift if clocks is not None else 0.0
            jitter = clocks.jitter if clocks is not None else 0.0
            dropout = clocks.dropout if clocks is not None else 0.0
            rng = as_random_state(clocks.seed) if clocks is not None else None
            for trace in traces:
                trace["period"] = (
                    1.0 + float(rng.uniform(-drift, drift)) if drift else 1.0
                )

            def open_segment(trace: dict, global_tick: int) -> None:
                """Open the device's next session segment (fresh adapters/rings)."""
                label = trace["label"]
                segment = trace["segment"]
                session_id = label if segment == 0 else f"{label}#{segment}"
                adapters = {
                    name: StreamingDetector(
                        detector, unit=unit, divergence_watchdog=self.divergence_watchdog
                    )
                    for name, (detector, unit) in self.detectors.items()
                }
                session = scheduler.open_session(
                    label,
                    self.zoo.model_for(label),
                    detectors=adapters,
                    session_id=session_id,
                )
                trace["session"] = session
                trace["segment_deliveries"] = 0
                trace["next_time"] = float(global_tick)
                report.sessions[session_id] = ReplaySessionTrace(
                    session_id=session_id, patient_label=label
                )

            def capture_health(session) -> None:
                if session.health is not None:
                    report.sessions[session.session_id].health_timeline = list(
                        session.health.timeline
                    )

            def close_segment(trace: dict) -> None:
                capture_health(trace["session"])
                scheduler.close_session(trace["session"].session_id)
                trace["session"] = None

            n_longest = max(len(trace["features"]) for trace in traces)
            # Fault dropout bursts delay deliveries by a known, precomputed
            # number of global ticks; the worst single device extends every
            # cap exactly.
            max_fault_delay = max(
                (
                    trace["fault_plan"].total_delay()
                    for trace in traces
                    if trace["fault_plan"] is not None
                ),
                default=0,
            )
            # The replay runs until every device drains its trace.  The cap is
            # a safety valve only: four times the mean-based bound (per-sample
            # period + jitter, inflated by retried dropouts, plus join stagger
            # and reconnect downtime) — a replay that exceeds it raises
            # instead of silently reporting partial traces.
            if clocks is None and churn is None:
                safety_cap = n_longest + max_fault_delay
            else:
                bound = int(
                    np.ceil(
                        n_longest * (1.0 + drift + jitter) / max(1.0 - dropout, 0.05)
                    )
                )
                bound += max_fault_delay
                if churn is not None:
                    bound += (len(traces) - 1) * churn.join_stagger
                    if churn.disconnect_every is not None:
                        reconnects = n_longest // churn.disconnect_every + 1
                        bound += reconnects * (churn.reconnect_after + 1)
                safety_cap = 4 * (bound + 16)

            global_tick = -1
            while True:
                global_tick += 1
                live = [
                    trace
                    for trace in traces
                    if trace["position"] < len(trace["features"])
                ]
                if not live:
                    break
                if global_tick >= safety_cap:
                    undrained = ", ".join(
                        f"{trace['label']!r} at sample "
                        f"{trace['position']}/{len(trace['features'])}"
                        + (
                            f" (session {trace['session'].session_id!r}, "
                            f"tick {trace['session'].ticks})"
                            if trace["session"] is not None
                            else " (offline)"
                        )
                        for trace in live
                    )
                    raise RuntimeError(
                        f"replay exceeded its safety cap of {safety_cap} global "
                        f"ticks with devices [{undrained}] still undrained "
                        f"(drift={drift}, jitter={jitter}, dropout={dropout}, "
                        f"churn={churn})"
                    )
                for trace in live:
                    if trace["session"] is None and trace["join_time"] <= global_tick:
                        open_segment(trace, global_tick)
                due = [
                    trace
                    for trace in live
                    if trace["session"] is not None
                    and trace["next_time"] <= global_tick + 1e-9
                ]
                delivering = []
                for trace in due:
                    plan = trace["fault_plan"]
                    if plan is not None and trace["fault_delayed"] != trace["position"]:
                        delay = plan.delay_at(trace["position"])
                        if delay > 0:
                            # Dropout burst: the device goes dark for `delay`
                            # global ticks, then transmits this same sample
                            # (delayed, never skipped — like clock dropouts).
                            trace["fault_delayed"] = trace["position"]
                            trace["next_time"] = float(global_tick + delay)
                            continue
                    if dropout and float(rng.uniform(0.0, 1.0)) < dropout:
                        # Lost transmission: the sample is delayed one global
                        # tick, not skipped (CGM traces are a sequence).
                        trace["next_time"] = global_tick + 1.0
                        continue
                    delivering.append(trace)
                if not delivering:
                    continue

                # What the sensor transmitted this tick: the recorded sample,
                # corrupted by any active benign fault.  This is the benign
                # truth for attack accounting — the attacker sits downstream
                # on the CGM→pump link and tampers the (faulty) transmission.
                benign = {}
                fault_kinds = {}
                for trace in delivering:
                    session_id = trace["session"].session_id
                    sample = trace["features"][trace["position"]]
                    plan = trace["fault_plan"]
                    if plan is not None:
                        sample, kinds, trace["held_cgm"] = plan.apply(
                            trace["position"], sample, trace["held_cgm"]
                        )
                        if kinds:
                            fault_kinds[session_id] = tuple(
                                kind.value for kind in kinds
                            )
                            if self.obs is not None:
                                for kind in kinds:
                                    self.obs.registry.inc(
                                        "replay.faults_applied_total", kind=kind.value
                                    )
                    benign[session_id] = sample
                if self.attacker is not None:
                    delivered = self.attacker.intercept(
                        [
                            (
                                trace["session"],
                                benign[trace["session"].session_id],
                                trace["scenarios"][trace["position"]],
                            )
                            for trace in delivering
                        ]
                    )
                else:
                    delivered = benign
                outcomes = scheduler.tick(delivered, now=global_tick)
                for trace in delivering:
                    session_id = trace["session"].session_id
                    position = trace["position"]
                    outcome = outcomes[session_id]
                    outcome.fault = fault_kinds.get(session_id, ())
                    # Attacked = the attacker changed the transmission; an
                    # ingress-repaired (clamped/held) or dropped tick is
                    # judged on what *arrived* at the gateway, not on what
                    # the gateway then made of it.
                    # equal_nan: a malformed (NaN) benign fault delivered
                    # untouched must not read as tampering.
                    benign_sample = np.asarray(benign[session_id], dtype=np.float64)
                    if outcome.ingress is None and not outcome.dropped:
                        outcome.attacked = not np.array_equal(
                            outcome.sample, benign_sample, equal_nan=True
                        )
                    else:
                        outcome.attacked = not np.array_equal(
                            np.asarray(delivered[session_id], dtype=np.float64),
                            benign_sample,
                            equal_nan=True,
                        )
                    session_trace = report.sessions[session_id]
                    session_trace.ticks.append(outcome)
                    session_trace.delivered_at.append(global_tick)
                    session_trace.scenarios.append(trace["scenarios"][position])
                    trace["position"] = position + 1
                    trace["segment_deliveries"] += 1
                    interval = trace["period"]
                    if jitter:
                        interval += float(rng.uniform(-jitter, jitter))
                    trace["next_time"] += max(interval, 0.25)

                    if churn is None:
                        continue
                    if trace["position"] >= len(trace["features"]):
                        if churn.close_on_drain:
                            # Drained: recycle the slot while others stream.
                            close_segment(trace)
                    elif (
                        churn.disconnect_every is not None
                        and trace["segment_deliveries"] >= churn.disconnect_every
                    ):
                        # Mid-trace disconnect: the device goes offline and
                        # resumes later as a fresh session segment.
                        close_segment(trace)
                        trace["segment"] += 1
                        trace["join_time"] = global_tick + 1 + churn.reconnect_after
            self._score_episodes(report)
            self._emit_report(report)
        finally:
            # Always tear the replay's sessions down — a mid-replay failure
            # must not leak sessions/slots into a bring-your-own scheduler.
            for trace in traces:
                if trace["session"] is not None:
                    session = trace["session"]
                    if session.health is not None and session.session_id in report.sessions:
                        report.sessions[session.session_id].health_timeline = list(
                            session.health.timeline
                        )
                    scheduler.close_session(session.session_id)
            if owned_fabric is not None:
                owned_fabric.shutdown()
        return report

    # ------------------------------------------------------------------ helpers
    def _emit_report(self, report: ReplayReport) -> None:
        """Emit the replay-level series the chaos rollup is recomputed from.

        ``replay.verdicts_total`` (labeled by detector / truth / fault /
        flagged) carries the full tick-level confusion,
        ``replay.episodes_total`` and the ``replay.detection_latency_ticks``
        histogram carry the episode view.  Latencies are integral tick
        counts, so the histogram ``sum`` stays exact and
        ``sum / count`` reproduces :meth:`ReplayReport.mean_detection_latency`
        bitwise; ``scripts/obs_report.py`` renders these back into the
        per-detector rollup shape.
        """
        if self.obs is None:
            return
        registry = self.obs.registry
        for detector in report.detector_names:
            for _, outcome, verdict in report._iter_verdicts(detector):
                if verdict.flagged is None:
                    flagged = "degraded"
                else:
                    flagged = "yes" if verdict.flagged else "no"
                registry.inc(
                    "replay.verdicts_total",
                    detector=detector,
                    truth="attacked" if outcome.attacked else "benign",
                    fault="yes" if outcome.fault else "no",
                    flagged=flagged,
                )
            for episode in report.episode_outcomes(detector):
                registry.inc(
                    "replay.episodes_total",
                    detector=detector,
                    detected="yes" if episode.detected else "no",
                )
                if episode.latency_ticks is not None:
                    registry.observe(
                        "replay.detection_latency_ticks",
                        episode.latency_ticks,
                        detector=detector,
                    )

    def _score_episodes(self, report: ReplayReport) -> None:
        if self.attacker is None:
            return
        for session_id, episodes in self.attacker.episodes.items():
            trace = report.sessions.get(session_id)
            if trace is None:
                continue
            for episode in episodes:
                if episode.start >= trace.n_ticks:
                    # The episode's tick range never ran for this session —
                    # the trace was truncated (max_ticks) or, under churn,
                    # the device disconnected before reaching it (episodes
                    # are keyed per session *segment*, whose local ticks
                    # restart at 0).  Emitting a detected=False outcome here
                    # would report a "missed" attack that was never injected.
                    continue
                for detector in report.detector_names:
                    first_flag: Optional[int] = None
                    for outcome in trace.ticks[episode.start : episode.end]:
                        verdict = outcome.verdicts.get(detector)
                        if verdict is not None and not verdict.warming and verdict.flagged:
                            first_flag = outcome.tick
                            break
                    report.episodes.append(
                        EpisodeOutcome(
                            session_id=session_id,
                            detector=detector,
                            episode=episode,
                            detected=first_flag is not None,
                            first_flag_tick=first_flag,
                        )
                    )
