"""Multiprocess sharded execution fabric for the serving scheduler.

Everything below :class:`~repro.serving.scheduler.StreamScheduler` runs in
one Python process on one core; this module is the scale-out layer that
partitions a session fleet across a pool of worker processes while keeping
the single-process semantics **bitwise** (the twin table in
``scripts/check_parity.py`` gates it).

Architecture
------------
Each worker process owns a full, ordinary :class:`StreamScheduler` — its
*shard* — plus a content-addressed registry of rehydrated checkpoints and
shared detector objects.  The parent-side :class:`ShardedScheduler` facade
exposes the same ``open_session`` / ``tick`` / ``close_session`` API and:

* **Partitions sessions** with a deterministic hash of
  ``(lane state_hash, session id)`` — independent of open order, so a replay
  shards the same way every run.  Weights are content-addressed: each worker
  materializes at most one model copy per lane it serves.  Checkpoints cross
  the boundary once per ``(worker, lane)`` as pickled payloads and are
  re-verified on arrival with the existing
  :func:`~repro.serving.health.validate_checkpoint` / ``state_hash``
  machinery, so a torn pickle can never serve.
* **Deduplicates shared detectors**: a detector object shared by many
  sessions (the scheduler's batched-query contract) ships once per worker
  and every session adapter on that worker reattaches to the single local
  copy, preserving the one-batched-``predict``-per-detector-per-tick shape
  inside each shard.
* **Merges ticks deterministically**: one ``tick`` fans the delivered
  samples out to the owning shards, the workers step concurrently, and the
  merged ``{session_id: SessionTick}`` result is ordered by session id —
  independent of shard count and assignment.
* **Isolates worker death**: a shard whose process dies (or whose pipe
  breaks) degrades only its own sessions — they receive ``dropped`` ticks
  naming the dead shard — while every other shard keeps serving outputs
  bitwise-identical to running solo.

Workers start and end through :mod:`repro.utils.workers`: a worker is forked
when the parent runs no other thread and spawned otherwise (a forked child
would inherit locks held by threads that do not exist in it).  Every payload
crosses the pipe pickled under either start method, so both serve bitwise
the same ticks.

Crash recovery (opt-in supervision)
-----------------------------------
Passing ``supervision=SupervisorConfig(...)`` upgrades worker death from
terminal to recoverable.  Workers piggyback a full deterministic
:class:`~repro.serving.recovery.SchedulerSnapshot` of their shard on every
``snapshot_interval``-th tick reply, and the parent journals every
state-mutating command (model/detector/open/close/tick) sent since the last
snapshot, a command the worker raised on included (its replay must raise the
same error).  When a worker dies — EOF on its pipe, a broken send, or a
``request_timeout`` expiry (the stuck worker is force-killed first) — the
supervisor respawns the process with bounded exponential backoff, restores
the last snapshot, replays the journal verbatim (re-deriving detector RNG
streams to their exact pre-crash positions), and re-sends the one in-flight
command the dead worker never acknowledged.  The result is the repo's
strongest robustness contract: **a run with workers killed mid-stream is
bitwise identical to a run that never crashed** — survivors untouched,
victims resumed exactly (the kill rows of ``check_parity.TWIN_ROWS`` and
the ``chaos_replay.py`` kill-mix gate check it).  A ``max_restarts``
circuit breaker bounds the respawn loop; a shard that exhausts it falls
back to the terminal dropped-ticks behavior above.  Snapshot plus journal is
the only rehydration path, so every supervised respawn resumes bitwise.
Without ``supervision`` the fabric behaves exactly as before.  See
``docs/recovery.md``.

RNG boundary rule
-----------------
``RandomState(existing)`` shares one stream in-process, but separately
pickled copies silently stop sharing and re-draw identical values
(:meth:`repro.utils.rng.RandomState.fork` documents the hazard; the
regression tests pin it).  Crossing into a worker is therefore an explicit
derivation point: when a detector carrying a ``RandomState`` is registered
on a worker, its stream is re-derived with a stable per-shard tag
(``derive("shard:<index>")``) instead of inheriting a frozen copy of the
parent's stream.  Consequences: stochastic detectors (MAD-GAN cold latent
draws) are *reproducible* for a fixed seed and shard layout but not
bitwise-invariant across layouts; the bitwise parity gates use
deterministic detectors.  Model weights are never re-derived — predictions
spend no randomness.

Session handles
---------------
``open_session`` returns a :class:`ShardSessionHandle`, a parent-side
mirror that duck-types the :class:`~repro.serving.session.PatientSession`
surface the replayer and online attacker consume (``ticks``,
``context_window``, ``predictor``, ``health``).  The mirror ring is rebuilt
from the returned :class:`SessionTick` stream (served ticks push exactly the
sample the worker pushed; a transition into quarantine resets it), so a
man-in-the-middle attacker sees the same live context window it would see
single-process.  ``health.timeline`` is a parent-side copy: the ``open``
reply carries the ``opened`` event and each tick reply the events its tick
added (no other command moves a health machine), so reading it costs no
round trip and it keeps every event up to a worker's death.

One reply path
--------------
Every command, ``tick`` included, is sent, collected (recovering a dead
worker and re-sending once, under supervision) and recorded (shipped sets,
snapshot, journal; a tick's latency and obs) the same way.  ``tick`` sends
to every engaged shard before collecting any reply, so the workers compute
concurrently; journal replay re-sends through the same path.
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.glucose.predictor import GlucosePredictor
from repro.obs import MetricsRegistry, Observer
from repro.serving.health import (
    HealthConfig,
    HealthEvent,
    HealthState,
    IngressConfig,
    validate_checkpoint,
)
from repro.serving.recovery import (
    SchedulerSnapshot,
    capture_scheduler,
    dumps_with_refs,
    loads_with_refs,
    restore_scheduler,
)
from repro.serving.scheduler import StreamScheduler
from repro.serving.session import SessionTick
from repro.utils.rng import RandomState, hash_string
from repro.utils.timeseries import SampleRing
from repro.utils.workers import reap, start_child

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Bounded wait (seconds) for a worker that should be exiting or replying:
#: the shutdown ack poll, process joins, and the obs-refresh round-trip.
#: Module-level so tests can shrink it when exercising the escalation path.
_STUCK_WORKER_TIMEOUT = 5.0

#: Respawn backoff growth per restart and its ceiling (seconds); see
#: :class:`SupervisorConfig`.
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF = 2.0

#: Sentinel for "use the supervisor's request_timeout" in reply waits.
_DEFAULT_TIMEOUT = object()

#: Command kinds that mutate worker state and therefore enter the journal.
_JOURNALED_COMMANDS = frozenset({"model", "detector", "open", "close", "tick"})

#: Tag of a journal entry ``(_RAISED, message, exc_type, worker_message)``: a
#: journaled command the worker raised on, which replay expects to raise again.
_RAISED = "raised"

#: Health states in which the scheduler drops a session's deliveries.
_BLOCKED_STATES = (HealthState.QUARANTINED, HealthState.FAILED)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorConfig:
    """Worker supervision policy for :class:`ShardedScheduler`.

    Attributes
    ----------
    snapshot_interval:
        Workers piggyback a deterministic shard snapshot on every N-th tick
        reply; the parent journals commands between snapshots, so a crashed
        worker resumes **bitwise exactly** (snapshot + journal replay +
        re-sent in-flight command).  Before the first snapshot the journal
        reaches back to worker birth.  Must be a positive int.
    max_restarts:
        Circuit breaker: total respawns allowed per shard before its death
        becomes terminal (sessions degrade to dropped ticks, the
        unsupervised behavior).
    restart_backoff:
        Bounded exponential sleep before each respawn:
        ``min(restart_backoff * 2**(n-1), 2.0)`` seconds for the n-th
        restart of a shard.
    request_timeout:
        Per-reply wall-clock budget in seconds.  A worker that exceeds it is
        presumed hung, force-killed (``recovery.forced_kills_total``), and
        recovered like any other death.  ``None`` (default) waits forever —
        death is then detected by pipe EOF only.
    """

    snapshot_interval: int = 32
    max_restarts: int = 3
    restart_backoff: float = 0.05
    request_timeout: Optional[float] = None

    def __post_init__(self):
        if self.snapshot_interval is None or self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive or None")


class ShardWorkerError(RuntimeError):
    """An exception raised inside a shard worker, surfaced parent-side.

    Carries the shard index plus the worker-side exception type, message,
    and formatted traceback (exceptions with custom constructors — e.g.
    :class:`~repro.serving.scheduler.SchedulerTickError` — do not survive
    pickling, so the facade re-raises them by description).
    """

    def __init__(self, shard: int, exc_type: str, message: str, traceback_text: str = ""):
        self.shard = int(shard)
        self.exc_type = exc_type
        self.worker_message = message
        self.worker_traceback = traceback_text
        super().__init__(f"shard {shard} worker raised {exc_type}: {message}")


class ShardDeadError(RuntimeError):
    """The facade needed a worker that is no longer alive."""


# ------------------------------------------------------------------ worker side
def _rederive_worker_rng(obj, shard_index: int) -> None:
    """Apply the shard-boundary RNG rule to a freshly rehydrated object.

    A pickled copy of a parent-side ``RandomState`` would silently re-draw
    the parent's stream (the aliasing bug the regression tests pin); the
    worker's copy must advance a stream of its own.  ``derive`` with the
    stable per-shard tag keeps the result reproducible for a fixed seed and
    shard layout.
    """
    rng = getattr(obj, "_rng", None)
    if isinstance(rng, RandomState):
        obj._rng = rng.derive(f"shard:{shard_index}")


def _worker_main(
    shard_index: int,
    scheduler_kwargs: dict,
    obs_enabled: bool,
    snapshot_interval: Optional[int],
    conn,
) -> None:
    """Run one shard: a private StreamScheduler driven by pipe commands.

    A tick reply carries the outcomes, the worker's seconds in the tick and
    the health events each delivered session gained.  With ``obs_enabled``
    the worker owns its own :class:`Observer`; every tick reply also ships
    the cumulative series snapshot plus the spans/events recorded since the
    previous reply (the parent stamps them with this shard's index).  Obs
    shipping rides the existing replies — no extra round-trips on the hot
    path.

    With ``snapshot_interval`` set, every N-th successful tick reply also
    carries a :class:`~repro.serving.recovery.SchedulerSnapshot` of the
    whole shard (scheduler + model/detector registries woven into one
    pickle graph, so shared objects keep aliasing on restore).  The tick
    counter survives restore via snapshot ``meta``, keeping the snapshot
    cadence — and therefore the recovered run's command stream — identical
    to an uninterrupted worker's.
    """
    import traceback as traceback_module

    observer = Observer() if obs_enabled else None
    scheduler = StreamScheduler(obs=observer, **scheduler_kwargs)
    models: Dict[str, GlucosePredictor] = {}
    detectors: Dict[int, object] = {}
    ticks_seen = 0

    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command = message[0]
        try:
            if command == "shutdown":
                conn.send(("ok", None))
                break
            elif command == "model":
                _, lane_key, payload = message
                predictor = pickle.loads(payload)
                # Re-verify the rehydrated checkpoint against its
                # content-addressed lane key: a torn pickle must never serve.
                validate_checkpoint(predictor, expected_hash=lane_key)
                models[lane_key] = predictor
                conn.send(("ok", None))
            elif command == "detector":
                _, ref, payload = message
                detector = pickle.loads(payload)
                _rederive_worker_rng(detector, shard_index)
                detectors[ref] = detector
                conn.send(("ok", None))
            elif command == "open":
                _, spec = message
                adapters = (
                    loads_with_refs(spec["adapters"], detectors)
                    if spec["adapters"] is not None
                    else None
                )
                session = scheduler.open_session(
                    spec["patient_label"],
                    models[spec["lane_key"]],
                    detectors=adapters,
                    session_id=spec["session_id"],
                    expected_state_hash=spec["expected_state_hash"],
                )
                health = session.health
                conn.send(("ok", list(health.timeline) if health is not None else None))
            elif command == "tick":
                _, samples, now = message
                # Only a tick moves a health machine, and only for the
                # sessions it delivers to: the reply carries what each gained.
                timelines = (
                    [(sid, scheduler.session(sid).health.timeline) for sid in samples]
                    if scheduler.health is not None
                    else []
                )
                marks = [len(timeline) for _, timeline in timelines]
                start = time.perf_counter()
                results = scheduler.tick(samples, now=now)
                elapsed = time.perf_counter() - start
                events = {
                    sid: timeline[mark:]
                    for (sid, timeline), mark in zip(timelines, marks)
                    if len(timeline) > mark
                }
                ticks_seen += 1
                snapshot = None
                if snapshot_interval is not None and ticks_seen % snapshot_interval == 0:
                    # Tick boundaries are the only legal snapshot points;
                    # capture is pure reads, so a supervised-but-uncrashed
                    # run stays bitwise identical to an unsupervised one.
                    snapshot = capture_scheduler(
                        scheduler,
                        extra={"models": models, "detectors": detectors},
                        meta={
                            "ticks_seen": ticks_seen,
                            "shard_index": shard_index,
                            "lane_keys": sorted(models),
                            "detector_refs": sorted(detectors),
                        },
                    )
                conn.send(
                    (
                        "ok",
                        {
                            "ticks": results,
                            "health": events,
                            "elapsed": elapsed,
                            "obs": observer.drain() if observer is not None else None,
                            "snapshot": snapshot,
                        },
                    )
                )
            elif command == "restore":
                _, snap = message
                # Rebuild the whole shard from a supervisor-held snapshot.
                # No RNG re-derivation here: the snapshot graph already
                # holds each detector's *derived, advanced* worker stream —
                # re-deriving would rewind it and break resume parity.
                scheduler, extra = restore_scheduler(snap, obs=observer)
                extra = extra or {}
                models = extra.get("models") or {}
                detectors = extra.get("detectors") or {}
                ticks_seen = int(snap.meta.get("ticks_seen", 0))
                conn.send(("ok", None))
            elif command == "obs":
                conn.send(("ok", observer.drain() if observer is not None else None))
            elif command == "close":
                _, session_id = message
                scheduler.close_session(session_id)
                conn.send(("ok", None))
            else:  # pragma: no cover - protocol misuse guard
                raise ValueError(f"unknown shard command {command!r}")
        except Exception as exc:
            conn.send(
                (
                    "raise",
                    {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback_module.format_exc(),
                    },
                )
            )
    conn.close()


# ------------------------------------------------------------------ parent side
class _HealthMirror:
    """Parent-side copy of a worker session's health timeline.

    The ``open`` reply carries the ``opened`` event and each tick reply the
    events its tick added, so the copy is always complete, costs no round
    trip to read, and outlives the worker.
    """

    def __init__(self, timeline: List[HealthEvent]):
        self.timeline = timeline


class ShardSessionHandle:
    """Parent-side mirror of one session living in a shard worker.

    Duck-types the :class:`~repro.serving.session.PatientSession` surface
    the replayer and :class:`~repro.serving.attacker.OnlineAttacker`
    consume.  The delivered-sample ring is rebuilt from the ``SessionTick``
    stream the worker returns, so ``context_window`` matches the
    worker-side session exactly (served ticks push the post-ingress sample;
    a quarantine transition resets the ring).
    """

    def __init__(
        self,
        session_id: str,
        patient_label: str,
        predictor: GlucosePredictor,
        shard: int,
        lane_key: str,
        health: Optional[_HealthMirror] = None,
    ):
        self.session_id = str(session_id)
        self.patient_label = str(patient_label)
        self.predictor = predictor
        self.shard = int(shard)
        self.history = int(predictor.history)
        self.ticks = 0
        self.health = health
        self.last_prediction: Optional[float] = None
        self._lane_key = lane_key
        self._ring = SampleRing(self.history)

    @property
    def lane_key(self) -> str:
        """Hash of the model (weights + scaler) this session is served by."""
        return self._lane_key

    def window(self) -> Optional[np.ndarray]:
        """The last ``history`` delivered samples in time order, or None."""
        return self._ring.window()

    def context_window(self, incoming: np.ndarray) -> Optional[np.ndarray]:
        """The window the model would see if ``incoming`` were delivered now."""
        return self._ring.tail_with(incoming)

    # ------------------------------------------------------------- mirroring
    def _absorb(self, outcome: SessionTick, events: Optional[List[HealthEvent]]) -> None:
        """Mirror one worker tick: advance the clock, the ring and the timeline."""
        self.ticks = outcome.tick + 1
        if not outcome.dropped:
            self._ring.push(outcome.sample)
            if outcome.prediction is not None:
                self.last_prediction = outcome.prediction
        if events:
            self.health.timeline.extend(events)
            if any(event.state in _BLOCKED_STATES for event in events):
                # The worker quarantined (or failed) this session on this
                # tick and reset its ring and per-stream state; mirror that.
                self._ring.reset()
                self.last_prediction = None


class _Shard:
    """One worker process plus its parent-side bookkeeping."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "alive",
        "shipped_models",
        "shipped_detectors",
        "last_tick_latency",
        "obs_series",
        "snapshot",
        "journal",
        "restarts",
    )

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self.shipped_models: set = set()
        self.shipped_detectors: set = set()
        self.last_tick_latency: Optional[float] = None
        # Latest cumulative series snapshot shipped by the worker (each tick
        # reply replaces it; absorbed into the parent registry exactly once).
        self.obs_series: Optional[dict] = None
        # --- supervision state (populated only with a SupervisorConfig) ---
        # Latest worker-piggybacked shard snapshot, if any.
        self.snapshot: Optional[SchedulerSnapshot] = None
        # Acked state-mutating commands since that snapshot (or since birth
        # while none exists yet), replayed verbatim after a respawn.
        self.journal: List[tuple] = []
        # Respawns consumed against the max_restarts circuit breaker.
        self.restarts = 0


class ShardedScheduler:
    """Scale-out facade: the :class:`StreamScheduler` API over a process pool.

    Parameters
    ----------
    n_shards:
        Worker-process count.  ``1`` is a valid degenerate fabric (one
        worker, useful as the cheapest cross-process parity probe).
    health, ingress:
        Forwarded verbatim to every worker's private
        :class:`StreamScheduler`; see that class for semantics.  The
        configs must be picklable (the shipped dataclasses are).
    obs:
        Optional :class:`~repro.obs.Observer`.  When set, every worker owns
        its own Observer; tick replies ship each worker's cumulative series
        snapshot plus its new spans/events (stamped with the shard index on
        ingest).  Because every non-timing series is a per-session/per-lane
        event count and lanes are atomic placement units, the merged fabric
        snapshot (:meth:`obs_snapshot`) equals the single-process snapshot
        bitwise for any shard count — the metric half of the parity gate.
        ``None`` (the default) is bitwise inert.
    supervision:
        Optional :class:`SupervisorConfig`.  When set, dead workers are
        respawned (bounded exponential backoff, ``max_restarts`` circuit
        breaker) and rehydrated from their last piggybacked snapshot plus a
        journal replay — making the recovered run **bitwise identical** to
        one that never crashed (see the module-level *Crash recovery*
        section and ``docs/recovery.md``).  ``None`` (the default) keeps
        worker death terminal, exactly the pre-supervision behavior.

    Notes
    -----
    ``tick`` merges shard results **sorted by session id** — the returned
    mapping is identical (bitwise, including order) for any shard count.
    Without supervision, a worker that dies mid-fleet only degrades its own
    sessions: they receive ``dropped`` ticks with an ``error`` naming the
    dead shard, and the surviving shards' outputs are unchanged.  Use the
    facade as a context manager (or call :meth:`shutdown`) to reap the
    workers.
    """

    def __init__(
        self,
        n_shards: int = 2,
        health: Optional[HealthConfig] = None,
        ingress: Optional[IngressConfig] = None,
        obs: Optional[Observer] = None,
        supervision: Optional[SupervisorConfig] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.health = health
        self.obs = obs
        self.supervision = supervision
        self._obs_absorbed = False
        self._scheduler_kwargs = dict(health=health, ingress=ingress)
        self._shards = [_Shard(index, *self._spawn_worker(index)) for index in range(self.n_shards)]
        self._sessions: Dict[str, ShardSessionHandle] = {}
        self._lane_keys: set = set()
        # id(predictor) -> (predictor, state_hash): hash each object once.
        self._hash_by_predictor: Dict[int, Tuple[object, str]] = {}
        # id(detector) -> (detector, ref): shared-object registry for
        # persistent-id pickling; holding the object keeps ids stable.
        self._detector_refs: Dict[int, Tuple[object, int]] = {}
        self._next_detector_ref = 0
        self._closed = False

    def _spawn_worker(self, index: int):
        """Start one worker process; returns ``(process, parent_conn)``."""
        interval = self.supervision.snapshot_interval if self.supervision is not None else None
        args = (index, self._scheduler_kwargs, self.obs is not None, interval)
        return start_child(_worker_main, *args, name=f"repro-shard-{index}")

    # ------------------------------------------------------------------ plumbing
    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - best-effort reaping
        try:
            self.shutdown()
        except Exception:
            pass

    def shutdown(self) -> None:
        """Stop every worker process (idempotent).

        With obs enabled, each live worker's final telemetry is drained
        first and every worker's latest cumulative snapshot is folded into
        the parent registry exactly once, so post-shutdown
        ``obs.registry`` holds the whole-fabric series.

        A worker that ignores the shutdown command (wedged in native code,
        SIGSTOPped, …) cannot hang the parent: the ack wait is bounded, and
        :func:`~repro.utils.workers.reap` escalates ``join`` → ``terminate``
        → ``kill``, counting each escalation in
        ``recovery.forced_kills_total``.
        """
        if self._closed:
            return
        self._closed = True
        self._absorb_obs(refresh=True)
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.conn.send(("shutdown",))
                    # Bounded ack wait: a stuck worker must not hang us.
                    if shard.conn.poll(_STUCK_WORKER_TIMEOUT):
                        shard.conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.alive = False
        for shard in self._shards:
            if reap(shard.process, _STUCK_WORKER_TIMEOUT):
                logger.warning("shard %d worker ignored shutdown; forced it down", shard.index)
                if self.obs is not None:
                    self.obs.registry.inc("recovery.forced_kills_total", shard=shard.index)

    def kill_worker(self, index: int) -> None:
        """Chaos hook: SIGKILL one worker process, as a crash would.

        Used by the kill-mix chaos scenarios and the recovery smoke: the
        parent-side bookkeeping is deliberately *not* told — the next
        interaction with the shard discovers the death exactly the way a
        real crash surfaces (pipe EOF / broken send) and, under
        supervision, recovers it.
        """
        reap(self._shards[index].process, 0)

    def _mark_dead(self, shard: _Shard) -> None:
        if shard.alive:
            shard.alive = False
            logger.warning(
                "shard %d worker died; its sessions degrade to dropped ticks",
                shard.index,
            )
            if self.obs is not None:
                self.obs.registry.inc("serving.worker_deaths_total", shard=shard.index)
                self.obs.event("worker_death", shard_index=shard.index)
            try:
                shard.conn.close()
            except OSError:
                pass

    # ----------------------------------------------------------------- obs flow
    def _refresh_shard_obs(self, shard: _Shard) -> None:
        """Pull one live worker's latest telemetry (snapshot + new traces)."""
        if self.obs is None or not shard.alive:
            return
        try:
            # Bounded even without supervision: obs refresh runs at shutdown
            # too, and a wedged worker must not hang the parent there.
            payload = self._request(shard, ("obs",), timeout=_STUCK_WORKER_TIMEOUT)
        except (ShardDeadError, ShardWorkerError):
            return
        self._ingest_shard_obs(shard, payload)

    def _ingest_shard_obs(self, shard: _Shard, payload: Optional[dict]) -> None:
        """Store a worker's cumulative snapshot; append its drained traces."""
        if self.obs is None or payload is None:
            return
        shard.obs_series = payload["series"]
        self.obs.ingest_trace(payload["spans"], payload["events"], shard=shard.index)

    def _absorb_obs(self, refresh: bool) -> None:
        """Fold every worker's latest snapshot into the parent registry, once."""
        if self.obs is None or self._obs_absorbed:
            return
        if refresh:
            for shard in self._shards:
                self._refresh_shard_obs(shard)
        self._obs_absorbed = True
        for shard in self._shards:
            if shard.obs_series is not None:
                self.obs.registry.absorb(shard.obs_series)

    def obs_snapshot(self) -> Optional[Dict[str, dict]]:
        """Fabric-wide deterministic series snapshot (parent + all shards).

        Mid-run, live workers are polled for their freshest telemetry and
        the merge happens on copies (worker snapshots are cumulative, so
        absorbing them into the parent registry before shutdown would
        double-count on the next call).  After :meth:`shutdown` the parent
        registry already holds the folded total.
        """
        if self.obs is None:
            return None
        if self._obs_absorbed:
            return self.obs.registry.snapshot()
        for shard in self._shards:
            self._refresh_shard_obs(shard)
        snapshots = [self.obs.registry.snapshot()]
        snapshots.extend(
            shard.obs_series for shard in self._shards if shard.obs_series is not None
        )
        return MetricsRegistry.merge(snapshots)

    def _force_kill(self, shard: _Shard, reason: str) -> None:
        """SIGKILL an unresponsive worker; counted in recovery.forced_kills."""
        if reap(shard.process, 0):
            logger.warning("force-killed shard %d worker: %s", shard.index, reason)
            if self.obs is not None:
                self.obs.registry.inc("recovery.forced_kills_total", shard=shard.index)

    def _drain_channel(self, shard: _Shard) -> None:
        """Discard any buffered replies so the pipe is back in protocol sync.

        Called when a worker reported an exception: the worker itself stays
        one-reply-per-command, but draining defensively guarantees the next
        command cannot pair with a stale reply even if the failure left
        something buffered.
        """
        try:
            while shard.conn.poll(0):
                shard.conn.recv()
        except (EOFError, OSError):
            pass

    # ---------------------------------------------------------------- round trip
    def _send(self, shard: _Shard, message: tuple) -> bool:
        """Put one command on a shard's pipe, recovering a dead shard first.

        False when the shard is dead and stays dead.  A send that hits a
        broken pipe marks the shard dead, and collecting the reply reports
        the death.
        """
        if not shard.alive and not self._recover_shard(shard):
            return False
        try:
            shard.conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            self._mark_dead(shard)
        return True

    def _reply(self, shard: _Shard, kind: str, timeout=_DEFAULT_TIMEOUT):
        """Wait for the reply to one sent command and return its payload.

        ``timeout`` defaults to the supervisor's ``request_timeout`` (block
        forever without supervision); a worker that blows the budget is
        presumed hung and force-killed so recovery sees a plain death.
        Raises :class:`ShardDeadError` when the worker is dead, and
        :class:`ShardWorkerError`, after draining the pipe, when it raised.
        """
        if timeout is _DEFAULT_TIMEOUT:
            timeout = (
                self.supervision.request_timeout if self.supervision is not None else None
            )
        if not shard.alive:
            raise ShardDeadError(f"shard {shard.index} worker died during {kind!r}")
        try:
            if timeout is not None and not shard.conn.poll(timeout):
                self._force_kill(shard, f"no reply to {kind!r} within {timeout}s")
                self._mark_dead(shard)
                raise ShardDeadError(
                    f"shard {shard.index} worker timed out during {kind!r}"
                )
            status, payload = shard.conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(shard)
            raise ShardDeadError(
                f"shard {shard.index} worker died during {kind!r}"
            ) from exc
        if status == "raise":
            self._drain_channel(shard)
            raise ShardWorkerError(
                shard.index, payload["type"], payload["message"], payload["traceback"]
            )
        return payload

    def _collect(self, shard: _Shard, message: tuple, timeout=_DEFAULT_TIMEOUT, replay=False):
        """Collect and record the reply to a sent command.

        Under supervision a dead worker is recovered and the command re-sent
        once.  The dead worker never acknowledged it, so it is in neither
        the snapshot nor the journal, and the fresh worker computes it from
        exactly the state the dead one had: the recovered reply is bitwise
        the one the dead worker would have sent.  ``replay`` marks a command
        re-sent by recovery itself, which is not recovered again.

        A worker that raised may have changed part of its state first (a
        tick can count down one session's backoff before another session's
        sample fails), so under supervision a live journaled command that
        raised is journaled too, marked to raise the same error on replay.
        """
        try:
            try:
                payload = self._reply(shard, message[0], timeout)
            except ShardDeadError:
                if replay or not self._recover_shard(shard):
                    raise
                self._send(shard, message)
                payload = self._reply(shard, message[0], timeout)
        except ShardWorkerError as error:
            if self.supervision is not None and message[0] in _JOURNALED_COMMANDS and not replay:
                shard.journal.append((_RAISED, message, error.exc_type, error.worker_message))
            raise
        self._record(shard, message, payload, replay)
        return payload

    def _request(self, shard: _Shard, message: tuple, timeout=_DEFAULT_TIMEOUT, replay=False):
        """One command round trip: send, then collect and record the reply."""
        self._send(shard, message)
        return self._collect(shard, message, timeout, replay)

    def _record(self, shard: _Shard, message: tuple, payload, replay: bool) -> None:
        """Book an acknowledged command: shipped sets, snapshot and journal.

        A tick also refreshes the worker's cumulative obs series; a live
        tick records its latency and drained traces too, while a replayed
        one drops them (they were delivered before the crash).  A tick reply
        carrying a snapshot includes that tick, so the snapshot supersedes
        the journal instead of the tick joining it.
        """
        kind = message[0]
        if kind == "model":
            shard.shipped_models.add(message[1])
        elif kind == "detector":
            shard.shipped_detectors.add(message[1])
        elif kind == "restore":
            snapshot = message[1]
            shard.shipped_models = set(snapshot.meta.get("lane_keys", snapshot.models))
            shard.shipped_detectors = set(snapshot.meta.get("detector_refs", ()))
        elif kind == "tick":
            if not replay:
                shard.last_tick_latency = payload["elapsed"]
                self._ingest_shard_obs(shard, payload["obs"])
            elif payload["obs"] is not None:
                shard.obs_series = payload["obs"]["series"]
        if self.supervision is None or kind not in _JOURNALED_COMMANDS:
            return
        snapshot = payload["snapshot"] if kind == "tick" else None
        if snapshot is None:
            shard.journal.append(message)
            return
        shard.snapshot, shard.journal = snapshot, []
        if self.obs is not None and not replay:
            self.obs.registry.inc("recovery.snapshots_received_total", shard=shard.index)

    # ----------------------------------------------------------------- recovery
    def _recover_shard(self, shard: _Shard) -> bool:
        """Respawn a dead shard and rehydrate it; False when given up.

        Bounded exponential backoff between attempts; the ``max_restarts``
        circuit breaker converts a crash-looping shard back into the
        terminal dropped-ticks behavior.  Rehydration resets the shipped
        sets, restores the last piggybacked snapshot if there is one, and
        replays the journal — which, before the first snapshot, reaches back
        to worker birth.  Either way the resume is bitwise.
        """
        if self.supervision is None or self._closed:
            return False
        supervision = self.supervision
        while True:
            if shard.restarts >= supervision.max_restarts:
                logger.error(
                    "shard %d exhausted %d restarts; circuit breaker open",
                    shard.index,
                    supervision.max_restarts,
                )
                return False
            shard.restarts += 1
            # Bury the old worker; its pipe closed when it was marked dead.
            reap(shard.process, 0)
            backoff = min(
                supervision.restart_backoff * _BACKOFF_FACTOR ** (shard.restarts - 1),
                _MAX_BACKOFF,
            )
            if backoff > 0:
                time.sleep(backoff)
            shard.process, shard.conn = self._spawn_worker(shard.index)
            shard.alive = True
            shard.last_tick_latency = None
            mode = "snapshot" if shard.snapshot is not None else "journal"
            logger.warning(
                "shard %d worker respawned (restart %d/%d, backoff %.3fs, mode=%s)",
                shard.index,
                shard.restarts,
                supervision.max_restarts,
                backoff,
                mode,
            )
            if self.obs is not None:
                self.obs.registry.inc("recovery.respawns_total", shard=shard.index)
                self.obs.event(
                    "worker_respawned",
                    shard_index=shard.index,
                    restarts=shard.restarts,
                    backoff_seconds=backoff,
                    mode=mode,
                    journal_entries=len(shard.journal),
                )
            shard.shipped_models = set()
            shard.shipped_detectors = set()
            try:
                if shard.snapshot is not None:
                    # Restore and replay block without a request timeout: a
                    # large snapshot may legitimately take longer than one
                    # tick's reply budget.
                    message = ("restore", shard.snapshot)
                    self._request(shard, message, timeout=None, replay=True)
                self._replay_journal(shard)
            except ShardDeadError:
                # The respawn died during rehydration; burn another restart
                # (or trip the breaker at the top of the loop).
                continue
            except ShardWorkerError as exc:
                # Deterministic replay raised inside the fresh worker —
                # recovery cannot converge, so stop burning restarts.
                logger.error("shard %d recovery replay failed: %s", shard.index, exc)
                self._mark_dead(shard)
                return False
            return True

    def _replay_journal(self, shard: _Shard) -> None:
        """Re-send every journaled command, in order, to a rehydrated worker.

        Replayed ticks re-advance detector RNG streams and inversion states
        to their exact pre-crash positions.  Recording each reply rebuilds
        the journal as it goes, so a replayed tick that crosses the snapshot
        cadence truncates it just as it would have live; a worker that dies
        part-way leaves the commands it never acknowledged for the next
        attempt.  An entry journaled as raised must raise the same error
        again, and nothing else is accepted.
        """
        pending, shard.journal = shard.journal, []
        replayed = 0
        try:
            for entry in pending:
                if entry[0] == _RAISED:
                    self._replay_raised(shard, entry)
                else:
                    self._request(shard, entry, timeout=None, replay=True)
                replayed += 1
                if self.obs is not None:
                    self.obs.registry.inc(
                        "recovery.journal_replayed_total", shard=shard.index
                    )
        finally:
            shard.journal.extend(pending[replayed:])

    def _replay_raised(self, shard: _Shard, entry: tuple) -> None:
        """Re-send a command the worker raised on; it must raise the same error."""
        _, message, exc_type, worker_message = entry
        self._send(shard, message)
        try:
            self._reply(shard, message[0], timeout=None)
        except ShardWorkerError as error:
            if (error.exc_type, error.worker_message) != (exc_type, worker_message):
                raise
            shard.journal.append(entry)
            return
        raise ShardWorkerError(
            shard.index, exc_type, f"replayed command did not raise again: {worker_message}"
        )

    # ------------------------------------------------------------------ sessions
    def shard_for(self, lane_key: str, session_id: str) -> int:
        """Deterministic shard assignment, independent of open order.

        Placement is **lane-grained**: every session served by the same
        model (equal ``state_hash``) lands on the same worker.  Splitting a
        lane would change the stacked step's batch composition, and BLAS
        kernels round differently per batch shape — a 1-ulp divergence the
        bitwise parity gate rejects.  Lanes are the atomic placement unit;
        parallelism comes from lanes spreading across workers (the
        personalized-zoo serving shape), not from splitting one lane.
        """
        del session_id  # placement is content-addressed by lane only
        return int(hash_string(f"lane:{lane_key}") % self.n_shards)

    def _lane_key_for(self, predictor: GlucosePredictor) -> str:
        memo = self._hash_by_predictor.get(id(predictor))
        if memo is None or memo[0] is not predictor:
            memo = self._hash_by_predictor[id(predictor)] = (
                predictor,
                predictor.state_hash(),
            )
        return memo[1]

    def _ship_detectors(self, shard: _Shard, detectors) -> None:
        for adapter in detectors.values():
            detector = getattr(adapter, "detector", None)
            if detector is None:
                continue
            entry = self._detector_refs.get(id(detector))
            if entry is None or entry[0] is not detector:
                entry = self._detector_refs[id(detector)] = (
                    detector,
                    self._next_detector_ref,
                )
                self._next_detector_ref += 1
            ref = entry[1]
            if ref not in shard.shipped_detectors:
                payload = pickle.dumps(detector, protocol=_PICKLE_PROTOCOL)
                self._request(shard, ("detector", ref, payload))

    def open_session(
        self,
        patient_label: str,
        predictor: GlucosePredictor,
        detectors=None,
        session_id: Optional[str] = None,
        expected_state_hash: Optional[str] = None,
    ) -> ShardSessionHandle:
        """Open a session on its deterministic shard; returns a parent handle.

        Semantics mirror :meth:`StreamScheduler.open_session`: checkpoint
        validation happens parent-side (fail fast, identical exceptions)
        *and* worker-side on rehydration; sessions with equal lane hashes
        landing on the same worker share that worker's lane.
        """
        session_id = str(session_id if session_id is not None else patient_label)
        if session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} already exists")
        if expected_state_hash is not None:
            lane_key = validate_checkpoint(predictor, expected_state_hash)
        else:
            lane_key = self._lane_key_for(predictor)
        shard = self._shards[self.shard_for(lane_key, session_id)]
        if lane_key not in shard.shipped_models:
            payload = pickle.dumps(predictor, protocol=_PICKLE_PROTOCOL)
            self._request(shard, ("model", lane_key, payload))
        adapters_payload = None
        if detectors:
            self._ship_detectors(shard, detectors)
            adapters_payload = dumps_with_refs(dict(detectors), self._detector_refs)
        spec = {
            "session_id": session_id,
            "patient_label": str(patient_label),
            "lane_key": lane_key,
            "adapters": adapters_payload,
            "expected_state_hash": expected_state_hash,
        }
        opened = self._request(shard, ("open", spec))
        handle = ShardSessionHandle(
            session_id,
            patient_label,
            predictor,
            shard.index,
            lane_key,
            health=_HealthMirror(opened) if opened is not None else None,
        )
        self._sessions[session_id] = handle
        self._lane_keys.add(lane_key)
        return handle

    def close_session(self, session_id: str) -> None:
        """Tear a session down on its shard; a dead shard holds nothing to close."""
        handle = self._sessions.pop(str(session_id))
        try:
            self._request(self._shards[handle.shard], ("close", handle.session_id))
        except ShardDeadError:
            pass

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def n_lanes(self) -> int:
        """Distinct models ever served (content-addressed, fabric-wide)."""
        return len(self._lane_keys)

    def session(self, session_id: str) -> ShardSessionHandle:
        return self._sessions[str(session_id)]

    # ------------------------------------------------------------------- ticking
    @property
    def last_tick_latencies(self) -> Dict[int, float]:
        """Worker-measured seconds each live shard spent in its last tick."""
        return {
            shard.index: shard.last_tick_latency
            for shard in self._shards
            if shard.last_tick_latency is not None
        }

    def _dead_shard_tick(self, handle: ShardSessionHandle, sample) -> SessionTick:
        if self.obs is not None:
            self.obs.registry.inc(
                "serving.ticks_dropped_total", lane=handle._lane_key, reason="dead_shard"
            )
        outcome = SessionTick(
            session_id=handle.session_id,
            tick=handle.ticks,
            sample=np.array(sample, dtype=np.float64, copy=True),
            prediction=None,
            dropped=True,
            error=f"shard {handle.shard} worker died",
        )
        handle.ticks += 1
        return outcome

    def tick(
        self, samples: Mapping[str, np.ndarray], now: Optional[int] = None
    ) -> Dict[str, SessionTick]:
        """Deliver one tick fleet-wide; see :meth:`StreamScheduler.tick`.

        Samples are routed to the owning shards, the workers step their
        schedulers concurrently, and the merged outcomes come back **sorted
        by session id** — deterministic and independent of shard layout.
        Sessions on a dead shard receive ``dropped`` outcomes naming it;
        everyone else is served normally.  ``now`` (the caller's device-clock
        slot) is forwarded verbatim to every worker; like the single-process
        scheduler it is purely observational.  When workers raise, every
        engaged shard's reply is still collected, then the first failing
        shard's :class:`ShardWorkerError` is raised.
        """
        per_shard: Dict[int, Dict[str, np.ndarray]] = {}
        for session_id, sample in samples.items():
            handle = self._sessions[str(session_id)]
            per_shard.setdefault(handle.shard, {})[handle.session_id] = sample
        # Send to every engaged shard first so the workers compute
        # concurrently, then collect each reply in turn.
        engaged: List[Tuple[_Shard, tuple]] = []
        dead: Dict[str, np.ndarray] = {}
        for shard_index, shard_samples in per_shard.items():
            shard = self._shards[shard_index]
            message = ("tick", shard_samples, now)
            if self._send(shard, message):
                engaged.append((shard, message))
            else:
                dead.update(shard_samples)
        merged: Dict[str, SessionTick] = {}
        failures: List[ShardWorkerError] = []
        for shard, message in engaged:
            try:
                payload = self._collect(shard, message)
            except ShardDeadError:
                dead.update(message[1])
                continue
            except ShardWorkerError as exc:
                # Collecting every engaged shard keeps each pipe in protocol
                # sync; the first failing shard's error wins.
                failures.append(exc)
                continue
            events = payload["health"]
            for session_id, outcome in payload["ticks"].items():
                self._sessions[session_id]._absorb(outcome, events.get(session_id))
                merged[session_id] = outcome
        for session_id, sample in dead.items():
            merged[session_id] = self._dead_shard_tick(self._sessions[session_id], sample)
        if failures:
            raise failures[0]
        return dict(sorted(merged.items()))
