"""Streaming online-inference subsystem.

The paper's threat model is online — a compromised CGM→pump link tampers with
readings as they stream in, and detectors must flag the trace in real time —
while the rest of this repository evaluates offline on pre-materialized
windows.  This package is the serving layer that closes the gap:

``session``
    :class:`PatientSession` — one live patient stream: a slot in its lane,
    which keeps the stream's history and recurrent state; O(1) memory per
    tick.
``scheduler``
    :class:`StreamScheduler` — coalesces every session sharing a model
    (grouped by weight+scaler hash, not object identity) into ONE stacked
    incremental step per tick; scales to thousands of concurrent sessions.
``attacker``
    :class:`OnlineAttacker` — a mid-stream man-in-the-middle that runs the
    URET evasion engine on the live context window each tick and tampers the
    sample in flight.
``replay``
    :class:`StreamReplayer` — drives sessions from physiology-simulator
    traces, with optional attack episodes and streaming detectors, and
    reports the paper's trace-level TP/FN breakdown plus per-episode
    detection latency.
``faults``
    :class:`FaultInjector` — seeded, reproducible *benign* sensor faults
    (bias, stuck-at, spikes, drift, dropout bursts, malformed samples) a
    detector must NOT confuse with tampering; composes with device clocks
    and session churn.
``health``
    Graceful degradation: ingress validation, the per-session
    :class:`SessionHealth` state machine (healthy → degraded → quarantined
    → recovered), and checkpoint validation gates.  See
    ``docs/robustness.md``.
``shard``
    :class:`ShardedScheduler` — the multiprocess scale-out facade: lanes
    partitioned across worker processes behind the same scheduler API,
    with deterministic session-id-ordered merges and bitwise parity to the
    single-process path (``scripts/check_parity.py`` gates it).  See
    ``docs/serving.md``.
``recovery``
    Crash recovery: :meth:`StreamScheduler.snapshot` / ``restore`` capture
    and rebuild the complete deterministic scheduler state (resume is
    **bitwise** vs the uninterrupted run), :class:`SchedulerCheckpointer`
    persists versioned + checksummed snapshot files, and
    :class:`SupervisorConfig` arms the shard fabric's self-healing
    supervisor (respawn + snapshot restore + journal replay).  See
    ``docs/recovery.md``.

Every streamed prediction is pinned to the offline fast path
(:meth:`GlucosePredictor.predict`) within 1e-10, and streaming detector
verdicts are identical to the offline ``predict`` on the same windows; the
pins live in ``tests/test_serving.py`` and ``scripts/check_parity.py``.
"""

from repro.serving.session import PatientSession, SessionTick
from repro.serving.scheduler import SchedulerTickError, StreamScheduler
from repro.serving.attacker import AttackEpisode, OnlineAttacker, TamperRecord
from repro.serving.faults import (
    DeviceFaultPlan,
    FaultEvent,
    FaultInjector,
    FaultKind,
    SensorFaultConfig,
)
from repro.serving.health import (
    CheckpointError,
    HealthConfig,
    HealthEvent,
    HealthState,
    IngressConfig,
    IngressPolicy,
    SessionHealth,
    validate_checkpoint,
)
from repro.serving.replay import (
    DeviceClockConfig,
    SessionChurnConfig,
    EpisodeOutcome,
    ReplayReport,
    ReplaySessionTrace,
    StreamReplayer,
    replay_fingerprint,
    tick_fingerprint,
)
from repro.serving.recovery import (
    SchedulerCheckpointer,
    SchedulerSnapshot,
    SnapshotError,
)
from repro.serving.shard import (
    ShardDeadError,
    ShardSessionHandle,
    ShardWorkerError,
    ShardedScheduler,
    SupervisorConfig,
)

__all__ = [
    "PatientSession",
    "SessionTick",
    "StreamScheduler",
    "SchedulerTickError",
    "AttackEpisode",
    "OnlineAttacker",
    "TamperRecord",
    "DeviceFaultPlan",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "SensorFaultConfig",
    "CheckpointError",
    "HealthConfig",
    "HealthEvent",
    "HealthState",
    "IngressConfig",
    "IngressPolicy",
    "SessionHealth",
    "validate_checkpoint",
    "DeviceClockConfig",
    "SessionChurnConfig",
    "EpisodeOutcome",
    "ReplayReport",
    "ReplaySessionTrace",
    "StreamReplayer",
    "replay_fingerprint",
    "tick_fingerprint",
    "SchedulerCheckpointer",
    "SchedulerSnapshot",
    "SnapshotError",
    "ShardDeadError",
    "ShardSessionHandle",
    "ShardWorkerError",
    "ShardedScheduler",
    "SupervisorConfig",
]
