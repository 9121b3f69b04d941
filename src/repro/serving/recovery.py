"""Crash recovery for the serving fabric: deterministic scheduler snapshots.

The repo's signature discipline is bitwise parity between every fast path and
its reference twin.  This module extends that contract across process death:
**a recovered run is bit-for-bit identical to a run that never crashed**.

Three layers:

``capture_scheduler`` / ``restore_scheduler``
    Snapshot a live :class:`~repro.serving.scheduler.StreamScheduler` into a
    :class:`SchedulerSnapshot` and rebuild an equivalent scheduler from it.
    The snapshot captures the *complete* deterministic state — lane slot
    allocators, sample rings and recurrent stream states
    (``BiLSTMStreamState`` projection rings), streaming-detector adapter
    state (tick counters, MAD-GAN ``InversionState``),
    ``SessionHealth`` machines with their backoff depth, and every
    component's ``RandomState`` position (numpy ``Generator`` objects pickle
    their exact bit-stream position).  Model weights are content-addressed:
    each lane's predictor is serialized **once** under its ``state_hash``
    lane key and every session that shares the lane references the same
    payload — sessions never duplicate weights.  Restore re-validates each
    rehydrated checkpoint against its lane key
    (:func:`repro.serving.health.validate_checkpoint`), so a corrupted model
    payload is rejected rather than silently served.

``SchedulerCheckpointer``
    Durable snapshot files: a versioned, magic-tagged header with a SHA-256
    body digest, written to a temporary file and atomically renamed into
    place (a crash mid-write never leaves a half-snapshot under the real
    name).  ``load`` detects truncation and corruption and raises
    :class:`SnapshotError` instead of returning garbage.

Aliasing and tokens
    The whole mutable state is serialized as **one** pickle graph, so object
    aliasing survives: two sessions sharing one detector (and therefore one
    RNG stream) come back still sharing it, which is what keeps the
    scheduler's ``id()``-based detector batching and the detector's single
    RNG draw order bitwise stable after restore.  Objects that must *not*
    travel — the scheduler itself (sessions hold a back-reference), the
    :class:`~repro.obs.trace.Observer`, and each lane predictor — are
    replaced by persistent-id tokens and rewired to the restored scheduler's
    own instances on load.  The same token mechanism is what the shard layer
    uses to ship detectors by reference (:mod:`repro.serving.shard` imports
    :func:`dumps_with_refs` / :func:`loads_with_refs` from here).

Snapshots are taken at tick boundaries only; mid-tick transients (the
detector groups and the in-flight admission lists) never cross a snapshot.

Version 2 snapshots still restore: :func:`restore_scheduler` moves their
per-session and per-adapter sample rings into the lanes (``docs/recovery.md``).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.serving.health import validate_checkpoint
from repro.serving.scheduler import StreamScheduler

#: Pickle protocol for snapshot payloads (shared with the shard pipe).
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Current snapshot schema version; bumped on incompatible layout changes.
#: Version 2: ``BiLSTMStreamState`` keeps one stacked two-direction ring and
#: the LSTM-VAE / HMM adapters carry no per-stream scoring state.
#: Version 3: each lane keeps its sessions' raw samples in one array; neither
#: sessions nor detector adapters hold a sample ring.
SNAPSHOT_VERSION = 3

#: Versions :func:`read_snapshot` and :func:`restore_scheduler` accept.
READABLE_VERSIONS = (2, SNAPSHOT_VERSION)

#: Magic prefix of a checkpoint file (8 bytes, includes the format revision).
SNAPSHOT_MAGIC = b"RPROSNP1"

#: Fixed-size file header: magic + u32 version + u64 body length + SHA-256.
_HEADER = struct.Struct("<8sIQ32s")


class SnapshotError(RuntimeError):
    """A snapshot could not be captured, validated, or restored."""


# --------------------------------------------------------------------- tokens
def dumps_with_refs(obj: Any, ref_by_id: Dict[int, Tuple[object, Any]]) -> bytes:
    """Pickle ``obj`` replacing registered objects with persistent-id tokens.

    ``ref_by_id`` maps ``id(candidate) -> (candidate, token)``; any object in
    the graph whose identity matches is emitted as its token instead of by
    value.  The identity check guards against ``id`` reuse after GC.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=PICKLE_PROTOCOL)

    def persistent_id(candidate):
        entry = ref_by_id.get(id(candidate))
        if entry is not None and entry[0] is candidate:
            return entry[1]
        return None

    pickler.persistent_id = persistent_id
    pickler.dump(obj)
    return buffer.getvalue()


def loads_with_refs(data: bytes, registry: Dict[Any, object]) -> Any:
    """Unpickle ``data`` resolving persistent-id tokens through ``registry``."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = registry.__getitem__
    return unpickler.load()


# ------------------------------------------------------------------- snapshot
@dataclass
class SchedulerSnapshot:
    """A complete, self-contained scheduler state at one tick boundary.

    Attributes
    ----------
    version:
        Schema version (:data:`SNAPSHOT_VERSION`); restore rejects others.
    config:
        The ``StreamScheduler`` constructor kwargs (health and ingress
        configs) — frozen dataclasses, included by value.
    models:
        Content-addressed weights: ``lane_key (state_hash) -> pickled
        predictor``, one payload per lane regardless of session count.
    state:
        One pickle graph of ``{"sessions", "lanes", "extra"}`` with
        scheduler / observer / predictor references tokenized out.
    obs_series:
        Cumulative :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of the
        scheduler's observer at capture time, or None when unobserved.
    meta:
        Caller bookkeeping carried verbatim (the shard layer stores its tick
        counter and shipped-registry keys here so the supervisor can resync
        without unpickling ``state``).
    """

    version: int
    config: Dict[str, Any]
    models: Dict[str, bytes]
    state: bytes
    obs_series: Optional[Dict[str, dict]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def n_sessions_hint(self) -> int:
        """Best-effort session count from ``meta`` (0 when not recorded)."""
        return int(self.meta.get("n_sessions", 0))


def capture_scheduler(
    scheduler: StreamScheduler,
    extra: Optional[Dict[str, Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> SchedulerSnapshot:
    """Snapshot ``scheduler`` (and optional ``extra`` state) at a tick boundary.

    ``extra`` is woven into the *same* pickle graph as the sessions, so any
    aliasing between the two survives restore — the shard worker passes its
    ``models`` / ``detectors`` registries here and gets back registries whose
    entries are identical (``is``) to the objects inside the restored
    sessions.  An ``extra["models"]`` mapping of ``lane_key -> predictor`` is
    additionally content-addressed like lane predictors (covers lanes that
    are currently empty but still resident in a worker registry).
    """
    ref_by_id: Dict[int, Tuple[object, Any]] = {}

    def register(obj: object, token: Any) -> None:
        ref_by_id[id(obj)] = (obj, token)

    register(scheduler, "scheduler")
    if scheduler.obs is not None:
        register(scheduler.obs, "obs")

    models: Dict[str, bytes] = {}

    def register_model(lane_key: str, predictor: object) -> None:
        if id(predictor) in ref_by_id:
            return
        if lane_key not in models:
            models[lane_key] = pickle.dumps(predictor, protocol=PICKLE_PROTOCOL)
        register(predictor, ("model", lane_key))

    for lane_key, lane in scheduler._lanes.items():
        register_model(lane_key, lane.predictor)
    for session in scheduler._sessions.values():
        # A session opened with its own (hash-equal) predictor object still
        # serializes by lane reference: weights are stored once per lane.
        register_model(session._lane_key, session.predictor)
    if extra is not None:
        for lane_key, predictor in extra.get("models", {}).items():
            register_model(lane_key, predictor)

    state = dumps_with_refs(
        {
            "sessions": scheduler._sessions,
            "lanes": scheduler._lanes,
            "extra": extra,
        },
        ref_by_id,
    )
    snapshot_meta = {"n_sessions": len(scheduler._sessions)}
    if meta:
        snapshot_meta.update(meta)
    return SchedulerSnapshot(
        version=SNAPSHOT_VERSION,
        config=dict(health=scheduler.health, ingress=scheduler.ingress),
        models=models,
        state=state,
        obs_series=(
            scheduler.obs.registry.snapshot() if scheduler.obs is not None else None
        ),
        meta=snapshot_meta,
    )


def restore_scheduler(
    snapshot: SchedulerSnapshot, obs=None
) -> Tuple[StreamScheduler, Optional[Dict[str, Any]]]:
    """Rebuild a scheduler from ``snapshot``; returns ``(scheduler, extra)``.

    The restored scheduler's subsequent ticks are bitwise equal to the
    uninterrupted original's (pickle round-trips preserve float64 bits and
    numpy ``Generator`` positions exactly).  Every model payload is
    re-validated against its content-address before any session touches it;
    a weight payload that no longer hashes to its lane key (or carries
    non-finite values) raises :class:`~repro.serving.health.CheckpointError`.

    ``obs`` becomes the restored scheduler's observer.  When given, the
    snapshot's cumulative metric series is absorbed into it so counters
    continue from their pre-crash values instead of restarting at zero.
    """
    if snapshot.version not in READABLE_VERSIONS:
        raise SnapshotError(
            f"snapshot version {snapshot.version} is not supported "
            f"(expected one of {READABLE_VERSIONS})"
        )
    # Read only the options the scheduler takes: earlier snapshots also
    # record a validate_checkpoints flag and v2 ones two engine switches,
    # all since retired, and those keys are ignored.  Every model payload
    # is validated below whatever the flag said.
    config = snapshot.config
    scheduler = StreamScheduler(
        health=config.get("health"), ingress=config.get("ingress"), obs=obs
    )
    registry: Dict[Any, object] = {"scheduler": scheduler, "obs": obs}
    for lane_key, payload in snapshot.models.items():
        try:
            predictor = pickle.loads(payload)
        except Exception as exc:
            raise SnapshotError(
                f"model payload for lane {lane_key!r} failed to deserialize: {exc}"
            ) from exc
        validate_checkpoint(predictor, expected_hash=lane_key)
        registry[("model", lane_key)] = predictor
    try:
        state = loads_with_refs(snapshot.state, registry)
    except KeyError as exc:
        raise SnapshotError(f"snapshot references unknown token {exc}") from exc
    scheduler._sessions = state["sessions"]
    scheduler._lanes = state["lanes"]
    if snapshot.version == 2:
        _migrate_v2_rings(scheduler)
    if obs is not None and snapshot.obs_series is not None:
        obs.registry.absorb(snapshot.obs_series)
    return scheduler, state["extra"]


def _migrate_v2_rings(scheduler: StreamScheduler) -> None:
    """Move a v2 state's sample rings into its lanes' ``samples`` arrays.

    A v2 session kept its history in a ``SampleRing`` (``_ring``), and so
    did every window-unit adapter, in lockstep with the lane slot.  Each
    session's samples go to the positions ``lane.state`` expects once every
    ring is checked against the slot's fill count; the rings are dropped.
    """
    for lane in scheduler._lanes.values():
        lane.samples = np.zeros(lane.state.ring.shape[:2] + (lane.predictor.n_features,))
    for session in scheduler._sessions.values():
        lane, slot = scheduler._lanes[session._lane_key], session._slot
        count, capacity = int(lane.state.count[slot]), lane.state.capacity
        ring = session.__dict__.pop("_ring")
        adapters = [(a.unit, a.__dict__.pop("_ring", None)) for a in session.detectors.values()]
        delivered = ring._ordered(count) if count else None
        for other in [ring] + [window for unit, window in adapters if unit == "window"]:
            if (other.capacity, other.count) != (capacity, count) or (
                count and not np.array_equal(other._ordered(count), delivered)
            ):
                raise SnapshotError(
                    f"session {session.session_id!r}: a v2 sample ring ({other.count} of "
                    f"{other.capacity} samples) disagrees with its lane slot ({count} of {capacity})"
                )
        if count:
            positions = (lane.state.cursor[slot] - count + np.arange(count)) % capacity
            lane.samples[slot, positions] = delivered


# ---------------------------------------------------------------- checkpointer
def write_snapshot(snapshot: SchedulerSnapshot, path) -> Path:
    """Serialize ``snapshot`` to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    body = pickle.dumps(snapshot, protocol=PICKLE_PROTOCOL)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, snapshot.version, len(body), hashlib.sha256(body).digest()
    )
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_snapshot(path) -> SchedulerSnapshot:
    """Load a snapshot file, rejecting truncation and corruption.

    Raises :class:`SnapshotError` on a bad magic, unsupported version, short
    body (truncated write), or SHA-256 mismatch (bit rot).  The digest is
    not a signature: whoever can write the file can recompute it, and the
    body is a pickle, so read snapshots only from trusted storage.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SnapshotError(f"{path}: truncated snapshot header")
        magic, version, body_len, digest = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path}: not a scheduler snapshot (bad magic)")
        if version not in READABLE_VERSIONS:
            raise SnapshotError(
                f"{path}: snapshot version {version} is not supported "
                f"(expected one of {READABLE_VERSIONS})"
            )
        body = handle.read(body_len + 1)
    if len(body) < body_len:
        raise SnapshotError(
            f"{path}: truncated snapshot body ({len(body)} of {body_len} bytes)"
        )
    if len(body) > body_len:
        raise SnapshotError(f"{path}: trailing bytes after snapshot body")
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path}: snapshot checksum mismatch (corrupted)")
    snapshot = pickle.loads(body)
    if not isinstance(snapshot, SchedulerSnapshot):
        raise SnapshotError(f"{path}: payload is not a SchedulerSnapshot")
    return snapshot


class SchedulerCheckpointer:
    """Rotating, durable snapshot files for one scheduler.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on first save.
    basename:
        File stem; files are named ``{basename}-{seq:08d}.snap`` with a
        monotonically increasing sequence number.
    keep:
        How many most-recent checkpoints to retain (older ones are pruned
        after each successful save; at least 1).
    """

    SUFFIX = ".snap"

    def __init__(self, directory, basename: str = "scheduler", keep: int = 2):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.basename = str(basename)
        self.keep = int(keep)

    # ------------------------------------------------------------------ paths
    def _paths(self):
        if not self.directory.is_dir():
            return []
        prefix = f"{self.basename}-"
        return sorted(
            entry
            for entry in self.directory.iterdir()
            if entry.name.startswith(prefix) and entry.name.endswith(self.SUFFIX)
        )

    def latest(self) -> Optional[Path]:
        """Path of the newest checkpoint, or None when none exist."""
        paths = self._paths()
        return paths[-1] if paths else None

    # ------------------------------------------------------------------- save
    def save(self, snapshot: SchedulerSnapshot) -> Path:
        """Write ``snapshot`` as the next checkpoint in the rotation."""
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = self._paths()
        if existing:
            last = existing[-1].name
            sequence = int(last[len(self.basename) + 1 : -len(self.SUFFIX)]) + 1
        else:
            sequence = 0
        path = self.directory / f"{self.basename}-{sequence:08d}{self.SUFFIX}"
        write_snapshot(snapshot, path)
        for stale in self._paths()[: -self.keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort pruning
                pass
        return path

    # ------------------------------------------------------------------- load
    def load(self, path=None) -> SchedulerSnapshot:
        """Load ``path`` (default: the newest checkpoint) with full validation."""
        if path is None:
            path = self.latest()
            if path is None:
                raise SnapshotError(
                    f"no {self.basename!r} checkpoints under {self.directory}"
                )
        return read_snapshot(path)


__all__ = [
    "PICKLE_PROTOCOL",
    "READABLE_VERSIONS",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SchedulerCheckpointer",
    "SchedulerSnapshot",
    "SnapshotError",
    "capture_scheduler",
    "dumps_with_refs",
    "loads_with_refs",
    "read_snapshot",
    "restore_scheduler",
    "write_snapshot",
]
