"""Worker supervision: deterministic respawn, timeouts, and shutdown escalation.

Pins the self-healing half of the recovery contract (``docs/recovery.md``):

* arming :class:`SupervisorConfig` without any crash is inert — supervised
  serving is bitwise identical to the unsupervised fabric,
* a SIGKILLed worker is respawned and rehydrated (snapshot + journal replay,
  or journal-from-birth before the first snapshot) with **bitwise** resume —
  the recovered run equals a run that never crashed,
* the journal stays bounded by the snapshot cadence (and empty without
  supervision), and :class:`SupervisorConfig` rejects invalid policies —
  snapshots cannot be disabled,
* the ``max_restarts`` circuit breaker turns a crash-looping shard back into
  the old terminal dropped-tick behavior,
* a hung worker trips ``request_timeout``: it is force-killed
  (``recovery.forced_kills_total``) and recovered like a crash, and
* ``shutdown()`` cannot hang on a wedged worker — the reaping loop escalates
  join → terminate → kill (satellite: the pre-supervision fabric would block
  forever on a SIGSTOPped worker).

A worker-raised error must also leave the channel usable: the command pipe
is drained so the *next* tick works (regression for the pre-recovery fabric,
which left the reply in the pipe and desynchronized every later request).
"""

import os
import signal
import time

import numpy as np
import pytest

import repro.serving.shard as shard_module
from repro.detectors import KNNDistanceDetector
from repro.detectors.streaming import StreamingDetector
from repro.obs import Observer
from repro.serving import (
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    ShardWorkerError,
    ShardedScheduler,
    SupervisorConfig,
    tick_fingerprint,
)

N_TICKS = 24


class _KillOnReplayedCommand:
    """A worker's pipe that SIGKILLs the worker as its n-th journaled command is sent."""

    def __init__(self, process, conn, at):
        self._process = process
        self._conn = conn
        self._remaining = at

    def send(self, message):
        if message[0] in shard_module._JOURNALED_COMMANDS:
            self._remaining -= 1
            if self._remaining == 0:
                os.kill(self._process.pid, signal.SIGKILL)
                self._process.join()
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestSupervisedRespawn:
    @pytest.fixture(scope="class")
    def knn(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        return KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :])

    @pytest.fixture(scope="class")
    def run(self, tiny_zoo, tiny_cohort, knn):
        """Drive a fabric for N_TICKS, optionally SIGKILLing occupied workers.

        ``kills`` maps global tick -> occupied-shard rank to kill just before
        that tick; ``inspect`` is called with the fabric after the last tick.
        Returns (per-tick fingerprints, health timelines, fabric restart
        total).
        """
        records = list(tiny_cohort)
        streams = {
            record.label: record.features("test")[:N_TICKS] for record in records
        }

        def _run(
            n_shards, supervision=None, kills=(), obs=None, n_ticks=N_TICKS, inspect=None
        ):
            fabric = ShardedScheduler(
                n_shards=n_shards,
                health=HealthConfig(
                    degrade_after=1, quarantine_after=2, backoff_ticks=4
                ),
                ingress=IngressConfig(policy=IngressPolicy.REJECT),
                supervision=supervision,
                obs=obs,
            )
            out = []
            try:
                for record in records:
                    fabric.open_session(
                        record.label,
                        tiny_zoo.model_for(record.label),
                        detectors={
                            "knn": StreamingDetector(
                                knn, unit="sample", history=tiny_zoo.dataset.history
                            )
                        },
                    )
                kills = dict(kills)
                for tick in range(n_ticks):
                    if tick in kills:
                        occupied = sorted(
                            {handle.shard for handle in fabric._sessions.values()}
                        )
                        fabric.kill_worker(
                            occupied[min(kills[tick], len(occupied) - 1)]
                        )
                    out.append(
                        tick_fingerprint(
                            fabric.tick(
                                {
                                    record.label: streams[record.label][tick]
                                    for record in records
                                },
                                now=tick,
                            )
                        )
                    )
                timelines = {}
                for session_id in sorted(fabric._sessions):
                    handle = fabric._sessions[session_id]
                    timelines[session_id] = [
                        (e.tick, str(e.state), e.reason, e.delivered_at, e.backoff)
                        for e in (
                            handle.health.timeline if handle.health is not None else []
                        )
                    ]
                restarts = sum(shard.restarts for shard in fabric._shards)
                if inspect is not None:
                    inspect(fabric)
            finally:
                fabric.shutdown()
            return out, timelines, restarts

        return _run

    @pytest.fixture(scope="class")
    def baseline(self, run):
        return run(2, supervision=None)

    def test_supervision_without_crash_is_inert(self, run, baseline):
        out, timelines, restarts = run(
            2, supervision=SupervisorConfig(snapshot_interval=8)
        )
        assert restarts == 0
        assert (out, timelines) == baseline[:2]

    def test_sigkill_recovers_bitwise_from_snapshot(self, run, baseline):
        out, timelines, restarts = run(
            2,
            supervision=SupervisorConfig(snapshot_interval=8, restart_backoff=0.01),
            kills={13: 0},
        )
        assert restarts >= 1
        assert out == baseline[0], "recovered run diverged from uninterrupted run"
        assert timelines == baseline[1]

    def test_two_kills_recover_bitwise_at_four_shards(self, run):
        reference = run(4, supervision=None)
        out, timelines, restarts = run(
            4,
            supervision=SupervisorConfig(snapshot_interval=8, restart_backoff=0.01),
            kills={13: 0, 19: 1},
        )
        assert restarts >= 2
        assert (out, timelines) == reference[:2]

    def test_respawn_killed_during_replay_resumes_on_the_next(
        self, run, baseline, monkeypatch
    ):
        # The first replacement worker is SIGKILLed as the third journaled
        # command is re-sent to it: the next respawn must still resume from
        # the snapshot plus the whole journal.
        started = []
        real_start_child = shard_module.start_child

        def start_child(*args, **kwargs):
            process, conn = real_start_child(*args, **kwargs)
            started.append(process)
            if len(started) == 3:  # two workers at birth, then the first respawn
                conn = _KillOnReplayedCommand(process, conn, at=3)
            return process, conn

        monkeypatch.setattr(shard_module, "start_child", start_child)
        out, timelines, restarts = run(
            2,
            supervision=SupervisorConfig(snapshot_interval=8, restart_backoff=0.01),
            kills={13: 0},
        )
        assert len(started) == 4
        assert restarts == 2
        assert (out, timelines) == baseline[:2]

    def test_kill_before_first_snapshot_replays_journal(self, run, baseline):
        # snapshot_interval far beyond the run: the journal reaches back to
        # worker birth and replaying it alone must still be exact.
        out, timelines, restarts = run(
            2,
            supervision=SupervisorConfig(snapshot_interval=1000, restart_backoff=0.01),
            kills={5: 0},
        )
        assert restarts >= 1
        assert (out, timelines) == baseline[:2]

    @pytest.mark.parametrize("supervised", [True, False])
    def test_journal_is_bounded_by_snapshot_cadence(self, run, supervised):
        # Each snapshot truncates the journal, so after 20 ticks at interval 8
        # (last snapshot at tick 16) an occupied shard journals at most 7
        # ticks; without supervision nothing is journaled or snapshotted.
        checked = []

        def inspect(fabric):
            occupied = {handle.shard for handle in fabric._sessions.values()}
            for shard in fabric._shards:
                if not supervised:
                    assert shard.journal == [] and shard.snapshot is None
                elif shard.index in occupied:
                    assert shard.snapshot is not None
                    assert all(message[0] == "tick" for message in shard.journal)
                    assert len(shard.journal) <= 7
                checked.append(shard.index)

        run(
            2,
            supervision=SupervisorConfig(snapshot_interval=8) if supervised else None,
            n_ticks=20,
            inspect=inspect,
        )
        assert checked == [0, 1]

    def test_circuit_breaker_opens_after_max_restarts(self, run):
        out, _, restarts = run(
            2,
            supervision=SupervisorConfig(
                snapshot_interval=8, max_restarts=1, restart_backoff=0.01
            ),
            kills={7: 0, 15: 0},
        )
        assert restarts == 1, "the breaker must stop burning restarts"
        last = out[-1].values()
        dead = [fingerprint["error"] for fingerprint in last if fingerprint["dropped"]]
        assert dead and all("worker died" in error for error in dead)
        assert any(not fingerprint["dropped"] for fingerprint in last), (
            "the surviving shard's sessions must keep being served"
        )

    def test_respawn_emits_recovery_telemetry(self, run):
        observer = Observer()
        _, _, restarts = run(
            2,
            supervision=SupervisorConfig(snapshot_interval=8, restart_backoff=0.01),
            kills={13: 0},
            obs=observer,
        )
        assert restarts >= 1
        registry = observer.registry
        assert registry.counter_total("recovery.respawns_total") >= 1
        assert registry.counter_total("recovery.snapshots_received_total") >= 1
        assert registry.counter_total("recovery.journal_replayed_total") >= 1
        respawned = [e for e in observer.events if e.kind == "worker_respawned"]
        assert respawned and respawned[0].fields["mode"] in ("snapshot", "journal")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"snapshot_interval": None},
        {"snapshot_interval": 0},
        {"max_restarts": -1},
        {"restart_backoff": -0.01},
        {"request_timeout": 0},
    ],
    ids=lambda kwargs: ",".join(f"{key}={value}" for key, value in kwargs.items()),
)
def test_supervisor_config_rejects_invalid_policy(kwargs):
    with pytest.raises(ValueError):
        SupervisorConfig(**kwargs)


class TestRequestTimeout:
    def test_hung_worker_is_force_killed_and_recovered(self, tiny_zoo, tiny_cohort):
        records = list(tiny_cohort)[:2]
        observer = Observer()
        fabric = ShardedScheduler(
            n_shards=1,
            supervision=SupervisorConfig(
                snapshot_interval=8, restart_backoff=0.01, request_timeout=0.5
            ),
            obs=observer,
        )
        try:
            for record in records:
                fabric.open_session(record.label, tiny_zoo.model_for(record.label))
            streams = {
                record.label: record.features("test")[:6] for record in records
            }
            for tick in range(4):
                fabric.tick(
                    {label: stream[tick] for label, stream in streams.items()}
                )
            os.kill(fabric._shards[0].process.pid, signal.SIGSTOP)
            outcomes = fabric.tick(
                {label: stream[4] for label, stream in streams.items()}
            )
            assert all(not outcome.dropped for outcome in outcomes.values())
            assert sum(shard.restarts for shard in fabric._shards) >= 1
            assert observer.registry.counter_total("recovery.forced_kills_total") >= 1
        finally:
            fabric.shutdown()


class TestShutdownEscalation:
    """Satellite: shutdown() must never hang on a wedged worker."""

    @pytest.fixture(autouse=True)
    def fast_timeouts(self, monkeypatch):
        monkeypatch.setattr(shard_module, "_STUCK_WORKER_TIMEOUT", 0.2)

    def test_sigstopped_worker_is_forced_down_with_obs(self):
        observer = Observer()
        fabric = ShardedScheduler(n_shards=2, obs=observer)
        victim = fabric._shards[0].process
        os.kill(victim.pid, signal.SIGSTOP)
        started = time.perf_counter()
        fabric.shutdown()
        assert time.perf_counter() - started < 5.0, "shutdown hung on a stuck worker"
        assert not victim.is_alive()
        assert observer.registry.counter_total("recovery.forced_kills_total") >= 1

    def test_sigstopped_worker_is_forced_down_without_obs(self):
        fabric = ShardedScheduler(n_shards=2)
        victim = fabric._shards[1].process
        os.kill(victim.pid, signal.SIGSTOP)
        started = time.perf_counter()
        fabric.shutdown()
        assert time.perf_counter() - started < 5.0, "shutdown hung on a stuck worker"
        assert not victim.is_alive()


class TestWorkerErrorChannelDrain:
    """Satellite: a worker-raised error leaves the pipe usable."""

    def test_fabric_stays_usable_after_worker_error(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        stream = record.features("test")[:4]
        fabric = ShardedScheduler(n_shards=1)  # health=None: errors re-raise
        try:
            fabric.open_session(record.label, tiny_zoo.model_for(record.label))
            fabric.tick({record.label: stream[0]})
            with pytest.raises(ShardWorkerError):
                fabric.tick({record.label: np.ones(99)})  # wrong feature shape
            # The channel must be drained: the next good tick still works on
            # the SAME worker (no respawn happened — supervision is off).
            outcomes = fabric.tick({record.label: stream[1]})
            assert not outcomes[record.label].dropped
            assert fabric._shards[0].alive
            assert sum(shard.restarts for shard in fabric._shards) == 0
        finally:
            fabric.shutdown()

    def test_first_failing_shard_is_raised_and_both_stay_usable(
        self, tiny_zoo, tiny_cohort
    ):
        records = list(tiny_cohort)
        streams = {record.label: record.features("test")[:3] for record in records}
        fabric = ShardedScheduler(n_shards=2)  # health=None: errors re-raise
        try:
            for record in records:
                fabric.open_session(record.label, tiny_zoo.model_for(record.label))
            fabric.tick({label: stream[0] for label, stream in streams.items()})
            # One session per shard, the higher shard first: its reply is
            # collected first, so its error is the one raised.
            first = {}
            for label in streams:
                first.setdefault(fabric.session(label).shard, label)
            assert sorted(first) == [0, 1]
            pids = [shard.process.pid for shard in fabric._shards]
            with pytest.raises(ShardWorkerError) as raised:
                fabric.tick({first[1]: np.ones(99), first[0]: np.ones(99)})
            assert raised.value.shard == 1
            outcomes = fabric.tick({label: stream[1] for label, stream in streams.items()})
            assert all(not outcome.dropped for outcome in outcomes.values())
            assert [shard.process.pid for shard in fabric._shards] == pids
            assert all(shard.alive for shard in fabric._shards)
            assert sum(shard.restarts for shard in fabric._shards) == 0
        finally:
            fabric.shutdown()
