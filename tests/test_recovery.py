"""Crash recovery: scheduler snapshots resume bitwise; snapshot files are safe.

Pins the contract of :mod:`repro.serving.recovery` (see ``docs/recovery.md``):

* ``StreamScheduler.snapshot()`` → ``StreamScheduler.restore()`` continues
  ticking **bitwise identically** to the uninterrupted scheduler, for every
  carried state family — predictor lane slots (BiLSTM recurrent stream
  state), sample rings (including the stateless LSTM-VAE / HMM window
  brains), MAD-GAN's warm-started inversion state (including its RNG
  position), and a :class:`SessionHealth` snapshotted mid-quarantine with a
  non-zero backoff,
* snapshot files are versioned + checksummed: truncation, corruption, bad
  magic, trailing bytes, and unknown or retired versions are rejected loudly
  (:class:`SnapshotError`) instead of deserializing garbage state, and
* :class:`SchedulerCheckpointer` rotates atomically-written files and loads
  the newest one.

The end-to-end recovery twins (a checkpoint-file restore mid-replay, and
kill-mixes at 2/4 shards under full chaos) are rows of the twin table in
``scripts/check_parity.py``, run by ``tests/test_twins.py``.
"""

import gzip
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.detectors import KNNDistanceDetector
from repro.detectors.streaming import StreamingDetector
from repro.serving import (
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    SchedulerCheckpointer,
    SnapshotError,
    StreamScheduler,
    tick_fingerprint,
)
from repro.serving.recovery import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot,
    write_snapshot,
)
from repro.utils.timeseries import SampleRing

HISTORY = 12


def timeline_of(scheduler, session_id):
    health = scheduler._sessions[session_id].health
    if health is None:
        return []
    return [
        (event.tick, str(event.state), event.reason, event.delivered_at, event.backoff)
        for event in health.timeline
    ]


def assert_resumes_bitwise(build, feeds, split_at):
    """Tick to ``split_at``, snapshot, restore, and require bitwise continuation."""
    original = build()
    for tick in range(split_at):
        original.tick(feeds[tick], now=tick)
    snapshot = original.snapshot()
    restored = StreamScheduler.restore(snapshot)
    assert restored.n_sessions == original.n_sessions
    assert restored.n_lanes == original.n_lanes
    for tick in range(split_at, len(feeds)):
        live = tick_fingerprint(original.tick(feeds[tick], now=tick))
        resumed = tick_fingerprint(restored.tick(feeds[tick], now=tick))
        assert resumed == live, f"restored run diverged at tick {tick}"
    for session_id in sorted(original._sessions):
        assert timeline_of(restored, session_id) == timeline_of(original, session_id)
    return original, restored


class TestSchedulerSnapshot:
    @pytest.fixture(scope="class")
    def knn(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        return KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :])

    @pytest.fixture(scope="class")
    def feeds(self, tiny_cohort):
        records = list(tiny_cohort)
        return [
            {record.label: record.features("test")[tick] for record in records}
            for tick in range(20)
        ]

    def test_knn_lanes_resume_bitwise(self, tiny_zoo, tiny_cohort, knn, feeds):
        """Predictor lane slots + sample rings + health resume bitwise."""
        records = list(tiny_cohort)

        def build():
            scheduler = StreamScheduler(
                health=HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4),
                ingress=IngressConfig(policy=IngressPolicy.REJECT),
            )
            for record in records:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "knn": StreamingDetector(knn, unit="sample", history=HISTORY)
                    },
                )
            return scheduler

        assert_resumes_bitwise(build, feeds, split_at=7)

    def test_window_brains_resume_bitwise(self, tiny_zoo, tiny_cohort, feeds):
        """LSTM-VAE + HMM window adapters resume bitwise, warm."""
        from repro.detectors import GaussianHMMDetector, LSTMVAEDetector

        records = list(tiny_cohort)[:2]
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        benign = windows[::4]
        vae = LSTMVAEDetector(epochs=1, hidden_size=8, batch_size=16, seed=0).fit(benign)
        hmm = GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(benign)

        def build():
            scheduler = StreamScheduler()
            for record in records:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "vae": StreamingDetector(vae, unit="window", history=HISTORY),
                        "hmm": StreamingDetector(hmm, unit="window", history=HISTORY),
                    },
                )
            return scheduler

        labels = {record.label for record in records}
        feeds = [
            {label: sample for label, sample in feed.items() if label in labels}
            for feed in feeds
        ]
        # Snapshot after warm-up so both window rings are full.
        original, restored = assert_resumes_bitwise(
            build, feeds[:18], split_at=HISTORY + 2
        )
        final = restored.tick(feeds[18], now=18)
        for outcome in final.values():
            for verdict in outcome.verdicts.values():
                assert not verdict.warming and verdict.flagged is not None

    def test_madgan_inversion_state_resumes_bitwise(self, tiny_zoo, tiny_cohort, feeds):
        """Warm-started inversion latents + detector RNG resume bitwise."""
        from repro.detectors import MADGANDetector

        records = list(tiny_cohort)[:2]
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        madgan = MADGANDetector(
            epochs=1,
            hidden_size=8,
            inversion_steps=6,
            warm_inversion_steps=2,
            max_samples=200,
            seed=0,
        ).fit(windows[::4])

        def build():
            scheduler = StreamScheduler()
            for record in records:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "madgan": StreamingDetector(
                            madgan, unit="window", history=HISTORY
                        )
                    },
                )
            return scheduler

        labels = {record.label for record in records}
        feeds = [
            {label: sample for label, sample in feed.items() if label in labels}
            for feed in feeds
        ]
        assert_resumes_bitwise(build, feeds[:17], split_at=HISTORY + 2)

    def test_health_backoff_resumes_bitwise(self, tiny_zoo, tiny_cohort, knn, feeds):
        """A session snapshotted mid-quarantine keeps its backoff countdown."""
        records = list(tiny_cohort)
        victim = records[0].label
        poisoned = []
        for tick, feed in enumerate(feeds):
            feed = dict(feed)
            if tick in (3, 4):  # two rejected deliveries -> quarantine + backoff
                feed[victim] = np.full_like(feed[victim], np.nan)
            poisoned.append(feed)

        def build():
            scheduler = StreamScheduler(
                health=HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4),
                ingress=IngressConfig(policy=IngressPolicy.REJECT),
            )
            for record in records:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "knn": StreamingDetector(knn, unit="sample", history=HISTORY)
                    },
                )
            return scheduler

        probe = build()
        for tick in range(6):
            probe.tick(poisoned[tick], now=tick)
        health = probe._sessions[victim].health
        assert health.backoff_remaining > 0, "fixture never reached a live backoff"
        assert health.quarantines == 1

        original, restored = assert_resumes_bitwise(build, poisoned, split_at=6)
        # The victim must have been re-admitted after the backoff in both runs.
        assert original._sessions[victim].health.readmissions == 1
        assert restored._sessions[victim].health.readmissions == 1

    def test_snapshot_metadata(self, tiny_zoo, tiny_cohort, knn, feeds):
        records = list(tiny_cohort)
        scheduler = StreamScheduler()
        for record in records:
            scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        for tick in range(3):
            scheduler.tick(feeds[tick], now=tick)
        snapshot = scheduler.snapshot(meta={"ticks_seen": 3})
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.n_sessions_hint() == len(records)
        assert snapshot.meta["ticks_seen"] == 3
        assert len(snapshot.models) == scheduler.n_lanes


class TestSnapshotFiles:
    @pytest.fixture(scope="class")
    def snapshot(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        scheduler = StreamScheduler()
        scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        for tick in range(3):
            scheduler.tick({record.label: record.features("test")[tick]}, now=tick)
        return scheduler.snapshot()

    def test_file_round_trip_restores(self, snapshot, tmp_path):
        path = tmp_path / "one.snap"
        write_snapshot(snapshot, path)
        loaded = read_snapshot(path)
        restored = StreamScheduler.restore(loaded)
        assert restored.n_sessions == 1

    def test_truncated_file_rejected(self, snapshot, tmp_path):
        path = tmp_path / "trunc.snap"
        write_snapshot(snapshot, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_corrupted_body_rejected(self, snapshot, tmp_path):
        path = tmp_path / "corrupt.snap"
        write_snapshot(snapshot, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a body byte; the header checksum must catch it
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, snapshot, tmp_path):
        path = tmp_path / "magic.snap"
        write_snapshot(snapshot, path)
        data = bytearray(path.read_bytes())
        assert data[: len(SNAPSHOT_MAGIC)] == SNAPSHOT_MAGIC
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_unknown_version_rejected(self, snapshot, tmp_path):
        path = tmp_path / "version.snap"
        write_snapshot(snapshot, path)
        data = bytearray(path.read_bytes())
        data[len(SNAPSHOT_MAGIC)] = 0xEE  # little-endian u32 version field
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_version_1_file_rejected(self, snapshot, tmp_path):
        """Version 1 pickled per-direction rings and VAE/HMM stream states."""
        assert SNAPSHOT_VERSION == 3
        path = tmp_path / "v1.snap"
        write_snapshot(snapshot, path)
        data = bytearray(path.read_bytes())
        data[len(SNAPSHOT_MAGIC) : len(SNAPSHOT_MAGIC) + 4] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version 1 is not supported"):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, snapshot, tmp_path):
        path = tmp_path / "trailing.snap"
        write_snapshot(snapshot, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotError, match="trailing"):
            read_snapshot(path)

    def test_checkpointer_rotates_and_loads_latest(self, snapshot, tmp_path):
        checkpointer = SchedulerCheckpointer(tmp_path / "ckpt", keep=2)
        assert checkpointer.latest() is None
        paths = [checkpointer.save(snapshot) for _ in range(3)]
        remaining = sorted((tmp_path / "ckpt").glob("*.snap"))
        assert remaining == sorted(paths[1:]), "keep=2 must prune the oldest file"
        assert checkpointer.latest() == paths[-1]
        loaded = checkpointer.load()
        assert loaded.version == snapshot.version
        specific = checkpointer.load(paths[1])
        assert specific.version == snapshot.version

    def test_checkpointer_load_without_files_raises(self, tmp_path):
        checkpointer = SchedulerCheckpointer(tmp_path / "empty")
        with pytest.raises(SnapshotError, match="checkpoints"):
            checkpointer.load()


class TestCommittedSnapshotCompatibility:
    """Snapshot files written by an earlier version still restore.

    Each ``tests/data/*.snap.gz`` holds, gzip-compressed, the exact bytes
    :func:`write_snapshot` wrote at the snapshot version its name gives,
    with the code of that time; its ``*_ticks.json`` sidecar (strict JSON) holds the next 20
    deliveries and the outcomes the writing code produced for them.  Every
    fifth tick delivers to one session only, so both tick shapes are
    replayed.  Version 2 kept each session's history in per-session and
    per-window-adapter sample rings; restoring moves them into the lane.

    * ``scheduler_v2``: one lane (a hidden-size-4 forecaster) serving two
      sessions, each with a sample-unit kNN monitor, health tracking on,
      captured after 15 ticks.  Its ``config`` still records two scheduler
      engine switches that have since been retired.
    * ``scheduler_v2_window``: one lane (a hidden-size-4 aggregate
      forecaster) serving two sessions, each with a window-unit HMM monitor,
      health tracking and reject ingress on, captured after 24 ticks.  Two
      rejected deliveries quarantined the second session, which was
      re-admitted and is re-warming at capture, so its rings are partly
      filled while the first session's are full and wrapped.
    * ``scheduler_v3_madgan``: version 3, written while MAD-GAN could still
      defer cold fallbacks, so every ``InversionState`` carries a
      ``pending_cold`` field.  One lane (a hidden-size-4 aggregate
      forecaster) serves two sessions, each with a window-unit MAD-GAN
      monitor (scores on, ``cold_refresh_interval=6``, health off),
      captured after 16 ticks.  The second session joined at tick 10, so
      its cold start, and both sessions' warm fallbacks and refreshes, fall
      in the replay.  Its sidecar also holds each stream's inversion
      ``ticks`` / ``fallbacks`` after the replay, and the replay must match
      bitwise.
    """

    DATA = Path(__file__).resolve().parent / "data"

    def replay_fixture(self, tmp_path, name, version=2, exact=False):
        def close(want):
            return want if exact else pytest.approx(want, abs=1e-10)

        path = tmp_path / f"{name}.snap"
        path.write_bytes(gzip.decompress((self.DATA / f"{name}.snap.gz").read_bytes()))
        snapshot = read_snapshot(path)
        assert (snapshot.version, SNAPSHOT_VERSION) == (version, 3)
        sidecar = json.loads((self.DATA / f"{name}_ticks.json").read_text())
        restored = StreamScheduler.restore(snapshot)
        assert (restored.n_lanes, restored.n_sessions) == (1, 2)
        for session in restored._sessions.values():
            assert "_ring" not in vars(session)
            assert all("_ring" not in vars(adapter) for adapter in session.detectors.values())
        for entry in sidecar["ticks"]:
            samples = {
                label: np.array(sample) for label, sample in entry["samples"].items()
            }
            outcomes = restored.tick(samples, now=entry["now"])
            assert sorted(outcomes) == sorted(entry["outcomes"])
            for session_id, expected in entry["outcomes"].items():
                outcome = outcomes[session_id]
                assert (outcome.tick, outcome.dropped) == (
                    expected["tick"],
                    expected["dropped"],
                )
                assert outcome.prediction == close(expected["prediction"])
                assert sorted(outcome.verdicts) == sorted(expected["verdicts"])
                for name, want in expected["verdicts"].items():
                    verdict = outcome.verdicts[name]
                    assert (
                        verdict.tick,
                        verdict.warming,
                        verdict.flagged,
                        verdict.degraded,
                    ) == (want["tick"], want["warming"], want["flagged"], want["degraded"])
                    assert verdict.score == close(want["score"])
        return restored, sidecar

    def test_v2_snapshot_restores_and_keeps_ticking(self, tmp_path):
        self.replay_fixture(tmp_path, "scheduler_v2")

    def test_v2_window_rings_migrate_into_the_lane(self, tmp_path):
        _, sidecar = self.replay_fixture(tmp_path, "scheduler_v2_window")
        # The re-warming session's window verdicts resume mid-warm-up.
        warming = [
            outcome["verdicts"]["hmm"]["warming"]
            for entry in sidecar["ticks"]
            for outcome in entry["outcomes"].values()
            if not outcome["dropped"]
        ]
        assert any(warming) and not all(warming)

    def test_madgan_snapshot_with_pending_cold_ticks_on_bitwise(self, tmp_path):
        restored, sidecar = self.replay_fixture(
            tmp_path, "scheduler_v3_madgan", version=3, exact=True
        )
        for session_id, want in sidecar["inversion"].items():
            state = restored.session(session_id).detectors["madgan"].inversion_state
            assert (state.ticks, state.fallbacks) == (want["ticks"], want["fallbacks"])
        scored = [
            outcome["verdicts"]["madgan"]["score"]
            for entry in sidecar["ticks"]
            for outcome in entry["outcomes"].values()
        ]
        assert any(score is None for score in scored)  # the second stream warms
        assert all(want["fallbacks"] for want in sidecar["inversion"].values())

    @staticmethod
    def as_v2(scheduler, session, samples):
        """``scheduler``'s snapshot relabelled v2, ``session`` carrying a v2 ring."""
        session._ring = SampleRing(session.history)
        for sample in samples:
            session._ring.push(sample)
        snapshot = replace(scheduler.snapshot(), version=2)
        del session._ring
        return snapshot

    def test_v2_ring_lands_at_the_lane_positions(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        trace = record.features("test")
        scheduler = StreamScheduler()
        session = scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        for tick in range(14):  # the slot's ring has wrapped
            scheduler.tick({record.label: trace[tick]})
        restored = StreamScheduler.restore(self.as_v2(scheduler, session, trace[:14]))
        np.testing.assert_array_equal(restored.session(record.label).window(), trace[2:14])

    def test_v2_ring_that_disagrees_with_its_lane_is_rejected(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        trace = record.features("test")
        scheduler = StreamScheduler()
        session = scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        for tick in range(5):
            scheduler.tick({record.label: trace[tick]})
        with pytest.raises(SnapshotError, match=r"v2 sample ring \(4 of 12 samples\) disagrees with its lane slot \(5 of 12\)"):
            StreamScheduler.restore(self.as_v2(scheduler, session, trace[1:5]))
