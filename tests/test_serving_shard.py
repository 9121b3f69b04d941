"""Sharded serving fabric: bitwise parity, isolation, and order invariance.

Pins the contract of :mod:`repro.serving.shard`:

* lane-grained placement and the session-id-sorted tick merge (the bitwise
  sharded == single-process twins are rows of the twin table in
  ``scripts/check_parity.py``, run by ``tests/test_twins.py``),
* worker-death isolation — a dead shard degrades only its own sessions
  while co-scheduled shards stay bitwise-identical to the baseline, and
* the order-dependence audit: tick mapping order, session open order,
  cohort order, and report aggregation order must not change results.

The bitwise checks use the deterministic kNN detector; MAD-GAN's shared
detector-level RNG is re-derived per shard worker (reproducible for a fixed
layout, not layout-invariant), which is exactly the boundary rule
``repro.serving.shard`` documents.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.attacks import AttackCampaign
from repro.detectors import KNNDistanceDetector, StreamingDetector
from repro.serving import (
    AttackEpisode,
    CheckpointError,
    OnlineAttacker,
    ShardedScheduler,
    StreamReplayer,
    StreamScheduler,
    tick_fingerprint,
)


@pytest.fixture(scope="module")
def knn_detector(tiny_zoo, tiny_cohort):
    train_windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
    return KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])


def drive(scheduler, zoo, cohort, detector, n_ticks=30):
    """Open one session per patient, tick the fleet, collect per-tick fingerprints."""
    records = list(cohort)
    streams = {record.label: record.features("test")[:n_ticks] for record in records}
    for record in records:
        scheduler.open_session(
            record.label,
            zoo.model_for(record.label),
            detectors={
                "knn": StreamingDetector(detector, unit="sample", include_scores=True)
            },
        )
    outs = [
        tick_fingerprint(
            scheduler.tick({record.label: streams[record.label][tick] for record in records})
        )
        for tick in range(n_ticks)
    ]
    for record in records:
        scheduler.close_session(record.label)
    return outs


class TestShardAssignment:
    def test_lane_grained_placement(self, tiny_zoo, tiny_cohort):
        """Sessions sharing a lane land on one worker, regardless of id."""
        with ShardedScheduler(n_shards=3) as fabric:
            record = next(iter(tiny_cohort))
            lane = tiny_zoo.model_for(record.label).state_hash()
            shards = {fabric.shard_for(lane, f"session-{index}") for index in range(20)}
            assert len(shards) == 1

    def test_multi_lane_fleet_spreads_across_workers(self, tiny_zoo, tiny_cohort):
        with ShardedScheduler(n_shards=2) as fabric:
            for record in tiny_cohort:
                fabric.open_session(record.label, tiny_zoo.model_for(record.label))
            shards = {fabric.session(record.label).shard for record in tiny_cohort}
            assert len(shards) > 1  # 4 personalized lanes over 2 workers
            assert fabric.n_sessions == len(list(tiny_cohort))
            assert fabric.n_lanes == len(list(tiny_cohort))

    def test_duplicate_session_id_rejected(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        with ShardedScheduler(n_shards=2) as fabric:
            fabric.open_session(record.label, tiny_zoo.model_for(record.label))
            with pytest.raises(ValueError, match="already exists"):
                fabric.open_session(record.label, tiny_zoo.model_for(record.label))

    def test_checkpoint_validation_fails_fast(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        with ShardedScheduler(n_shards=2) as fabric:
            with pytest.raises(CheckpointError):
                fabric.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    expected_state_hash="not-the-hash",
                )


class TestShardedParity:
    def test_tick_merge_is_session_id_sorted(self, tiny_zoo, tiny_cohort, knn_detector):
        records = list(tiny_cohort)
        with ShardedScheduler(n_shards=2) as fabric:
            for record in records:
                fabric.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={"knn": StreamingDetector(knn_detector, unit="sample")},
                )
            samples = {
                record.label: record.features("test")[0] for record in reversed(records)
            }
            results = fabric.tick(samples)
        assert list(results) == sorted(results)


class TestStartMethod:
    def test_workers_spawn_while_another_thread_runs(self, tiny_zoo, tiny_cohort, knn_detector):
        """A forked worker would inherit locks held by threads it does not have."""
        baseline = drive(StreamScheduler(), tiny_zoo, tiny_cohort, knn_detector)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            fabric = ShardedScheduler(n_shards=2)
        finally:
            release.set()
            thread.join(timeout=10)
        try:
            spawned = multiprocessing.get_context("spawn").Process
            assert all(isinstance(shard.process, spawned) for shard in fabric._shards)
            ticks = drive(fabric, tiny_zoo, tiny_cohort, knn_detector)
        finally:
            fabric.shutdown()
        assert not thread.is_alive()
        assert ticks == baseline
        assert multiprocessing.active_children() == []


class TestWorkerDeath:
    def test_dead_shard_degrades_only_its_own_sessions(
        self, tiny_zoo, tiny_cohort, knn_detector
    ):
        records = list(tiny_cohort)
        streams = {record.label: record.features("test")[:20] for record in records}

        baseline = drive(StreamScheduler(), tiny_zoo, tiny_cohort, knn_detector, n_ticks=20)

        fabric = ShardedScheduler(n_shards=2)
        try:
            for record in records:
                fabric.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "knn": StreamingDetector(
                            knn_detector, unit="sample", include_scores=True
                        )
                    },
                )
            by_shard = {}
            for record in records:
                by_shard.setdefault(fabric.session(record.label).shard, []).append(
                    record.label
                )
            assert len(by_shard) == 2
            dead_shard = min(by_shard)
            victims = set(by_shard[dead_shard])
            survivors = {record.label for record in records} - victims

            ticks = []
            for tick in range(20):
                if tick == 10:
                    # Kill one worker process mid-fleet.
                    fabric._shards[dead_shard].process.terminate()
                    fabric._shards[dead_shard].process.join()
                samples = {
                    record.label: streams[record.label][tick] for record in records
                }
                ticks.append(fabric.tick(samples))
        finally:
            fabric.shutdown()

        fingerprints = [tick_fingerprint(outcomes) for outcomes in ticks]
        for label in survivors:
            # Co-scheduled shards: bitwise-identical to the no-death baseline.
            assert [tick[label] for tick in fingerprints] == [tick[label] for tick in baseline]
        for label in victims:
            before = [tick[label] for tick in fingerprints[:10]]
            assert before == [tick[label] for tick in baseline[:10]]
            outs = [outcomes[label] for outcomes in ticks]
            for outcome in outs[10:]:
                assert outcome.dropped
                assert f"shard {dead_shard} worker died" in outcome.error
                assert outcome.prediction is None
            # The mirror keeps counting ticks so a recovered flow could resume.
            assert [outcome.tick for outcome in outs] == list(range(20))


class TestOrderInvariance:
    """The order-dependence audit: permutations must not change results."""

    def test_tick_mapping_order_invariant(self, tiny_zoo, tiny_cohort, knn_detector):
        records = list(tiny_cohort)
        streams = {record.label: record.features("test")[:25] for record in records}

        def run(tick_order):
            scheduler = StreamScheduler()
            for record in records:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "knn": StreamingDetector(
                            knn_detector, unit="sample", include_scores=True
                        )
                    },
                )
            return [
                tick_fingerprint(
                    scheduler.tick(
                        {record.label: streams[record.label][tick] for record in tick_order}
                    )
                )
                for tick in range(25)
            ]

        assert run(records) == run(records[::-1])

    def test_session_open_order_invariant(self, tiny_zoo, tiny_cohort, knn_detector):
        """Slot assignment must not leak into outputs (row-permutation proof)."""

        def run(open_order):
            scheduler = StreamScheduler()
            records = list(tiny_cohort)
            streams = {
                record.label: record.features("test")[:25] for record in records
            }
            for record in open_order:
                scheduler.open_session(
                    record.label,
                    tiny_zoo.model_for(record.label),
                    detectors={
                        "knn": StreamingDetector(
                            knn_detector, unit="sample", include_scores=True
                        )
                    },
                )
            return [
                tick_fingerprint(
                    scheduler.tick(
                        {record.label: streams[record.label][tick] for record in records}
                    )
                )
                for tick in range(25)
            ]

        records = list(tiny_cohort)
        assert run(records) == run(records[::-1])

    def test_run_cohort_patient_order_invariant(self, tiny_zoo, tiny_cohort):
        """Per-patient campaign records don't depend on cohort order (greedy)."""
        campaign = AttackCampaign(tiny_zoo, stride=20)
        records = list(tiny_cohort)

        def by_patient(result):
            out = {}
            for record in result.records:
                out.setdefault(record.patient_label, []).append(
                    (
                        record.window_index,
                        record.target_index,
                        record.result.eligible,
                        record.result.success,
                        tuple(record.result.path),
                        record.result.queries,
                        record.result.adversarial_window.tobytes(),
                    )
                )
            return out

        forward = campaign.run_cohort(records, split="test")
        reversed_ = campaign.run_cohort(records[::-1], split="test")
        assert by_patient(forward) == by_patient(reversed_)

    def test_report_aggregation_order_invariant(
        self, tiny_zoo, tiny_cohort, knn_detector
    ):
        """Confusion/rollup/health summaries survive session-dict permutation."""
        from repro.serving import ReplayReport

        label = next(iter(tiny_cohort)).label
        attacker = OnlineAttacker({label: [AttackEpisode(start=15, duration=10)]})
        report = StreamReplayer(
            tiny_zoo,
            detectors={"knn": (knn_detector, "sample")},
            attacker=attacker,
        ).replay(tiny_cohort, split="test", max_ticks=35)

        permuted = ReplayReport(
            sessions=dict(reversed(list(report.sessions.items()))),
            episodes=list(reversed(report.episodes)),
            detector_names=report.detector_names,
        )
        original = report.rollup("knn")
        shuffled = permuted.rollup("knn")
        for key in original:
            if np.isnan(original[key]):
                assert np.isnan(shuffled[key])
            else:
                assert original[key] == shuffled[key]
        assert report.confusion("knn") == permuted.confusion("knn")
        assert report.health_summary() == permuted.health_summary()
        assert report.trace_breakdown("knn") == permuted.trace_breakdown("knn")
