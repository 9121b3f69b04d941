"""Telemetry spine: registry semantics, merge determinism, and inertness.

Pins the contracts of :mod:`repro.obs`:

* counter/gauge/histogram bookkeeping with labeled series and fixed bucket
  edges; the wall-clock channel stays out of every snapshot,
* registry merging is commutative and associative — absorbing worker
  snapshots in any order yields bitwise-identical series,
* an attached :class:`~repro.obs.Observer` never perturbs scheduler results
  (the inertness contract), and the sharded fabric's merged metrics equal
  the single-process scheduler's bitwise at 1/2/4 shards,
* health transitions carry the device-clock slot (``delivered_at``) and
  backoff depth the scheduler threads through ``tick(..., now=)``.
"""

import json
import random
from collections import Counter

import pytest

from repro.detectors import KNNDistanceDetector, StreamingDetector
from repro.detectors.base import AnomalyDetector
from repro.detectors.madgan import InversionState
from repro.obs import (
    DEFAULT_BUCKET_EDGES,
    MetricsRegistry,
    Observer,
    Timer,
    render_key,
    series_key,
)
from repro.serving import (
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    SensorFaultConfig,
    SessionChurnConfig,
    ShardedScheduler,
    StreamReplayer,
    StreamScheduler,
)
from repro.serving.health import HealthState, SessionHealth


@pytest.fixture(scope="module")
def knn_detector(tiny_zoo, tiny_cohort):
    train_windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
    return KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])


def drive(scheduler, zoo, cohort, detector, n_ticks=30, now_offset=None):
    """Open one session per patient, tick the fleet, collect outcomes."""
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
    outs = {record.label: [] for record in records}
    for tick in range(n_ticks):
        samples = {record.label: streams[record.label][tick] for record in records}
        now = None if now_offset is None else now_offset + tick
        for session_id, outcome in scheduler.tick(samples, now=now).items():
            outs[session_id].append(
                (
                    outcome.tick,
                    outcome.sample.tobytes(),
                    outcome.prediction,
                    {
                        name: (v.warming, v.flagged, v.score, v.degraded)
                        for name, v in outcome.verdicts.items()
                    },
                )
            )
    for record in records:
        scheduler.close_session(record.label)
    return outs


class TestMetricsRegistry:
    def test_labeled_counters(self):
        registry = MetricsRegistry()
        registry.inc("ticks_total", lane="a")
        registry.inc("ticks_total", 2, lane="a")
        registry.inc("ticks_total", lane="b")
        assert registry.counter_value("ticks_total", lane="a") == 3.0
        assert registry.counter_value("ticks_total", lane="b") == 1.0
        assert registry.counter_total("ticks_total") == 4.0
        key = series_key("ticks_total", {"lane": "a"})
        assert render_key(key) == "ticks_total{lane=a}"

    def test_memoized_keys_keep_equal_labels_of_other_types_apart(self):
        """``True == 1`` as dict keys, but the two render as different label
        values; the memoized series keys must not merge their series."""
        registry = MetricsRegistry()
        for flag in (True, 1, "True", 1, True):
            registry.inc("flags_total", flag=flag)
        assert registry.snapshot()["counters"] == {
            series_key("flags_total", {"flag": "1"}): 2.0,
            series_key("flags_total", {"flag": "True"}): 3.0,
        }

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        for value in (1, 2, 3, 1024, 5000):
            registry.observe("batch", value)
        snapshot = registry.snapshot()
        hist = snapshot["histograms"][series_key("batch", {})]
        assert hist["edges"] == DEFAULT_BUCKET_EDGES
        assert hist["count"] == 5
        assert hist["sum"] == 1 + 2 + 3 + 1024 + 5000
        # values above the last edge land in the overflow bucket
        assert sum(hist["counts"]) == 5
        assert hist["counts"][-1] == 1

    def test_snapshot_excludes_wall_clock(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.observe_seconds("tick_seconds", 0.25)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        names = {key[0] for section in snapshot.values() for key in section}
        assert "tick_seconds" not in names
        assert registry.timings()[series_key("tick_seconds", {})]["count"] == 1

    def test_merge_is_permutation_invariant(self):
        def make(seed):
            registry = MetricsRegistry()
            rng = random.Random(seed)
            for _ in range(40):
                registry.inc("ticks_total", rng.randint(1, 5), lane=rng.choice("abc"))
                registry.observe("batch", rng.randint(1, 300), lane=rng.choice("ab"))
                registry.set_gauge("depth", rng.randint(0, 9), shard=str(seed))
            return registry

        snapshots = [make(seed).snapshot() for seed in range(5)]
        reference = MetricsRegistry.merge(snapshots)
        for seed in range(10):
            shuffled = list(snapshots)
            random.Random(seed).shuffle(shuffled)
            assert MetricsRegistry.merge(shuffled) == reference

    def test_absorb_accumulates_into_existing_series(self):
        left = MetricsRegistry()
        left.inc("ticks_total", 2, lane="a")
        left.observe("batch", 3)
        right = MetricsRegistry()
        right.inc("ticks_total", 5, lane="a")
        right.observe("batch", 7)
        left.absorb(right.snapshot())
        assert left.counter_value("ticks_total", lane="a") == 7.0
        hist = left.snapshot()["histograms"][series_key("batch", {})]
        assert hist["count"] == 2 and hist["sum"] == 10

    def test_absorb_rejects_mismatched_edges(self):
        left = MetricsRegistry()
        left.observe("batch", 1)
        # A snapshot from another process whose histogram uses other edges.
        foreign = {
            "histograms": {
                series_key("batch", {}): {
                    "edges": (1.0, 2.0),
                    "counts": (1, 0, 0),
                    "sum": 1.0,
                    "count": 1,
                }
            }
        }
        with pytest.raises(ValueError, match="mismatched edges"):
            left.absorb(foreign)


class TestTimer:
    def test_laps_and_best(self):
        timer = Timer()
        for _ in range(3):
            with timer.lap():
                pass
        assert timer.count == 3
        assert timer.best <= timer.mean <= timer.total
        assert timer.last == timer.laps[-1]
        timer.reset()
        assert timer.count == 0

    def test_lap_is_recorded_when_the_body_raises(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            with timer.lap():
                raise RuntimeError("boom")
        assert timer.count == 1
        assert timer.last >= 0.0


class TestObserver:
    def test_span_emission_and_drain(self):
        observer = Observer()
        observer.registry.inc("ticks_total")
        with observer.span("lane_step", tick=3, lane="a", batch=4):
            pass
        observer.emit_span("merge", tick=3, results=2)
        observer.event("worker_death", shard=1)
        payload = observer.drain()
        assert [span.stage for span in payload["spans"]] == ["lane_step", "merge"]
        assert payload["events"][0].kind == "worker_death"
        assert not observer.spans and not observer.events  # trace drained
        assert observer.registry.counter_total("ticks_total") == 1.0  # cumulative

    def test_ingest_trace_stamps_shard(self):
        worker = Observer()
        worker.emit_span("lane_step", tick=1, lane="a")
        worker.event("lane_failure", lane="a")
        payload = worker.drain()
        parent = Observer()
        parent.ingest_trace(payload["spans"], payload["events"], shard=2)
        assert parent.spans[0].shard == 2
        assert parent.events[0].shard == 2

    def test_span_overflow_counts_drops(self):
        observer = Observer(max_spans=2)
        for tick in range(4):
            observer.emit_span("merge", tick=tick)
        assert len(observer.spans) == 2
        assert observer.registry.counter_total("obs.spans_dropped_total") == 2.0

    def test_export_jsonl_roundtrip(self, tmp_path):
        observer = Observer()
        observer.registry.inc("ticks_total", lane="a")
        observer.registry.set_gauge("depth", 3)
        observer.registry.observe("batch", 17)
        observer.registry.observe_seconds("tick_seconds", 0.5)
        observer.emit_span("merge", tick=0, results=1)
        observer.event("health_transition", session="s", state="degraded")
        path = tmp_path / "trace.jsonl"
        lines = observer.export_jsonl(str(path), meta={"run": "test"})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == lines
        by_type = {record["type"] for record in records}
        assert by_type == {"meta", "counter", "gauge", "histogram", "timing", "span", "event"}
        counter = next(r for r in records if r["type"] == "counter")
        assert counter["series"] == "ticks_total{lane=a}" and counter["value"] == 1.0


    def test_export_of_faulted_replay_is_strict_json(
        self, tmp_path, tiny_zoo, tiny_cohort, knn_detector
    ):
        """Every exported line parses under a parser that rejects NaN/Infinity."""
        observer = Observer()
        scheduler = StreamScheduler(
            obs=observer,
            health=HealthConfig(),
            ingress=IngressConfig(policy=IngressPolicy.REJECT),
        )
        faults = SensorFaultConfig(
            spike_rate=0.1, dropout_rate=0.05, malformed_rate=0.1, seed=3
        )
        report = StreamReplayer(
            tiny_zoo,
            detectors={"knn": (knn_detector, "sample")},
            scheduler=scheduler,
            faults=faults,
        ).replay(tiny_cohort, split="test", max_ticks=30)
        assert sum(len(trace.faulted_ticks) for trace in report.sessions.values()) > 0
        # A non-finite value anywhere in the telemetry must come out as null.
        observer.event("probe", value=float("nan"), bound=float("inf"))
        path = tmp_path / "faulted.jsonl"
        lines = observer.export_jsonl(str(path), meta={"run": "faulted"})

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        records = [
            json.loads(line, parse_constant=reject)
            for line in path.read_text().splitlines()
        ]
        assert len(records) == lines
        assert any(record["type"] == "span" for record in records)
        probe = next(r for r in records if r["type"] == "event" and r["kind"] == "probe")
        assert probe["value"] is None and probe["bound"] is None


class TestSchedulerInertness:
    def test_observer_does_not_perturb_results(self, tiny_zoo, tiny_cohort, knn_detector):
        plain = drive(StreamScheduler(), tiny_zoo, tiny_cohort, knn_detector)
        observer = Observer()
        observed = drive(
            StreamScheduler(obs=observer), tiny_zoo, tiny_cohort, knn_detector
        )
        assert observed == plain
        assert observer.registry.counter_total("serving.ticks_served_total") > 0
        stages = {span.stage for span in observer.spans}
        assert {"ingress", "lane_gather", "lane_step", "detector_batch", "health", "merge"} <= stages


class TestShardMetricParity:
    def test_sharded_series_match_single_process(self, tiny_zoo, tiny_cohort, knn_detector):
        single = Observer()
        plain = drive(
            StreamScheduler(obs=single), tiny_zoo, tiny_cohort, knn_detector
        )
        reference = single.registry.snapshot()

        for n_shards in (1, 2, 4):
            observer = Observer()
            with ShardedScheduler(n_shards=n_shards, obs=observer) as fabric:
                sharded = drive(fabric, tiny_zoo, tiny_cohort, knn_detector)
                mid_run = fabric.obs_snapshot()
            assert sharded == plain
            assert observer.registry.snapshot() == reference
            # the mid-run merged view is the same data, just pre-shutdown
            assert mid_run == reference

    def test_obs_snapshot_is_idempotent(self, tiny_zoo, tiny_cohort, knn_detector):
        observer = Observer()
        with ShardedScheduler(n_shards=2, obs=observer) as fabric:
            drive(fabric, tiny_zoo, tiny_cohort, knn_detector, n_ticks=10)
            first = fabric.obs_snapshot()
            second = fabric.obs_snapshot()
        assert first == second
        assert fabric.obs_snapshot() == first  # post-shutdown absorb, once


class _DivergingBrain(AnomalyDetector):
    """Incremental window brain whose inversion "diverges" on high readings,
    so a divergence watchdog trips on a deterministic subset of ticks."""

    name = "diverging"

    def fit(self, windows, labels=None):
        return self

    def scores(self, windows):
        return windows[:, -1, 0] / 100.0

    def predict(self, windows):
        return (self.scores(windows) > 1.5).astype(int)

    def make_inversion_state(self):
        return InversionState()

    def predict_incremental(self, windows, states, parts=None):
        scores = self.scores(windows)
        for state, score in zip(states, scores):
            state.ticks += 1
            state.consecutive_fallbacks = state.consecutive_fallbacks + 1 if score > 1.2 else 0
        return (scores > 1.5).astype(int), scores


class TestVerdictCounters:
    """The per-verdict counters add up to the verdicts the ticks returned."""

    COUNTERS = (
        "serving.detector_warming_total",
        "serving.detector_verdicts_total",
        "serving.watchdog_degraded_total",
    )

    def test_counters_equal_totals_recomputed_from_ticks(
        self, tiny_zoo, tiny_cohort, knn_detector
    ):
        observer = Observer()
        scheduler = StreamScheduler(
            health=HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=3),
            ingress=IngressConfig(policy=IngressPolicy.REJECT),
            obs=observer,
        )
        report = StreamReplayer(
            tiny_zoo,
            detectors={"knn": (knn_detector, "sample"), "diverging": (_DivergingBrain(), "window")},
            scheduler=scheduler,
            churn=SessionChurnConfig(join_stagger=1, disconnect_every=18, reconnect_after=1),
            faults=SensorFaultConfig(spike_rate=0.1, malformed_rate=0.05, seed=3),
            divergence_watchdog=2,
            obs=observer,
        ).replay(tiny_cohort, split="test", max_ticks=40)

        expected = Counter()
        for trace in report.sessions.values():
            for outcome in trace.ticks:
                for name, verdict in outcome.verdicts.items():
                    if verdict.warming:
                        expected[series_key(self.COUNTERS[0], {"detector": name})] += 1
                        continue
                    flagged = "yes" if verdict.flagged else "no"
                    labels = {"detector": name, "flagged": flagged}
                    expected[series_key(self.COUNTERS[1], labels)] += 1
                    if verdict.degraded:
                        expected[series_key(self.COUNTERS[2], {"detector": name})] += 1
        counters = observer.registry.snapshot()["counters"]
        actual = {key: value for key, value in counters.items() if key[0] in self.COUNTERS}
        assert actual == dict(expected)
        # Every counter family and both flag outcomes actually occurred.
        assert {key[0] for key in actual} == set(self.COUNTERS)
        assert {dict(key[1]).get("flagged") for key in actual} >= {"yes", "no"}


class TestHealthDeliveredAt:
    def test_events_carry_delivered_at_and_backoff(self):
        config = HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=3)
        health = SessionHealth(config, session_id="s")
        health.record_error(4, "bad sample", delivered_at=104)
        health.record_error(5, "bad sample", delivered_at=105)
        degraded, quarantined = health.timeline[-2:]
        assert degraded.state == HealthState.DEGRADED
        assert (degraded.delivered_at, degraded.backoff) == (104, 0)
        assert quarantined.state == HealthState.QUARANTINED
        assert (quarantined.delivered_at, quarantined.backoff) == (105, 3)

    def test_scheduler_threads_now_into_health(self, tiny_zoo, tiny_cohort):
        record = next(iter(tiny_cohort))
        scheduler = StreamScheduler(
            health=HealthConfig(degrade_after=1, quarantine_after=1),
            ingress=IngressConfig(policy=IngressPolicy.REJECT),
        )
        scheduler.open_session(record.label, tiny_zoo.model_for(record.label))
        sample = record.features("test")[0].copy()
        sample[0] = float("nan")  # malformed: rejected at ingress
        scheduler.tick({record.label: sample}, now=77)
        timeline = scheduler.session(record.label).health.timeline
        assert timeline[-1].state == HealthState.QUARANTINED
        assert timeline[-1].delivered_at == 77
        assert timeline[-1].backoff >= 1
