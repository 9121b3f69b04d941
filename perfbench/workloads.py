"""The four benchmark workloads.

Each workload is a closed loop of identical *units* driven by one caller in
one process.  A unit starts from the same state every time (the set-up
result, copied before the clock starts when the unit mutates it), so every
unit of a run produces the same outputs bit for bit and its counts must
repeat exactly.

* ``paper``    — the researcher's batch job: train-split risk assessment,
  test campaign, five detectors x four selection strategies, tables.
* ``fleet``    — steady-state serving: 240 sessions on 12 personalized
  lanes, kNN + LSTM-VAE + HMM monitors, telemetry metrics on.
* ``chaos``    — churny, faulted, attacked serving through ``StreamReplayer``
  with kNN + streaming MAD-GAN monitors.
* ``campaign`` — red-team throughput: one stride-1 cohort campaign on the
  aggregate model, merged into one lockstep search.

A workload exposes ``setup()``, ``prepare(state)`` (untimed, before each
unit), ``run(state, prepared, steps)`` (the timed unit; a serving workload
appends each tick's latency to ``steps``, a batch workload's tick is the
whole unit) and ``summarize(state, prepared, raw)`` (untimed; the
unit's counts, fingerprint and output checks).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.attacks import AttackCampaign
from repro.data import (
    SyntheticOhioT1DM,
    build_cohort_profiles,
    expected_less_vulnerable_labels,
    make_patient_profile,
)
from repro.detectors import (
    GaussianHMMDetector,
    KNNDistanceDetector,
    LSTMVAEDetector,
    MADGANDetector,
    StreamingDetector,
)
from repro.eval import (
    DetectorSpec,
    SelectiveTrainingExperiment,
    default_detector_factories,
    reporting,
)
from repro.glucose import GlucoseModelZoo
from repro.obs import Observer
from repro.risk import RiskProfilingFramework, SelectionPlanner
from repro.serving import (
    AttackEpisode,
    DeviceClockConfig,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    OnlineAttacker,
    SensorFaultConfig,
    SessionChurnConfig,
    StreamReplayer,
    StreamScheduler,
)

#: Patients of the ``--size tiny`` cohort (two from each paper cluster).
TINY_PATIENTS = [("A", 5), ("B", 1), ("A", 0), ("A", 2)]


@dataclass
class UnitOutcome:
    """What one unit did, as the runner needs it."""

    attempted: int
    failed: int
    windows: int
    session_ticks: int
    fingerprint: dict
    #: Per-layer counts read from the unit's outputs (traced runs report them).
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def digest(payload) -> str:
    """Short SHA-256 of a string, a float array or a JSON-serialisable value.

    Fingerprint keys holding a digest end in ``_digest``: they pin bitwise
    repeats inside one run, but float rounding may differ on another CPU, so
    only the integer keys are compared with ``fingerprints.json``."""
    if isinstance(payload, str):
        data = payload.encode()
    elif isinstance(payload, np.ndarray):
        data = np.ascontiguousarray(payload, dtype=np.float64).tobytes()
    else:
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class TimedScheduler(StreamScheduler):
    """A scheduler whose ticks are timed by the benchmark, not by the program."""

    def __init__(self, tick_latencies: List[float], **kwargs):
        super().__init__(**kwargs)
        self.tick_latencies = tick_latencies

    def tick(self, samples, now=None):
        started = perf_counter()
        try:
            return super().tick(samples, now=now)
        finally:
            self.tick_latencies.append(perf_counter() - started)


class Workload:
    """Shared set-up pieces: the seeded cohort and the model zoo."""

    name = ""
    #: Smallest number of measured units per run.
    min_units = 3
    #: One forecaster per patient (True) or the aggregate model only.
    personalized = True

    def __init__(self, seed: int, size: str = "full"):
        self.seed = int(seed)
        self.tiny = size == "tiny"

    def cohort(self):
        profiles = (
            [make_patient_profile(subset, pid) for subset, pid in TINY_PATIENTS]
            if self.tiny
            else build_cohort_profiles()
        )
        return SyntheticOhioT1DM(
            train_days=1 if self.tiny else 2, test_days=1, seed=self.seed, profiles=profiles
        ).generate()

    def zoo(self, cohort) -> GlucoseModelZoo:
        if self.personalized:
            kwargs = dict(
                predictor_kwargs=dict(epochs=1 if self.tiny else 2, hidden_size=12),
                train_personalized=True,
                seed=3,
            )
        else:
            kwargs = dict(
                predictor_kwargs=dict(epochs=1 if self.tiny else 2, hidden_size=16),
                train_personalized=False,
                seed=5,
            )
        return GlucoseModelZoo(**kwargs).fit(cohort)

    def setup_fingerprint(self, state) -> dict:
        zoo = state["zoo"]
        return {name: zoo.models[name].state_hash()[:16] for name in zoo.available_models()}

    def prepare(self, state):
        return {}


# ----------------------------------------------------------------------- paper
class Paper(Workload):
    """Cohort -> zoo (set-up), then the whole paper result per unit."""

    name = "paper"
    #: Pipeline stages per unit: assessment, test campaign, five detectors
    #: (each under four strategies), tables.
    n_stages = 8

    def setup(self):
        cohort = self.cohort()
        return {"cohort": cohort, "zoo": self.zoo(cohort)}

    def prepare(self, state):
        created: List = []

        def recording(spec):
            def factory():
                detector = spec.factory()
                created.append(detector)
                return detector

            return DetectorSpec(factory=factory, unit=spec.unit)

        specs = default_detector_factories(
            madgan_epochs=1 if self.tiny else 2,
            madgan_inversion_steps=10 if self.tiny else 20,
            vae_epochs=1 if self.tiny else 2,
            hmm_iterations=3,
        )
        return {"created": created, "specs": {name: recording(spec) for name, spec in specs.items()}}

    def run(self, state, prepared, steps):
        cohort, zoo = state["cohort"], state["zoo"]
        framework = RiskProfilingFramework(zoo, campaign=AttackCampaign(zoo, stride=8), n_clusters=2)
        assessment = framework.assess(cohort, split="train")
        test_campaign = AttackCampaign(zoo, stride=6).run_cohort(cohort, split="test")
        # Table II grouping, as the benchmark suite uses: the amount of
        # detector work must not hinge on the recovered clusters.
        labels = sorted(cohort.labels)
        planner = SelectionPlanner(
            all_labels=labels,
            less_vulnerable=[label for label in expected_less_vulnerable_labels() if label in labels],
            random_runs=1,
            seed=11,
        )
        experiment = SelectiveTrainingExperiment(
            train_campaign=assessment.campaign,
            test_campaign=test_campaign,
            detector_factories=prepared["specs"],
        )
        result = experiment.run(planner.plan())
        tables = [reporting.render_cluster_table(assessment)]
        tables += [
            reporting.render_metric_figure(result, metric) for metric in ("recall", "precision", "f1")
        ]
        tables.append(reporting.render_headline_claims(result))
        return {
            "assessment": assessment,
            "test_campaign": test_campaign,
            "result": result,
            "tables": tables,
        }

    def summarize(self, state, prepared, raw) -> UnitOutcome:
        assessment, test_campaign = raw["assessment"], raw["test_campaign"]
        result = raw["result"]
        errors: List[str] = []
        test_sizes = {
            "window": len(test_campaign.detection_dataset()[1]),
            "sample": len(test_campaign.sample_dataset()[1]),
        }
        confusion = []
        for detector, per_strategy in result.outcomes.items():
            unit = prepared["specs"][detector].unit
            for strategy, outcome in per_strategy.items():
                for matrix in outcome.per_run:
                    if matrix.total != test_sizes[unit]:
                        errors.append(
                            f"{detector}/{strategy}: confusion total {matrix.total} "
                            f"!= test set size {test_sizes[unit]}"
                        )
                    confusion.append(
                        [
                            matrix.true_positives,
                            matrix.false_positives,
                            matrix.true_negatives,
                            matrix.false_negatives,
                        ]
                    )
                for metric in ("precision", "recall", "f1", "false_negative_rate"):
                    value = getattr(outcome, metric)
                    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                        errors.append(f"{detector}/{strategy}: {metric}={value} not in [0, 1]")
        if not all(raw["tables"]):
            errors.append("a rendered table is empty")
        records = assessment.campaign.records + test_campaign.records
        eligible = sum(record.result.eligible for record in records)
        success = sum(record.result.eligible and record.result.success for record in records)
        inversion_calls = sum(
            detector.inversion_calls
            for detector in prepared["created"]
            if isinstance(detector, MADGANDetector)
        )
        fingerprint = {
            "clusters": sorted(
                sorted(assessment.clustering.members(index))
                for index in range(assessment.clustering.n_clusters)
            ),
            "campaign_windows": len(records),
            "campaign_eligible": int(eligible),
            "campaign_success": int(success),
            "queries": int(sum(record.result.queries for record in records)),
            "confusion": [[int(x) for x in row] for row in confusion],
            "madgan_inversion_calls": int(inversion_calls),
        }
        return UnitOutcome(
            attempted=self.n_stages,
            failed=0,
            windows=len(records),
            session_ticks=len(state["cohort"]),
            fingerprint=fingerprint,
            layer={
                "attacks.queries": fingerprint["queries"],
                "attacks.success_ratio": success / eligible if eligible else 0.0,
                "detectors.madgan.inversion_calls": inversion_calls,
            },
            errors=errors,
        )


# ----------------------------------------------------------------------- fleet
class Fleet(Workload):
    """240 sessions on 12 personalized lanes, ticked back to back."""

    name = "fleet"
    #: Ticks per unit; four units give >= 200 tick samples (10 beyond p95).
    ticks_per_unit = 50
    min_units = 4
    #: Sessions checked against offline predict after each run.
    checked_sessions = (0, 125, 239)

    @property
    def sessions_per_lane(self) -> int:
        return 5 if self.tiny else 20

    def setup(self):
        cohort = self.cohort()
        zoo = self.zoo(cohort)
        train_windows = zoo.dataset.from_cohort(cohort, split="train")[0]
        detectors = {
            "knn": (KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :]), "sample"),
            "vae": (
                LSTMVAEDetector(
                    epochs=1 if self.tiny else 2, hidden_size=12, latent_dim=3,
                    batch_size=32, seed=0,
                ).fit(train_windows[::4]),
                "window",
            ),
            "hmm": (
                GaussianHMMDetector(n_states=4, n_iter=5, seed=0).fit(train_windows[::4]),
                "window",
            ),
        }
        history = zoo.dataset.history
        scheduler = StreamScheduler(obs=Observer(trace=False))
        feeds = {}
        labels = cohort.labels
        for index in range(len(labels) * self.sessions_per_lane):
            label = labels[index % len(labels)]
            session_id = f"{label}/{index // len(labels)}"
            # Each session on a lane streams the lane patient's test trace
            # from its own offset, so no two sessions see the same window.
            feeds[session_id] = (label, 7 * (index // len(labels)))
            scheduler.open_session(
                label,
                zoo.model_for(label),
                detectors={
                    name: StreamingDetector(detector, unit=unit, history=history)
                    for name, (detector, unit) in detectors.items()
                },
                session_id=session_id,
            )
        traces = {record.label: record.features("test") for record in cohort}
        state = {
            "cohort": cohort,
            "zoo": zoo,
            "detectors": detectors,
            "scheduler": scheduler,
            "feeds": feeds,
            "traces": traces,
        }
        for tick in range(history):  # every window is warm before measuring
            scheduler.tick(self.samples(state, tick))
        return state

    @staticmethod
    def samples(state, tick: int) -> Dict[str, np.ndarray]:
        traces = state["traces"]
        return {
            session_id: traces[label][offset + tick]
            for session_id, (label, offset) in state["feeds"].items()
        }

    def prepare(self, state):
        first = state["zoo"].dataset.history
        return {
            "scheduler": copy.deepcopy(state["scheduler"]),
            "deliveries": [
                self.samples(state, tick) for tick in range(first, first + self.ticks_per_unit)
            ],
        }

    def run(self, state, prepared, steps):
        scheduler = prepared["scheduler"]
        outcomes = []
        for samples in prepared["deliveries"]:
            started = perf_counter()
            outcomes.append(scheduler.tick(samples))
            steps.append(perf_counter() - started)
        return outcomes

    def summarize(self, state, prepared, raw) -> UnitOutcome:
        session_ids = sorted(state["feeds"])
        predictions = np.array(
            [
                np.nan if tick[sid].prediction is None else tick[sid].prediction
                for tick in raw
                for sid in session_ids
            ]
        )
        failed = dropped = 0
        flagged = {name: 0 for name in state["detectors"]}
        for tick in raw:
            for outcome in tick.values():
                dropped += outcome.dropped
                degraded = any(verdict.degraded for verdict in outcome.verdicts.values())
                if outcome.error is not None or outcome.dropped or degraded:
                    failed += 1
                for name, verdict in outcome.verdicts.items():
                    flagged[name] += bool(verdict.flagged)
        registry = prepared["scheduler"].obs.registry.snapshot()
        fingerprint = {
            "predictions_digest": digest(predictions),
            "served": int(np.isfinite(predictions).sum()),
            "flagged": flagged,
            # The snapshot is sorted plain data, so its repr is deterministic.
            "registry_digest": digest(repr(registry)),
        }
        errors = self.check_sessions(state, raw)
        delivered = len(raw) * len(session_ids)
        return UnitOutcome(
            attempted=delivered,
            failed=failed,
            windows=fingerprint["served"],
            session_ticks=delivered,
            fingerprint=fingerprint,
            layer={"serving.dropped_ticks": dropped},
            errors=errors,
        )

    def check_sessions(self, state, raw) -> List[str]:
        """Streamed predictions and verdicts equal the offline calls."""
        errors = []
        history = state["zoo"].dataset.history
        first = history
        sessions = sorted(state["feeds"])
        for index in self.checked_sessions:
            session_id = sessions[index % len(sessions)]
            label, offset = state["feeds"][session_id]
            trace = state["traces"][label]
            ends = [offset + first + k + 1 for k in range(len(raw))]
            windows = np.stack([trace[end - history : end] for end in ends])
            offline = state["zoo"].model_for(label).predict(windows)
            streamed = np.array([tick[session_id].prediction for tick in raw], dtype=float)
            gap = float(np.max(np.abs(streamed - offline)))
            if not gap <= 1e-10:
                errors.append(f"{session_id}: streamed vs offline predict gap {gap:.3g}")
            for name, (detector, unit) in state["detectors"].items():
                views = windows[:, -1:, :] if unit == "sample" else windows
                expected = [bool(flag) for flag in detector.predict(views)]
                got = [bool(tick[session_id].verdicts[name].flagged) for tick in raw]
                if got != expected:
                    errors.append(f"{session_id}: {name} verdicts differ from offline predict")
        return errors


# ----------------------------------------------------------------------- chaos
class Chaos(Workload):
    """One faulted, churned, attacked replay of the 12 devices per unit."""

    name = "chaos"
    min_units = 3
    faults = SensorFaultConfig(
        bias_rate=0.01,
        stuck_rate=0.01,
        spike_rate=0.02,
        drift_rate=0.005,
        dropout_rate=0.01,
        malformed_rate=0.02,
        seed=37,
    )
    clocks = DeviceClockConfig(drift=0.1, jitter=0.2, dropout=0.05, seed=7)
    churn = SessionChurnConfig(join_stagger=1, disconnect_every=24, reconnect_after=2)
    episodes = (AttackEpisode(start=18, duration=10), AttackEpisode(start=40, duration=10))

    @property
    def samples_per_device(self) -> int:
        return 32 if self.tiny else 64

    def setup(self):
        cohort = self.cohort()
        zoo = self.zoo(cohort)
        train_windows = zoo.dataset.from_cohort(cohort, split="train")[0]
        knn = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])
        madgan = MADGANDetector(
            epochs=1 if self.tiny else 2,
            hidden_size=8,
            inversion_steps=20,
            warm_inversion_steps=5,
            seed=0,
        ).fit(train_windows[::8])
        expected = {
            record.label: min(self.samples_per_device, len(record.features("test")))
            for record in cohort
        }
        return {"cohort": cohort, "zoo": zoo, "knn": knn, "madgan": madgan, "expected": expected}

    def prepare(self, state):
        ticks: List[float] = []
        madgan = copy.deepcopy(state["madgan"])
        scheduler = TimedScheduler(
            ticks,
            health=HealthConfig(),
            ingress=IngressConfig(policy=IngressPolicy.CLAMP),
            obs=Observer(trace=False),
        )
        replayer = StreamReplayer(
            state["zoo"],
            detectors={"knn": (state["knn"], "sample"), "madgan": (madgan, "window")},
            attacker=OnlineAttacker(
                {record.label: list(self.episodes) for record in state["cohort"]}
            ),
            scheduler=scheduler,
            clocks=self.clocks,
            churn=self.churn,
            faults=self.faults,
            divergence_watchdog=6,
        )
        return {
            "ticks": ticks,
            "madgan": madgan,
            "inversions_before": madgan.inversion_calls,
            "scheduler": scheduler,
            "replayer": replayer,
        }

    def run(self, state, prepared, steps):
        report = prepared["replayer"].replay(
            state["cohort"], split="test", max_ticks=self.samples_per_device
        )
        steps.extend(prepared["ticks"])
        return report

    def summarize(self, state, prepared, report) -> UnitOutcome:
        errors = []
        delivered = served = dropped = failed = 0
        flags = []
        predictions = []
        for session_id in sorted(report.sessions):
            trace = report.sessions[session_id]
            for outcome in trace.ticks:
                delivered += 1
                if outcome.dropped:
                    dropped += 1
                elif outcome.prediction is not None:
                    served += 1
                degraded = any(verdict.degraded for verdict in outcome.verdicts.values())
                if outcome.error is not None or degraded:
                    failed += 1
                predictions.append(np.nan if outcome.prediction is None else outcome.prediction)
                flags.append(
                    [
                        None if verdict.warming else bool(verdict.flagged)
                        for _, verdict in sorted(outcome.verdicts.items())
                    ]
                )
        for label, expected in state["expected"].items():
            got = report.delivered_ticks(label)
            if got != expected:
                errors.append(f"{label}: {got} samples delivered, expected {expected}")
        if delivered != sum(state["expected"].values()):
            errors.append(f"{delivered} session ticks recorded, expected {sum(state['expected'].values())}")
        rollups = {}
        for name in report.detector_names:
            rollup = report.rollup(name)
            rollups[name] = [
                int(rollup[key])
                for key in ("true_positives", "false_positives", "true_negatives", "false_negatives")
            ]
        records = prepared["replayer"].attacker.records
        registry = prepared["scheduler"].obs.registry
        fingerprint = {
            "delivered": delivered,
            "served": served,
            "dropped": dropped,
            "sessions": len(report.sessions),
            "sessions_opened": int(registry.counter_total("serving.sessions_opened_total")),
            "attacked_ticks": int(sum(len(t.attacked_ticks) for t in report.sessions.values())),
            "faulted_ticks": int(sum(len(t.faulted_ticks) for t in report.sessions.values())),
            "tamper_records": len(records),
            "online_queries": int(sum(record.queries for record in records)),
            "inversion_calls": int(
                prepared["madgan"].inversion_calls - prepared["inversions_before"]
            ),
            "rollups": rollups,
            "predictions_digest": digest(np.array(predictions)),
            "flags_digest": digest(flags),
            "ticks": len(prepared["ticks"]),
        }
        return UnitOutcome(
            attempted=delivered,
            failed=failed,
            windows=served,
            session_ticks=delivered,
            fingerprint=fingerprint,
            layer={
                "attacks.online_queries": fingerprint["online_queries"],
                "attacks.tampered_ticks": fingerprint["attacked_ticks"],
                "detectors.madgan.inversion_calls": fingerprint["inversion_calls"],
                "serving.dropped_ticks": dropped,
            },
            errors=errors,
        )


# -------------------------------------------------------------------- campaign
class Campaign(Workload):
    """One stride-1 campaign over the cohort's training split per unit."""

    name = "campaign"
    personalized = False

    def setup(self):
        cohort = self.cohort()
        zoo = self.zoo(cohort)
        expected = sum(len(zoo.dataset.from_record(record, "train")[0]) for record in cohort)
        return {"cohort": cohort, "zoo": zoo, "expected": expected}

    def run(self, state, prepared, steps):
        return AttackCampaign(state["zoo"], stride=1).run_cohort(state["cohort"], split="train")

    def summarize(self, state, prepared, result) -> UnitOutcome:
        errors = []
        outcomes = [
            (bool(r.result.eligible), bool(r.result.success), int(r.result.queries))
            for r in result.records
        ]
        eligible = sum(e for e, _, _ in outcomes)
        success = sum(e and s for e, s, _ in outcomes)
        if len(outcomes) != state["expected"]:
            errors.append(f"{len(outcomes)} windows attacked, expected {state['expected']}")
        if not 0 < success <= eligible <= len(outcomes):
            errors.append(f"success {success} / eligible {eligible} / windows {len(outcomes)} inconsistent")
        fingerprint = {
            "windows": len(outcomes),
            "eligible": int(eligible),
            "success": int(success),
            "queries": int(sum(q for _, _, q in outcomes)),
            "records_digest": digest(outcomes),
        }
        return UnitOutcome(
            attempted=len(outcomes),
            failed=0,
            windows=len(outcomes),
            session_ticks=len(state["cohort"]),
            fingerprint=fingerprint,
            layer={
                "attacks.queries": fingerprint["queries"],
                "attacks.success_ratio": success / eligible,
            },
            errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (Paper, Fleet, Chaos, Campaign)}
