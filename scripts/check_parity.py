"""Fast parity tripwire: explorers, fast paths, training, serving, and the twin table.

On a tiny cohort it asserts explorer lockstep parity and the 1e-10 inference
fast path (:func:`run_checks`), fused-training parity (:func:`run_training_parity`),
stream == offline serving (:func:`run_serving_smoke`, including one lane
whose sessions carry different adapter sets over a shared detector,
:func:`run_detector_family_smoke`), the stacked multi-lane model step ==
the one-lane step (:func:`run_stacked_step_parity`), MAD-GAN's one call
per tick == each lane's own ``scores_incremental``
(:func:`run_madgan_stream_parity`), the lockstep cohort simulation == each
patient simulated alone (:func:`run_cohort_lockstep_parity`), every chaos gate
(:func:`run_chaos_smoke`),
and MAD-GAN's float32 inversion against its float64 reference (:func:`run_madgan_dtype_parity`).
It also holds the
**twin table** (:data:`TWIN_ROWS`): each row serves one scenario two ways —
single process, sharded, observed, SIGKILLed mid-run, or restored from a
checkpoint file — whose :func:`~repro.serving.replay_fingerprint` (and, for
observed rows, metric snapshots) must be bitwise equal; and it checks the
same contracts on random scenarios (:func:`check_random_twins`).  Tier-1
runs each table row as its own test id.  Standalone::

    PYTHONPATH=src python scripts/check_parity.py

Exit status is non-zero on any parity violation.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import BeamExplorer, EvasionAttack, GreedyExplorer, RandomExplorer
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.detectors import (
    GaussianHMMDetector,
    KNNDistanceDetector,
    LSTMVAEDetector,
    MADGANDetector,
    StreamingDetector,
    VotingEnsembleDetector,
)
from repro.glucose import GlucoseModelZoo, Scenario
from repro.obs import Observer
from repro.serving import (
    AttackEpisode,
    DeviceClockConfig,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    OnlineAttacker,
    SchedulerCheckpointer,
    SensorFaultConfig,
    SessionChurnConfig,
    ShardedScheduler,
    StreamReplayer,
    StreamScheduler,
    SupervisorConfig,
    replay_fingerprint,
)
from repro.serving.recovery import restore_scheduler

PREDICTION_TOLERANCE = 1e-10
GRADIENT_TOLERANCE = 1e-8
#: Per-epoch losses of a fixed-seed fused fit vs the graph fit; individual
#: steps agree near machine precision, the budget covers benign accumulation.
LOSS_CURVE_TOLERANCE = 1e-6
#: MAD-GAN's float32 production inversion vs its float64 reference from the
#: same latents: quantiles of the relative reconstruction-error gap.  Most
#: windows agree to float32 rounding; a few trajectories settle in a nearby
#: optimum, hence a tail bound rather than a max (measured distribution in
#: docs/detectors.md).  Verdicts must be identical.
MADGAN_FLOAT32_MEDIAN_GAP = 1e-6
MADGAN_FLOAT32_P99_GAP = 1e-2
#: Example budgets of the randomized twin property: the tier-1 test and the
#: standalone run.  Both are derandomized, so every run draws the same cases.
TIER1_RANDOM_EXAMPLES = 5
RANDOM_EXAMPLES = 24

EXPLORER_FACTORIES = {
    "greedy": lambda seed: GreedyExplorer(max_depth=2),
    "beam": lambda seed: BeamExplorer(beam_width=2, max_depth=2),
    "random": lambda seed: RandomExplorer(max_depth=2, n_walks=4, seed=seed),
}


def build_fixture():
    """Two-patient cohort and an aggregate-only zoo, trained with a tiny budget."""
    profiles = [make_patient_profile("A", 5), make_patient_profile("A", 2)]
    cohort = SyntheticOhioT1DM(train_days=1, test_days=1, seed=7, profiles=profiles).generate()
    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=1, hidden_size=8), train_personalized=False, seed=3
    )
    zoo.fit(cohort)
    return cohort, zoo


def _compare_results(batched, sequential) -> None:
    """Raise AssertionError unless two AttackResult lists are equivalent."""
    assert len(batched) == len(sequential), "result count mismatch"
    for left, right in zip(batched, sequential):
        assert left.eligible == right.eligible, "eligibility mismatch"
        assert left.success == right.success, "success mismatch"
        assert left.path == right.path, f"path mismatch: {left.path} != {right.path}"
        assert left.queries == right.queries, (
            f"query-count mismatch: {left.queries} != {right.queries}"
        )
        np.testing.assert_array_equal(left.adversarial_window, right.adversarial_window)
        assert abs(left.adversarial_prediction - right.adversarial_prediction) <= (
            PREDICTION_TOLERANCE
        ), "adversarial prediction drifted beyond tolerance"


def run_checks(
    zoo: GlucoseModelZoo,
    cohort,
    seeds: Sequence[int] = (0, 1, 2),
    stride: int = 10,
    max_windows: int = 8,
) -> Dict[str, dict]:
    """Run every explorer's batched-vs-sequential parity check on real windows.

    Returns a report dict; raises AssertionError on the first violation.
    """
    record = next(iter(cohort))
    windows, _, _ = zoo.dataset.from_record(record, "test")
    windows = windows[::stride][:max_windows]
    if len(windows) == 0:
        raise RuntimeError("fixture produced no test windows")
    scenarios = [
        Scenario.POSTPRANDIAL if index % 2 else Scenario.FASTING
        for index in range(len(windows))
    ]
    predictor = zoo.model_for(record.label)

    fast = predictor.predict(windows)
    graph = predictor.predict_graph(windows)
    max_gap = float(np.abs(fast - graph).max())
    assert max_gap <= PREDICTION_TOLERANCE, (
        f"fast path diverged from the autodiff path: {max_gap:.3e}"
    )

    report: Dict[str, dict] = {"max_prediction_gap": max_gap, "n_windows": len(windows)}
    for name, factory in EXPLORER_FACTORIES.items():
        report[name] = {}
        for seed in seeds:
            batched = EvasionAttack(predictor, explorer=factory(seed)).attack_batch(
                windows, scenarios
            )
            attack = EvasionAttack(predictor, explorer=factory(seed))
            sequential = [
                attack.attack_window(window, scenario)
                for window, scenario in zip(windows, scenarios)
            ]
            _compare_results(batched, sequential)
            report[name][seed] = {
                "n_eligible": sum(result.eligible for result in batched),
                "n_success": sum(result.success for result in batched),
                "total_queries": sum(result.queries for result in batched),
            }
    return report


def assert_loss_curves_match(graph_losses, fused_losses, label: str) -> float:
    """Assert two fixed-seed loss curves match step for step; return the gap.

    One comparison recipe for every training-parity tripwire (this script
    and ``scripts/bench_train.py``): identical lengths, and a maximum
    absolute per-step gap within :data:`LOSS_CURVE_TOLERANCE`.  Raises
    ``AssertionError`` on violation (callers wanting a process exit wrap it).
    """
    graph_losses = np.asarray(graph_losses, dtype=np.float64)
    fused_losses = np.asarray(fused_losses, dtype=np.float64)
    assert graph_losses.shape == fused_losses.shape, (
        f"{label}: loss-curve length mismatch "
        f"({graph_losses.shape} vs {fused_losses.shape})"
    )
    gap = float(np.abs(graph_losses - fused_losses).max())
    assert gap <= LOSS_CURVE_TOLERANCE, (
        f"{label}: fused loss curve diverged from the graph path "
        f"step-for-step gap {gap:.3e} > {LOSS_CURVE_TOLERANCE:g}"
    )
    return gap


def fused_vs_graph_gradient_gap(model, inputs, targets) -> float:
    """Worst |fused − graph| across loss, input grad, and every parameter grad.

    Runs one MSE training batch through the autodiff graph and through the
    fused engine (``fused_forward_train`` → ``fused_mse_loss`` →
    ``fused_backward_train``) on the same ``model`` and returns the largest
    absolute deviation.  Shared by :func:`run_training_parity` and
    ``scripts/bench_train.py`` so the parity recipe is defined once.
    """
    from repro.nn import Tensor
    from repro.nn.fused import fused_mse_loss
    from repro.nn.functional import mse_loss

    model.zero_grad()
    graph_inputs = Tensor(inputs, requires_grad=True)
    loss = mse_loss(model(graph_inputs), Tensor(targets))
    loss.backward()
    graph_grads = {
        name: parameter.grad.copy()
        for name, parameter in model.named_parameters().items()
    }
    graph_input_grad = graph_inputs.grad.copy()
    graph_loss = loss.item()

    model.zero_grad()
    output, cache = model.fused_forward_train(inputs)
    fused_loss, grad_output = fused_mse_loss(output, targets)
    fused_input_grad = model.fused_backward_train(grad_output, cache)

    gap = max(
        abs(graph_loss - fused_loss),
        float(np.abs(graph_input_grad - fused_input_grad).max()),
    )
    for name, parameter in model.named_parameters().items():
        gap = max(gap, float(np.abs(parameter.grad - graph_grads[name]).max()))
    model.zero_grad()
    return gap


def run_training_parity(zoo: GlucoseModelZoo, cohort) -> Dict[str, float]:
    """Fused-training-engine parity smoke (tier-1).

    One full-stack fused backward matches the autodiff graph's parameter and
    input gradients within 1e-8, and fixed-seed ``GlucosePredictor.fit`` and
    ``MADGANDetector.fit`` loss curves match their ``fit_graph`` references
    step for step.  Raises AssertionError on the first violation.
    """
    from repro.detectors import MADGANDetector
    from repro.glucose.predictor import GlucosePredictor

    record = next(iter(cohort))
    windows, targets, _ = zoo.dataset.from_record(record, "train")
    windows, targets = windows[:128], targets[:128]

    # ---- one-batch gradient parity over the full forecaster stack
    reference = zoo.model_for(record.label)
    scaled = reference._clip_scaled(reference.scaler.transform(windows[:64]))
    scaled_targets = reference.scaler.scale_target(targets[:64]).reshape(-1, 1)
    gradient_gap = fused_vs_graph_gradient_gap(reference.model, scaled, scaled_targets)
    assert gradient_gap <= GRADIENT_TOLERANCE, (
        f"fused gradients diverged from the autodiff graph: {gradient_gap:.3e}"
    )

    # ---- fixed-seed loss-curve parity, both trainable models
    predictor_curves = {}
    for fast in (False, True):
        predictor = GlucosePredictor(epochs=2, hidden_size=8, seed=9)
        (predictor.fit if fast else predictor.fit_graph)(windows, targets)
        predictor_curves[fast] = np.asarray(predictor.history_.epoch_losses)
    predictor_gap = assert_loss_curves_match(
        predictor_curves[False], predictor_curves[True], "predictor fit"
    )

    madgan_curves = {}
    for fast in (False, True):
        detector = MADGANDetector(epochs=2, hidden_size=8, inversion_steps=2, seed=6)
        (detector.fit if fast else detector.fit_graph)(windows)
        madgan_curves[fast] = np.concatenate(
            [detector.history_.generator_losses, detector.history_.discriminator_losses]
        )
    madgan_gap = assert_loss_curves_match(
        madgan_curves[False], madgan_curves[True], "MAD-GAN fit"
    )

    return {
        "gradient_gap": gradient_gap,
        "predictor_loss_gap": predictor_gap,
        "madgan_loss_gap": madgan_gap,
    }


def run_serving_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 50) -> Dict[str, float]:
    """Streaming-serving parity on a short live replay (tier-1 smoke).

    Replays every patient's test trace with an :class:`OnlineAttacker`
    tampering one stream and a kNN monitor on every stream, then asserts the
    streamed predictions match ``predict`` on the delivered windows within
    1e-10 and the streaming verdicts equal the offline ``predict``.  Raises
    AssertionError on the first violation.
    """
    records = list(cohort)
    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    detector = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])
    attacked_label = records[0].label
    attacker = OnlineAttacker(
        {attacked_label: [AttackEpisode(start=n_ticks // 2, duration=max(n_ticks // 5, 3))]}
    )
    replayer = StreamReplayer(
        zoo, detectors={"knn": (detector, "sample")}, attacker=attacker
    )
    report = replayer.replay(cohort, split="test", max_ticks=n_ticks)

    worst_gap = 0.0
    tampered_ticks = 0
    for record in records:
        trace = report.sessions[record.label]
        predictor = zoo.model_for(record.label)
        delivered = np.stack([tick.sample for tick in trace.ticks])
        windows, _, _ = zoo.dataset.windows_from_features(delivered)
        assert len(windows) > 0, "replay too short to form a prediction window"
        offline = predictor.predict(windows)
        history = predictor.history
        streamed = trace.predictions()[history - 1 : history - 1 + len(windows)]
        gap = float(np.abs(streamed - offline).max())
        worst_gap = max(worst_gap, gap)
        assert gap <= PREDICTION_TOLERANCE, (
            f"streamed predictions diverged from the offline fast path for "
            f"{record.label}: {gap:.3e}"
        )
        offline_flags = [bool(flag) for flag in detector.predict(delivered[:, np.newaxis, :])]
        stream_flags = [bool(tick.verdicts["knn"].flagged) for tick in trace.ticks]
        assert stream_flags == offline_flags, (
            f"streaming detector verdicts diverged from offline predict for {record.label}"
        )
        tampered_ticks += len(trace.attacked_ticks)
    assert tampered_ticks > 0, "the online attacker never tampered a sample"
    mixed = _serve_mixed_layout_lane(zoo, records[0], detector, n_ticks)
    return {
        "max_stream_gap": worst_gap,
        "n_sessions": len(records),
        "n_ticks": n_ticks,
        "tampered_ticks": tampered_ticks,
        "mixed_layout_rows": mixed,
    }


def _serve_mixed_layout_lane(zoo: GlucoseModelZoo, record, detector, n_ticks: int) -> int:
    """Three sessions on one lane whose adapter sets differ but share ``detector``.

    ``a`` and ``c`` carry ``{knn}``; ``b`` carries ``{knn_twin, knn}`` (the
    same detector under two names, the second with scores), and is
    delivered between them.  The lane's rows of each tick's one kNN call
    interleave the two layouts and must come in delivery order, then
    adapter order: a, b twice, c.  Every verdict (and ``b``'s scores) must
    equal the offline call on that session's own samples, so a row routed
    to the wrong session or adapter fails too.  Returns the number of
    verdicts compared.
    """

    class Recording:
        """Forwards to ``detector`` and keeps every batch it predicts."""

        def __init__(self):
            self.batches = []

        def predict(self, views):
            self.batches.append(np.array(views))
            return detector.predict(views)

        def scores(self, views):
            return detector.scores(views)

    recording = Recording()
    predictor = zoo.model_for(record.label)
    trace = record.features("test")
    layouts = {
        "a": {"knn": {}},
        "b": {"knn_twin": {}, "knn": {"include_scores": True}},
        "c": {"knn": {}},
    }
    scheduler = StreamScheduler()
    for session_id, adapters in layouts.items():
        scheduler.open_session(
            record.label,
            predictor,
            detectors={
                name: StreamingDetector(recording, unit="sample", **options)
                for name, options in adapters.items()
            },
            session_id=session_id,
        )
    assert scheduler.n_lanes == 1
    offsets = {"a": 0, "b": 5, "c": 11}
    verdicts = {session_id: {name: [] for name in layouts[session_id]} for session_id in layouts}
    for tick in range(n_ticks):
        recording.batches.clear()
        outcomes = scheduler.tick(
            {session_id: trace[offset + tick] for session_id, offset in offsets.items()}
        )
        rows = [trace[offsets[session_id] + tick] for session_id in ("a", "b", "b", "c")]
        assert len(recording.batches) == 1 and np.array_equal(
            recording.batches[0], np.stack(rows)[:, np.newaxis, :]
        ), f"mixed-layout lane: kNN rows out of delivery-then-adapter order at tick {tick}"
        for session_id, outcome in outcomes.items():
            for name, verdict in outcome.verdicts.items():
                verdicts[session_id][name].append(verdict)
    compared = 0
    for session_id, offset in offsets.items():
        views = trace[offset : offset + n_ticks, np.newaxis, :]
        flags = [bool(flag) for flag in detector.predict(views)]
        for name, stream in verdicts[session_id].items():
            assert [verdict.flagged for verdict in stream] == flags, (
                f"mixed-layout lane: {session_id!r}/{name!r} verdicts diverged from offline predict"
            )
            assert [verdict.tick for verdict in stream] == list(range(n_ticks))
            compared += len(stream)
        scores = [verdict.score for verdict in verdicts[session_id]["knn"]]
        if layouts[session_id]["knn"]:
            assert scores == detector.scores(views).tolist(), (
                f"mixed-layout lane: {session_id!r} scores diverged from offline scores"
            )
        else:
            assert scores == [None] * n_ticks
    return compared


def run_stacked_step_parity(zoo: GlucoseModelZoo, cohort, n_ticks: int = 30) -> Dict[str, int]:
    """The stacked multi-lane model step against the one-lane step, bitwise.

    Serves three sessions per patient on ``zoo``'s lanes (one per patient
    when personalized) from one scheduler, whose ticks step every lane of
    equal shape and warm-row count together.  The third session of each
    lane misses every third tick, so warm and warming slots mix.  Every
    prediction must equal the lane's own ``step_stream`` on a private state,
    byte for byte.  Raises AssertionError on the first violation.
    """
    scheduler = StreamScheduler()
    lanes = []  # (predictor, one-lane state, session ids, trace)
    for record in cohort:
        predictor = zoo.model_for(record.label)
        ids = [f"{record.label}/{index}" for index in range(3)]
        for session_id in ids:
            scheduler.open_session(record.label, predictor, session_id=session_id)
        lanes.append((predictor, predictor.stream_state(len(ids)), ids, record.features("test")))
    compared = 0
    for tick in range(n_ticks):
        delivery = {
            session_id: trace[tick + index]
            for _, _, ids, trace in lanes
            for index, session_id in enumerate(ids)
            if index < 2 or tick % 3 != 2
        }
        outcomes = scheduler.tick(delivery)
        for predictor, state, ids, _ in lanes:
            rows = [index for index, session_id in enumerate(ids) if session_id in delivery]
            expected = predictor.step_stream(
                np.stack([delivery[ids[index]] for index in rows]), state, rows=np.array(rows)
            )
            for index, value in zip(rows, expected):
                got = outcomes[ids[index]].prediction
                assert (got is None) == bool(np.isnan(value)) and (got is None or got == value), (
                    f"stacked lane step diverged from the one-lane step for {ids[index]} "
                    f"at tick {tick}: {got!r} != {value!r}"
                )
                compared += got is not None
    assert compared > 0, "no session warmed up"
    return {"n_lanes": scheduler.n_lanes, "predictions_compared": compared}


def run_madgan_stream_parity(zoo: GlucoseModelZoo, cohort, n_ticks: int = 32) -> Dict[str, int]:
    """MAD-GAN's one call per tick against each lane's own ``scores_incremental``, bitwise.

    Two sessions per patient on ``zoo``'s lanes (one per patient when
    personalized) share one MAD-GAN, served by one scheduler that makes one
    ``predict_incremental`` call per tick with one part per lane, stacking
    the warm inversions of lanes with equal warm-row counts.  The reference
    is a copy of the detector that scores each lane on its own, in lane
    order, with ``scores_incremental``.  Lanes join two ticks apart and the
    detector neither refreshes nor falls back, so every tick's cold work
    belongs to one lane and the merged cold batch is that lane's own.
    Scores, verdicts, every inversion state and the detector RNG must be
    equal byte for byte.  Raises AssertionError on the first violation.
    """
    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    served = MADGANDetector(
        epochs=1,
        hidden_size=8,
        inversion_steps=6,
        warm_inversion_steps=3,
        warm_fallback_ratio=1e9,
        cold_refresh_interval=None,
        max_samples=200,
        seed=0,
    ).fit(train_windows[::4])
    reference = copy.deepcopy(served)
    scheduler = StreamScheduler()
    lanes = []  # (join tick, session ids, trace, reference states)
    for index, record in enumerate(cohort):
        ids = [f"{record.label}/{copy_index}" for copy_index in range(2)]
        for session_id in ids:
            scheduler.open_session(
                record.label,
                zoo.model_for(record.label),
                detectors={
                    "madgan": StreamingDetector(served, unit="window", include_scores=True)
                },
                session_id=session_id,
            )
        states = [reference.make_inversion_state() for _ in ids]
        lanes.append((2 * index, ids, record.features("test"), states))
    history = served.sequence_length
    compared = 0
    for tick in range(n_ticks):
        delivery = {
            session_id: trace[tick - join + copy_index]
            for join, ids, trace, _ in lanes
            if tick >= join
            for copy_index, session_id in enumerate(ids)
        }
        outcomes = scheduler.tick(delivery)
        for join, ids, trace, states in lanes:
            end = tick - join + 1
            if end < history:
                continue
            windows = np.stack(
                [trace[end - history + offset : end + offset] for offset in range(len(ids))]
            )
            scores = reference.scores_incremental(windows, states)
            flags = reference.calibrator.predict(scores)
            for session_id, score, flag in zip(ids, scores.tolist(), flags):
                verdict = outcomes[session_id].verdicts["madgan"]
                assert (verdict.score, verdict.flagged) == (score, bool(flag)), (
                    f"one-call MAD-GAN verdict for {session_id} at tick {tick} diverged "
                    f"from its lane's own scores_incremental: {verdict.score!r} != {score!r}"
                )
                compared += 1
    for _, ids, _, states in lanes:
        for session_id, want in zip(ids, states):
            got = scheduler.session(session_id).detectors["madgan"].inversion_state
            assert got.latent.tobytes() == want.latent.tobytes() and (
                got.error, got.ticks, got.fallbacks
            ) == (want.error, want.ticks, want.fallbacks), f"{session_id}: inversion state diverged"
    rng_states = [d._rng.generator.bit_generator.state for d in (served, reference)]
    assert rng_states[0] == rng_states[1], "the detector RNG diverged"
    assert served.inversion_calls == reference.inversion_calls
    assert served.warm_runs < reference.warm_runs, "no warm inversion was stacked"
    return {
        "verdicts_compared": compared,
        "warm_runs": served.warm_runs,
        "lane_warm_runs": reference.warm_runs,
    }


#: Cohorts of the lockstep row: (name, seed, train days, test days, patients
#: or None for all twelve) — the ``paper`` benchmark cohort and the
#: four-patient cohort of its ``--size tiny`` runs.
LOCKSTEP_COHORTS = (
    ("full", 0, 2, 1, None),
    ("tiny", 0, 1, 1, (("A", 5), ("B", 1), ("A", 0), ("A", 2))),
)


def run_cohort_lockstep_parity(cohorts=LOCKSTEP_COHORTS) -> Dict[str, int]:
    """The lockstep cohort equals per-patient simulation, bitwise.

    :meth:`SyntheticOhioT1DM.generate` simulates every patient's train and
    test split in one kernel call; :meth:`SyntheticOhioT1DM.generate_patient`
    simulates one patient's two.  Every field of every split, ``meta``
    included, must carry the same bytes.  Raises AssertionError on the
    first difference.
    """
    compared = 0
    for name, seed, train_days, test_days, patients in cohorts:
        profiles = (
            None if patients is None else [make_patient_profile(*patient) for patient in patients]
        )

        def generator():
            return SyntheticOhioT1DM(
                train_days=train_days, test_days=test_days, seed=seed, profiles=profiles
            )

        cohort = generator().generate()
        alone = generator()
        for profile in alone.profiles:
            record = alone.generate_patient(profile)
            for split in ("train", "test"):
                got, expected = cohort[profile.label]._split(split), record._split(split)
                for field in dataclasses.fields(got):
                    left, right = getattr(got, field.name), getattr(expected, field.name)
                    where = f"{name} cohort {profile.label} {split} {field.name}"
                    if isinstance(left, np.ndarray):
                        assert left.dtype == right.dtype and left.shape == right.shape, where
                        assert left.tobytes() == right.tobytes(), f"{where} differs"
                    else:
                        assert left == right, f"{where} differs"
                compared += 1
    return {"cohorts": len(cohorts), "simulations_compared": compared}


def run_chaos_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 40) -> Dict[str, dict]:
    """Every ``scripts/chaos_replay.py`` gate on the tiny fixture (tier-1 smoke).

    Short traces, kNN monitor only.  Returns the gates dict; raises
    AssertionError on the first failed gate.
    """
    import chaos_replay

    report, ok = chaos_replay.run_suite(
        n_ticks, with_madgan=False, verbose=False, fixture=(cohort, zoo)
    )
    gates = report["gates"]
    for name, gate in gates.items():
        assert gate["passed"], f"chaos gate {name!r} failed: {gate}"
    assert ok, f"chaos gates failed: {gates}"
    return gates


def run_detector_family_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 30) -> Dict[str, dict]:
    """LSTM-VAE + HMM streaming verdicts equal the offline ``predict`` (tier-1 smoke).

    Both window brains stream statelessly, so one test trace served sample by
    sample to a one-session :class:`~repro.serving.StreamScheduler` monitored
    by a :class:`~repro.detectors.StreamingDetector` must give verdicts
    bitwise identical to ``predict`` on the same sliding windows, and so
    must their scores: both scorers are batch-invariant (a window scored
    alone equals the same window in an offline batch).  Their sharded twins are the
    ``family_chaos`` rows of :data:`TWIN_ROWS`.  Raises AssertionError on
    the first violation.
    """
    bench = TwinBench(cohort, zoo)
    record = next(iter(cohort))
    features = record.features("test")[:n_ticks]
    report: Dict[str, dict] = {}
    for name in ("lstm_vae", "hmm"):
        detector, _ = bench.detector(name)
        history = detector.sequence_length
        windows = np.stack(
            [features[start : start + history] for start in range(len(features) - history + 1)]
        )
        offline_flags = [int(flag) for flag in detector.predict(windows)]
        adapter = StreamingDetector(detector, unit="window", include_scores=True)
        assert not adapter.incremental and adapter.inversion_state is None, (
            f"{name}: window brain must stream statelessly"
        )
        session = StreamScheduler().open_session(
            record.label, zoo.model_for(record.label), detectors={name: adapter}
        )
        verdicts = [session.update(sample).verdicts[name] for sample in features]
        warm = [verdict for verdict in verdicts if not verdict.warming]
        assert [int(verdict.flagged) for verdict in warm] == offline_flags, (
            f"{name}: streaming verdicts diverged from offline predict"
        )
        stream_scores = np.array([verdict.score for verdict in warm])
        score_gap = float(np.abs(stream_scores - detector.scores(windows)).max())
        assert score_gap == 0.0, (
            f"{name}: streaming scores diverged from offline ({score_gap:.3e})"
        )
        report[name] = {"stream_score_gap": score_gap, "n_windows": len(windows)}
    return report


def madgan_dtype_gap(detector: MADGANDetector, windows: np.ndarray) -> Dict[str, float]:
    """Float32 MAD-GAN scoring vs the float64 reference from the same latents.

    Inverts raw ``windows`` with :meth:`MADGANDetector._invert_fast` (what
    ``scores`` runs) and :meth:`MADGANDetector._invert_fast64` from one latent
    draw, and thresholds both DR scores with the detector's calibrator.
    Raises AssertionError unless the verdicts are identical and the relative
    reconstruction-error gap stays within :data:`MADGAN_FLOAT32_MEDIAN_GAP` /
    :data:`MADGAN_FLOAT32_P99_GAP`.
    """
    scaled = detector._scale(windows)
    latent = detector._sample_latent(len(scaled)) * 0.1
    steps = detector.inversion_steps
    errors32, _ = detector._invert_fast(scaled, latent, steps)
    errors64, _ = detector._invert_fast64(scaled, latent, steps)
    real = detector._discrimination_scores(scaled)
    flags32 = detector.calibrator.predict(detector._dr_scores(errors32, real))
    flags64 = detector.calibrator.predict(detector._dr_scores(errors64, real))
    gap = np.abs(errors32 - errors64) / errors64
    report = {
        "n_windows": len(gap),
        "flagged": int(flags64.sum()),
        "verdict_flips": int((flags32 != flags64).sum()),
        "median_gap": float(np.median(gap)),
        "p99_gap": float(np.quantile(gap, 0.99)),
        "max_gap": float(gap.max()),
    }
    assert report["verdict_flips"] == 0, f"float32 MAD-GAN verdicts diverged: {report}"
    assert report["median_gap"] <= MADGAN_FLOAT32_MEDIAN_GAP, (
        f"float32 MAD-GAN median error gap out of bound: {report}"
    )
    assert report["p99_gap"] <= MADGAN_FLOAT32_P99_GAP, (
        f"float32 MAD-GAN p99 error gap out of bound: {report}"
    )
    return report


def run_madgan_dtype_parity(zoo: GlucoseModelZoo, cohort) -> Dict[str, float]:
    """:func:`madgan_dtype_gap` for a MAD-GAN at the paper's inversion settings.

    Fits on the first record's training windows and checks every test window
    of the cohort.
    """
    record = next(iter(cohort))
    train_windows, _, _ = zoo.dataset.from_record(record, "train")
    test_windows, _, _ = zoo.dataset.from_cohort(cohort, split="test")
    detector = MADGANDetector(epochs=3, inversion_steps=40, seed=4).fit(train_windows)
    return madgan_dtype_gap(detector, test_windows)


# ----------------------------------------------------------------- twin table
#: The deterministic detector brains twins may monitor with.  MAD-GAN is
#: left out: its cold-inversion latents come from a detector-level RNG the
#: shard boundary re-derives per worker (reproducible, not layout-invariant).
TWIN_DETECTORS = ("knn", "lstm_vae", "hmm", "vae_hmm")


def lane_zoo_for(cohort, zoo: Optional[GlucoseModelZoo] = None) -> GlucoseModelZoo:
    """``zoo`` if it serves one lane per patient, else a tiny personalized zoo
    (lanes are the fabric's unit of placement, so twins need several)."""
    if zoo is not None and len({zoo.model_for(r.label).state_hash() for r in cohort}) > 1:
        return zoo
    lane_zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=1, hidden_size=8), train_personalized=True, seed=3
    )
    lane_zoo.fit(cohort)
    return lane_zoo


@dataclass(frozen=True)
class ReplaySpec:
    """One replay scenario: what every device streams and how the fabric gates it.

    ``episodes`` holds ``(device index, AttackEpisode)`` pairs (None: every
    device; an index past the cohort: none).  ``shared_lane`` serves every
    device from the zoo's aggregate model, so all sessions share one lane.
    ``expect`` names what the first replay must show for its twin to mean
    anything (:data:`EXPECTATIONS`).
    """

    name: str
    n_ticks: int = 40
    detectors: Tuple[str, ...] = ("knn",)
    faults: Optional[SensorFaultConfig] = None
    clocks: Optional[DeviceClockConfig] = None
    churn: Optional[SessionChurnConfig] = None
    health: Optional[HealthConfig] = None
    ingress: Optional[IngressPolicy] = None
    episodes: Tuple[Tuple[Optional[int], AttackEpisode], ...] = ()
    watchdog: Optional[int] = None
    shared_lane: bool = False
    expect: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Variant:
    """How one side of a twin is served.

    ``shards`` None is the single-process scheduler.  ``kill`` holds
    ``(replay tick, occupied-shard rank)`` SIGKILLs on a fabric supervised at
    ``snapshot_interval``; ``restore_at`` checkpoints the single-process
    scheduler to a file before that replay tick and serves on from the copy
    read back; ``zero_faults`` replays with the all-zero fault config.
    """

    shards: Optional[int] = None
    observed: bool = False
    kill: Tuple[Tuple[int, int], ...] = ()
    snapshot_interval: int = 8
    restore_at: Optional[int] = None
    zero_faults: bool = False

    def __str__(self) -> str:
        parts = [] if self.shards is None else [f"sharded({self.shards})"]
        if self.observed:
            parts.append("observed")
        if self.kill:
            parts.append("kill({" + ",".join(f"{tick}:{rank}" for tick, rank in self.kill) + "})")
        if self.restore_at is not None:
            parts.append(f"restored({self.restore_at})")
        if self.zero_faults:
            parts.append("zero_faults")
        return "+".join(parts) or "single"


class TwinRow(NamedTuple):
    """One twin: a scenario served two ways whose replay fingerprints must be
    equal — and, when both sides are observed, their metric snapshots too."""

    scenario: ReplaySpec
    a: Variant
    b: Variant

    @property
    def id(self) -> str:
        return f"{self.scenario.name}:{self.a}~{self.b}"


class KillSwitch:
    """Passthrough scheduler shim that interrupts serving between two ticks.

    Before the replay tick keyed in ``kill_at`` it SIGKILLs the occupied
    worker of that rank; before ``restore_at`` it writes the single-process
    scheduler's snapshot through a :class:`~repro.serving.SchedulerCheckpointer`
    and serves on from the copy read back.  Both land where a real crash is
    recovered.  The snapshot carries ``detectors`` as ``extra`` state, and
    sessions opened after the restore monitor with the restored copies: a
    lane batches one query per detector object, so a caller's own object
    would split the lane's batch (``docs/recovery.md``).  Every detector
    adapter the replayer opens reports its scores, so twins compare those
    bitwise too.  Before the restore it counts the sessions opened on a
    lane slot an earlier session used (``recycled``); at the restore it
    notes the most sessions on one lane (``lane_load``).
    """

    def __init__(self, scheduler, kill_at=(), restore_at: Optional[int] = None, detectors=()):
        self._scheduler = scheduler
        self._kill_at = dict(kill_at)
        self._restore_at = restore_at
        self._detectors = list(detectors)
        self._restored_copy: Dict[int, object] = {}
        self._ticks = 0
        self._slots_used = set()
        self.kills = 0
        self.restored = False
        self.recycled = 0
        self.lane_load = 0

    def __getattr__(self, name):
        return getattr(self._scheduler, name)

    def open_session(self, *args, detectors=None, **kwargs):
        for adapter in (detectors or {}).values():
            adapter.include_scores = True
            adapter.detector = self._restored_copy.get(id(adapter.detector), adapter.detector)
        session = self._scheduler.open_session(*args, detectors=detectors, **kwargs)
        slot = (session.lane_key, getattr(session, "slot", None))
        if slot[1] is not None and not self.restored:
            self.recycled += slot in self._slots_used
            self._slots_used.add(slot)
        return _LiveSession(self, session.session_id)

    def tick(self, samples, now=None):
        if self._ticks == self._restore_at:
            with tempfile.TemporaryDirectory() as directory:
                checkpointer = SchedulerCheckpointer(directory)
                checkpointer.save(self._scheduler.snapshot(extra={"detectors": self._detectors}))
                restored, extra = restore_scheduler(checkpointer.load())
            self._restored_copy = {
                id(original): copy for original, copy in zip(self._detectors, extra["detectors"])
            }
            live, self._scheduler, self.restored = self._scheduler, restored, True
            assert (restored.n_sessions, restored.n_lanes) == (live.n_sessions, live.n_lanes)
            self.lane_load = max(map(len, live._lanes.values()), default=0)
        rank = self._kill_at.get(self._ticks)
        if rank is not None:
            occupied = sorted({handle.shard for handle in self._scheduler._sessions.values()})
            self._scheduler.kill_worker(occupied[min(rank, len(occupied) - 1)])
            self.kills += 1
        self._ticks += 1
        return self._scheduler.tick(samples, now=now)


class _LiveSession:
    """A session handle that follows its session across a restore."""

    def __init__(self, switch: KillSwitch, session_id: str):
        self._switch = switch
        self.session_id = session_id

    def __getattr__(self, name):
        return getattr(self._switch._scheduler.session(self.session_id), name)


class _AggregateZoo:
    """A zoo view serving every device from ``zoo``'s aggregate model."""

    def __init__(self, zoo: GlucoseModelZoo):
        self.dataset = zoo.dataset
        self._model = zoo.aggregate

    def model_for(self, label: str):
        return self._model


class TwinBench:
    """The fixture twins replay on: a cohort, a zoo, and detectors fitted on demand.

    Replays are memoized by (scenario, variant): rows sharing a side share
    its run.
    """

    def __init__(self, cohort, zoo: GlucoseModelZoo):
        self.cohort = cohort
        self.zoo = zoo
        self._detectors: Dict[str, tuple] = {}
        self._runs: Dict[tuple, dict] = {}

    def detector(self, name: str) -> tuple:
        """``(fitted detector, unit)`` for one of :data:`TWIN_DETECTORS`."""
        if name not in self._detectors:
            windows, _, _ = self.zoo.dataset.from_cohort(self.cohort, split="train")
            if name == "knn":
                entry = (KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :]), "sample")
            elif name == "lstm_vae":
                vae = LSTMVAEDetector(epochs=1, hidden_size=8, batch_size=16, seed=0)
                entry = (vae.fit(windows[::4]), "window")
            elif name == "hmm":
                hmm = GaussianHMMDetector(n_states=3, n_iter=3, seed=0)
                entry = (hmm.fit(windows[::4]), "window")
            else:  # "vae_hmm": the 2-of-2 voting ensemble of the two window brains
                members = [self.detector("lstm_vae")[0], self.detector("hmm")[0]]
                entry = (VotingEnsembleDetector(members, min_votes=2), "window")
            self._detectors[name] = entry
        return self._detectors[name]

    def replay(self, spec: ReplaySpec, variant: Variant) -> dict:
        """Replay ``spec`` served as ``variant``: report, fingerprint, metrics, respawns."""
        if (spec, variant) not in self._runs:
            self._runs[spec, variant] = self._replay(spec, variant)
        return self._runs[spec, variant]

    def _replay(self, spec: ReplaySpec, variant: Variant) -> dict:
        assert not (variant.zero_faults and spec.faults), "zero_faults twins a fault-free scenario"
        observer = Observer() if variant.observed else None
        gating = dict(
            health=spec.health,
            ingress=IngressConfig(policy=spec.ingress) if spec.ingress else None,
            obs=observer,
        )
        if variant.shards is None:
            scheduler = StreamScheduler(**gating)
        else:
            supervision = (
                SupervisorConfig(snapshot_interval=variant.snapshot_interval, restart_backoff=0.01)
                if variant.kill
                else None
            )
            scheduler = ShardedScheduler(n_shards=variant.shards, supervision=supervision, **gating)
        labels = [record.label for record in self.cohort]
        episodes: Dict[str, list] = {}
        for device, episode in spec.episodes:
            for label in labels if device is None else labels[device : device + 1]:
                episodes.setdefault(label, []).append(episode)
        attacker = OnlineAttacker(episodes, obs=observer) if episodes else None
        detectors = {name: self.detector(name) for name in spec.detectors}
        switch = KillSwitch(
            scheduler, variant.kill, variant.restore_at, [entry[0] for entry in detectors.values()]
        )
        try:
            report = StreamReplayer(
                _AggregateZoo(self.zoo) if spec.shared_lane else self.zoo,
                detectors=detectors,
                attacker=attacker,
                scheduler=switch,
                clocks=spec.clocks,
                churn=spec.churn,
                faults=SensorFaultConfig() if variant.zero_faults else spec.faults,
                divergence_watchdog=spec.watchdog,
                obs=observer,
            ).replay(self.cohort, split="test", max_ticks=spec.n_ticks)
            restarts = sum(shard.restarts for shard in getattr(scheduler, "_shards", ()))
        finally:
            if variant.shards is not None:
                scheduler.shutdown()
        # A kill or restore that never happened would pass silently.
        assert switch.kills == len(variant.kill) <= restarts, (
            f"{spec.name} as {variant}: {switch.kills} kills landed, {restarts} respawns"
        )
        assert switch.restored == (variant.restore_at is not None), (
            f"{spec.name} as {variant}: the restore point was never reached"
        )
        if observer is not None:
            assert observer.registry.snapshot() and observer.spans, "observer recorded nothing"
            assert variant.shards is None or any(
                span.shard is not None for span in observer.spans
            ), f"no shard-stamped spans shipped back as {variant}"
        return {
            "report": report,
            "fingerprint": replay_fingerprint(report, attacker),
            "registry": observer.registry.snapshot() if observer is not None else None,
            "restarts": restarts,
            "recycled": switch.recycled,
            "lane_load": switch.lane_load,
        }


#: What a scenario's ``expect`` can require of its first replay.
EXPECTATIONS = {
    "tampers": lambda report: any(trace.attacked_ticks for trace in report.sessions.values()),
    "scored": lambda report: any(
        not verdict.warming
        for trace in report.sessions.values()
        for outcome in trace.ticks
        for verdict in outcome.verdicts.values()
    ),
    "quarantine": lambda report: any(
        counts["quarantines"] for counts in report.health_summary().values()
    ),
}


def _divergence(left, right, path: str = "fingerprint") -> str:
    """The path to the first place two fingerprints differ."""
    if isinstance(left, dict) and isinstance(right, dict) and left.keys() == right.keys():
        key = next(key for key in left if left[key] != right[key])
        return _divergence(left[key], right[key], f"{path}[{key!r}]")
    if isinstance(left, list) and isinstance(right, list) and len(left) == len(right):
        index = next(index for index, pair in enumerate(zip(left, right)) if pair[0] != pair[1])
        return _divergence(left[index], right[index], f"{path}[{index}]")
    return f"{path}: {left!r:.300} != {right!r:.300}"


def run_twin(bench: TwinBench, row: TwinRow) -> Tuple[dict, dict]:
    """Replay both sides of ``row`` and assert its relation; returns both runs."""
    first = bench.replay(row.scenario, row.a)
    second = bench.replay(row.scenario, row.b)
    for expectation in row.scenario.expect:
        assert EXPECTATIONS[expectation](first["report"]), (
            f"{row.id}: the scenario never showed {expectation!r}"
        )
    assert first["fingerprint"] == second["fingerprint"], (
        f"{row.id} diverged: {_divergence(first['fingerprint'], second['fingerprint'])}"
    )
    if row.a.observed and row.b.observed:
        assert first["registry"] == second["registry"], f"{row.id}: metric snapshots diverged"
    return first, second


#: check_parity's chaos mix: benign faults with malformed samples, device
#: clocks, churn, an online attacker on the first device (past the first
#: segment's warm-up, before its churn disconnect), health + reject ingress.
CHAOS_MIX = ReplaySpec(
    "chaos_mix",
    faults=SensorFaultConfig(bias_rate=0.05, spike_rate=0.08, malformed_rate=0.05, seed=11),
    clocks=DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19),
    churn=SessionChurnConfig(join_stagger=2, disconnect_every=25, reconnect_after=2),
    health=HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4),
    ingress=IngressPolicy.REJECT,
    episodes=((0, AttackEpisode(start=13, duration=12)),),
    expect=("tampers",),
)
#: Faults + clocks + churn without gating, for the LSTM-VAE + HMM brains.
FAMILY_CHAOS = ReplaySpec(
    "family_chaos",
    n_ticks=30,
    detectors=("lstm_vae", "hmm"),
    faults=SensorFaultConfig(bias_rate=0.05, spike_rate=0.08, seed=11),
    clocks=DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19),
    churn=SessionChurnConfig(join_stagger=1, disconnect_every=15),
    expect=("scored",),
)
#: ``chaos_replay.py``'s full-chaos mix (its ``full_chaos`` scenario and the
#: kill-mix gate) and its attack campaign: one episode per device, starting
#: past the forecaster's 12-tick warm-up.
CHAOS_FAULTS = SensorFaultConfig(
    bias_rate=0.01,
    stuck_rate=0.01,
    spike_rate=0.02,
    drift_rate=0.005,
    dropout_rate=0.01,
    malformed_rate=0.02,
    seed=37,
)
CHAOS_CLOCKS = DeviceClockConfig(drift=0.1, jitter=0.2, dropout=0.05, seed=7)
CHAOS_CHURN = SessionChurnConfig(join_stagger=2, disconnect_every=30, reconnect_after=2)
ATTACK_START = 20
ATTACK_DURATION = 12
#: Kill-mix schedules by shard count: (replay tick, occupied-shard rank).  The
#: first kill lands mid-episode; a second, later one at 4 shards makes two
#: independent recoveries compose.
KILL_TICKS = {2: ((25, 0),), 4: ((25, 0), (33, 1))}
#: Samples per device in ``chaos_replay.py --smoke``.
CHAOS_SMOKE_TICKS = 48


def chaos_specs(n_ticks: int) -> Tuple[ReplaySpec, ReplaySpec]:
    """``chaos_replay.py``'s fault-free baseline and kill-mix scenarios."""
    duration = min(ATTACK_DURATION, max(n_ticks - ATTACK_START - 1, 1))
    kill_mix = ReplaySpec(
        "chaos_kill_mix",
        n_ticks=n_ticks,
        faults=CHAOS_FAULTS,
        clocks=CHAOS_CLOCKS,
        churn=CHAOS_CHURN,
        health=HealthConfig(),
        ingress=IngressPolicy.CLAMP,
        episodes=((None, AttackEpisode(start=ATTACK_START, duration=duration)),),
        watchdog=3,
    )
    return ReplaySpec("chaos_baseline", n_ticks=n_ticks), kill_mix


SINGLE = Variant()
OBSERVED = Variant(observed=True)
_CHAOS_BASELINE, _KILL_MIX = chaos_specs(CHAOS_SMOKE_TICKS)
_PLAIN = ReplaySpec("plain", n_ticks=30)
_KNN_CHAOS = replace(FAMILY_CHAOS, name="knn_chaos", detectors=("knn",), expect=())
_ATTACKED = ReplaySpec(
    "attacked", n_ticks=35, episodes=((0, AttackEpisode(15, 10)),), expect=("tampers",)
)
_QUARANTINE = ReplaySpec(
    "quarantine",
    faults=SensorFaultConfig(malformed_rate=0.2, seed=23),
    health=HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=3),
    ingress=IngressPolicy.REJECT,
    expect=("quarantine",),
)

#: The chaos mix and the window-brain mix with every device on one lane:
#: several sessions share the lane's sample ring, and churn recycles slots.
#: Their restore points come after a churn reconnect has reused a slot
#: (CHAOS_MIX's first disconnect follows 25 deliveries) while the lane still
#: serves two or more sessions.
_CHAOS_MIX_SHARED = replace(CHAOS_MIX, name="chaos_mix_shared", shared_lane=True)
_FAMILY_SHARED = replace(FAMILY_CHAOS, name="family_chaos_shared", shared_lane=True)

#: Every hand-written twin.  Sharded = single-process: plain serving, the
#: kNN and window-brain chaos mixes, an online attacker, quarantine chaos, and
#: the full chaos mix.  Observed = unobserved, with metric snapshots merged
#: bitwise across shards.  Recovered = uninterrupted: a checkpoint-file
#: restore and SIGKILLed workers under both chaos mixes, and restores of
#: shared-lane mixes.  The window-brain kill lands before the first snapshot
#: (worker tick 8), so its respawn replays the journal from worker birth.
TWIN_ROWS = [
    *(TwinRow(_PLAIN, SINGLE, Variant(shards=n)) for n in (1, 2, 4)),
    *(TwinRow(_KNN_CHAOS, SINGLE, Variant(shards=n)) for n in (1, 2, 4)),
    *(TwinRow(FAMILY_CHAOS, SINGLE, Variant(shards=n)) for n in (1, 2, 4)),
    *(TwinRow(_ATTACKED, SINGLE, Variant(shards=n)) for n in (1, 2)),
    *(TwinRow(_QUARANTINE, SINGLE, Variant(shards=n)) for n in (2, 4)),
    *(TwinRow(CHAOS_MIX, SINGLE, Variant(shards=n)) for n in (1, 2, 4)),
    TwinRow(CHAOS_MIX, SINGLE, OBSERVED),
    *(TwinRow(CHAOS_MIX, OBSERVED, Variant(shards=n, observed=True)) for n in (1, 2, 4)),
    TwinRow(CHAOS_MIX, SINGLE, Variant(restore_at=13)),
    TwinRow(CHAOS_MIX, SINGLE, Variant(shards=2, kill=((21, 0),))),
    TwinRow(CHAOS_MIX, SINGLE, Variant(shards=4, kill=((21, 0), (29, 1)))),
    TwinRow(FAMILY_CHAOS, SINGLE, Variant(shards=2, kill=((5, 0),))),
    TwinRow(_CHAOS_BASELINE, SINGLE, Variant(zero_faults=True)),
    *(TwinRow(_KILL_MIX, SINGLE, Variant(shards=n, kill=k)) for n, k in KILL_TICKS.items()),
    TwinRow(_CHAOS_MIX_SHARED, SINGLE, Variant(restore_at=34)),
    TwinRow(_FAMILY_SHARED, SINGLE, Variant(restore_at=20)),
    TwinRow(_CHAOS_MIX_SHARED, SINGLE, OBSERVED),
]


def twin_scenarios():
    """Hypothesis strategy: one random scenario, as the rows of its three contracts.

    Draws faults, churn, device clocks, attacks, ingress, health, detectors
    and whether every device shares one lane, then shards, snapshot
    interval, kills and a restore point.
    """
    from hypothesis import strategies as st

    rate, seed = st.sampled_from([0.0, 0.02, 0.08]), st.integers(0, 999)

    @st.composite
    def rows(draw):
        n_ticks = draw(st.integers(16, 32))
        ingress = draw(st.none() | st.sampled_from(list(IngressPolicy)))
        degrade = draw(st.integers(1, 2))
        spec = ReplaySpec(
            "random",
            n_ticks=n_ticks,
            detectors=tuple(
                sorted(draw(st.sets(st.sampled_from(TWIN_DETECTORS), min_size=1, max_size=2)))
            ),
            faults=draw(st.none() | st.builds(
                SensorFaultConfig, bias_rate=rate, stuck_rate=rate, spike_rate=rate,
                drift_rate=rate, dropout_rate=rate, seed=seed,
                # Malformed samples need an ingress policy to stop them.
                malformed_rate=rate if ingress else st.just(0.0),
            )),
            clocks=draw(st.none() | st.builds(
                DeviceClockConfig, drift=st.sampled_from([0.0, 0.05, 0.2]),
                jitter=st.sampled_from([0.0, 0.1, 0.3]),
                dropout=st.sampled_from([0.0, 0.05, 0.1]), seed=seed,
            )),
            churn=draw(st.none() | st.builds(
                SessionChurnConfig, join_stagger=st.integers(0, 2),
                disconnect_every=st.none() | st.integers(6, 20),
                reconnect_after=st.integers(0, 3), close_on_drain=st.booleans(),
            )),
            health=draw(st.none() | st.builds(
                HealthConfig, degrade_after=st.just(degrade),
                quarantine_after=st.integers(degrade, 3), backoff_ticks=st.integers(1, 4),
            )),
            ingress=ingress,
            episodes=tuple(sorted(draw(st.dictionaries(st.integers(0, 3), st.builds(
                AttackEpisode, start=st.integers(0, n_ticks - 1), duration=st.integers(1, 8)
            ), max_size=2)).items())),
            shared_lane=draw(st.booleans()),
        )
        ticks = st.integers(1, n_ticks - 1)
        kill = draw(st.dictionaries(ticks, st.integers(0, 3), min_size=1, max_size=2))
        shards = draw(st.integers(1, 4))
        return [
            TwinRow(spec, SINGLE, Variant(restore_at=draw(ticks))),
            TwinRow(spec, SINGLE, Variant(
                shards=shards, kill=tuple(sorted(kill.items())),
                snapshot_interval=draw(st.sampled_from([1, 4, 8, 1000])),
            )),
            TwinRow(spec, SINGLE, OBSERVED),
            TwinRow(spec, OBSERVED, Variant(shards=shards, observed=True)),
        ]

    return rows()


def check_random_twins(bench: TwinBench, max_examples: int) -> Dict[str, int]:
    """The three twin contracts on ``max_examples`` derandomized random scenarios."""
    from hypothesis import HealthCheck, given, settings

    budget = dict(max_examples=max_examples, derandomize=True, database=None, deadline=None)

    @settings(suppress_health_check=list(HealthCheck), **budget)
    @given(twin_scenarios())
    def property_holds(rows):
        for row in rows:
            run_twin(bench, row)

    property_holds()
    return {"examples": max_examples}


def main() -> int:
    print("building tiny fixture...")
    cohort, zoo = build_fixture()
    bench = TwinBench(cohort, lane_zoo_for(cohort, zoo))
    steps = [
        ("explorer + fast-path parity", lambda: run_checks(zoo, cohort)),
        ("fused-training parity", lambda: run_training_parity(zoo, cohort)),
        ("serving smoke (stream vs offline)", lambda: run_serving_smoke(zoo, cohort)),
        (
            "stacked lane step (vs one-lane step)",
            lambda: run_stacked_step_parity(bench.zoo, cohort),
        ),
        (
            "MAD-GAN one call per tick (vs each lane's own)",
            lambda: run_madgan_stream_parity(bench.zoo, cohort),
        ),
        ("lockstep cohort vs per-patient simulation", run_cohort_lockstep_parity),
        ("chaos smoke (every chaos gate)", lambda: run_chaos_smoke(zoo, cohort)),
        ("detector family (stream vs offline)", lambda: run_detector_family_smoke(zoo, cohort)),
        ("MAD-GAN float32 vs float64 inversion", lambda: run_madgan_dtype_parity(zoo, cohort)),
        *(
            (f"twin {row.id}", lambda row=row: {"restarts": run_twin(bench, row)[1]["restarts"]})
            for row in TWIN_ROWS
        ),
        ("randomized twin scenarios", lambda: check_random_twins(bench, RANDOM_EXAMPLES)),
    ]
    for label, step in steps:
        try:
            report = step()
        except AssertionError as error:
            print(f"PARITY VIOLATION in {label}: {error}")
            return 1
        scalars = {key: value for key, value in report.items() if not isinstance(value, dict)}
        print(f"{label}: ok {scalars}")
    print("all parity checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
