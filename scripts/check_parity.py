"""Fast parity smoke check for the batched attack engine and the serving path.

Asserts, on a tiny cohort, that every explorer's lockstep ``search_batch``
reproduces the sequential per-window reference exactly (same eligibility,
success, paths, query counts, and adversarial windows), that the inference
fast path stays within its 1e-10 regression tolerance, that the fused
training engine's hand-written gradients match the autodiff graph within
1e-8 with step-for-step matching fixed-seed loss curves
(:func:`run_training_parity`), and — via :func:`run_serving_smoke` — that
the streaming serving subsystem (scheduler + incremental recurrent state +
online attacker + streaming detectors) matches the offline fast path on a
live replay: per-tick predictions within 1e-10 of ``predict`` on the
delivered windows and detector verdicts identical to the offline
``predict``.  :func:`run_chaos_smoke` additionally drives the chaos-replay
scenario suite (benign sensor faults, malformed-sample ingress, attack
campaigns, churn + device clocks) on the same tiny fixture and asserts every
robustness gate, and :func:`run_detector_family_smoke` admits the LSTM-VAE +
HMM window brains into the fabric: streaming verdicts bitwise equal to the
offline ``predict`` and sharded replays bitwise equal to single-process at
1/2/4 shards.  This is the cheap tripwire between "every PR runs the full
benchmark" and "parity silently regresses": it is wired into the tier-1
suite (``tests/test_explorer_parity.py`` imports :func:`run_checks`,
``tests/test_serving.py`` imports :func:`run_serving_smoke`,
``tests/test_nn_fused.py`` imports :func:`run_training_parity`) and can be
run standalone::

    PYTHONPATH=src python scripts/check_parity.py

Exit status is non-zero on any parity violation.
"""

from __future__ import annotations

import sys
from typing import Dict, Sequence

import numpy as np

from repro.attacks import BeamExplorer, EvasionAttack, GreedyExplorer, RandomExplorer
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.glucose import GlucoseModelZoo, Scenario

PREDICTION_TOLERANCE = 1e-10
GRADIENT_TOLERANCE = 1e-8
#: Per-epoch losses of a fixed-seed fused fit vs the graph fit; individual
#: steps agree near machine precision, the budget covers benign accumulation.
LOSS_CURVE_TOLERANCE = 1e-6
#: LSTM-VAE streaming scores vs offline ``scores``: the offline path batches
#: N windows per BLAS call while streaming scores one window per tick, and
#: BLAS rounds differently per batch shape, so scores agree to ~1e-15 but not
#: bitwise.  Verdicts ARE bitwise (the threshold comparison absorbs the
#: rounding), and so are calls with identical batch composition — which is
#: why the sharded fabric still reproduces VAE scores bit for bit.  The HMM
#: uses only broadcast-reduce arithmetic and is bitwise everywhere.
VAE_STREAM_SCORE_TOLERANCE = 1e-12

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
                windows, scenarios, batched=True
            )
            sequential = EvasionAttack(predictor, explorer=factory(seed)).attack_batch(
                windows, scenarios, batched=False
            )
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
    import numpy as np

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
    import numpy as np

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

    Asserts, on the tiny fixture, that

    * one full-stack fused backward (``Module.fused_grads`` through
      BiLSTM + dense head + MSE seeding) matches the autodiff graph's
      parameter and input gradients within 1e-8, and
    * fixed-seed ``GlucosePredictor.fit`` and ``MADGANDetector.fit`` runs
      (fused engine) produce per-epoch loss curves matching their
      ``fit_graph`` references step for step.

    Returns a report dict; raises AssertionError on the first violation.
    """
    import numpy as np

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

    Replays ``n_ticks`` of every patient's test trace through the
    :class:`~repro.serving.StreamScheduler` with an :class:`OnlineAttacker`
    tampering one stream mid-replay and a kNN-distance detector monitoring
    every stream, then asserts

    * streamed per-tick predictions match the offline fast path (``predict``
      on the delivered sliding windows) within 1e-10, and
    * streaming detector verdicts are identical to the offline ``predict`` on
      the same delivered measurements.

    Returns a report dict; raises AssertionError on the first violation.
    """
    from repro.detectors import KNNDistanceDetector
    from repro.serving import AttackEpisode, OnlineAttacker, StreamReplayer

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
    return {
        "max_stream_gap": worst_gap,
        "n_sessions": len(records),
        "n_ticks": n_ticks,
        "tampered_ticks": tampered_ticks,
    }


def run_chaos_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 40) -> Dict[str, dict]:
    """Chaos-harness gate check on the tiny fixture (tier-1 smoke).

    Runs the full declarative scenario suite from ``scripts/chaos_replay.py``
    — benign sensor faults, malformed-sample ingress policies, the online
    attack campaign, and the full-chaos churn + device-clock mix — with short
    traces and the kNN monitor only, then asserts every chaos gate: no
    unhandled exceptions, zero-config bitwise inertness, bounded false-alarm
    inflation, and attack detection preserved under faults.

    Returns the gates dict; raises AssertionError on the first violation.
    """
    import sys as _sys
    from pathlib import Path as _Path

    scripts_dir = str(_Path(__file__).resolve().parent)
    if scripts_dir not in _sys.path:
        _sys.path.insert(0, scripts_dir)
    import chaos_replay

    report, ok = chaos_replay.run_suite(
        n_ticks, with_madgan=False, verbose=False, fixture=(cohort, zoo)
    )
    gates = report["gates"]
    for name, gate in gates.items():
        assert gate["passed"], f"chaos gate {name!r} failed: {gate}"
    assert ok, f"chaos gates failed: {gates}"
    return gates


def _replay_fingerprint(report) -> dict:
    """Everything a sharded replay must reproduce bitwise, keyed by session."""
    fingerprint = {}
    for session_id in sorted(report.sessions):
        trace = report.sessions[session_id]
        fingerprint[session_id] = {
            "samples": [outcome.sample.tobytes() for outcome in trace.ticks],
            "predictions": [outcome.prediction for outcome in trace.ticks],
            "verdicts": [
                {
                    name: (verdict.warming, verdict.flagged, verdict.score)
                    for name, verdict in outcome.verdicts.items()
                }
                for outcome in trace.ticks
            ],
            "attacked": [outcome.attacked for outcome in trace.ticks],
            "fault": [outcome.fault for outcome in trace.ticks],
            "ingress": [outcome.ingress for outcome in trace.ticks],
            "dropped": [outcome.dropped for outcome in trace.ticks],
            "delivered_at": list(trace.delivered_at),
            # delivered_at/backoff: the device-clock slot and backoff depth
            # stamped on each transition — sharded workers must reproduce
            # them bitwise (the `now` pipe-threading contract).
            "health": [
                (event.tick, str(event.state), event.reason, event.delivered_at, event.backoff)
                for event in trace.health_timeline
            ],
        }
    return fingerprint


def run_shard_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 40) -> Dict[str, float]:
    """Sharded-fabric parity gate (tier-1 smoke).

    Replays the fixture cohort through a personalized (multi-lane) zoo with
    the full production mix active — benign sensor faults, per-device
    clocks, session churn, an online attacker, and health+ingress gating —
    once on a single-process :class:`StreamScheduler` and once per shard
    count in {1, 2, 4} on a :class:`~repro.serving.shard.ShardedScheduler`,
    then asserts the replays are **bitwise identical**: delivered samples,
    predictions, detector verdicts and scores, attack/fault/ingress
    attribution, health timelines, tamper records, and the report rollup.
    Also asserts ``AttackCampaign.run_cohort(n_workers=2)`` reproduces the
    single-process campaign record-for-record on the same multi-lane zoo.

    The gate uses the deterministic kNN detector: MAD-GAN's cold-inversion
    latents come from a detector-level RNG that the shard boundary re-derives
    per worker (see ``repro.serving.shard``), which is reproducible but not
    layout-invariant, so it is exercised by the chaos suite instead.

    Returns a report dict; raises AssertionError on the first violation.
    """
    from repro.attacks.campaign import AttackCampaign
    from repro.detectors import KNNDistanceDetector
    from repro.serving import (
        AttackEpisode,
        DeviceClockConfig,
        HealthConfig,
        IngressConfig,
        IngressPolicy,
        OnlineAttacker,
        SensorFaultConfig,
        SessionChurnConfig,
        ShardedScheduler,
        StreamReplayer,
        StreamScheduler,
    )

    # The gate needs a multi-lane zoo (one lane per patient) so lanes
    # genuinely spread across shard workers — lane placement is the fabric's
    # atomic unit.  A personalized zoo is used as-is; the aggregate-only
    # script fixture gets a tiny personalized sibling trained on the spot.
    records = list(cohort)
    if len({zoo.model_for(record.label).state_hash() for record in records}) > 1:
        lane_zoo = zoo
    else:
        lane_zoo = GlucoseModelZoo(
            predictor_kwargs=dict(epochs=1, hidden_size=8),
            train_personalized=True,
            seed=3,
        )
        lane_zoo.fit(cohort)
    train_windows, _, _ = lane_zoo.dataset.from_cohort(cohort, split="train")
    detector = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])

    faults = SensorFaultConfig(
        bias_rate=0.05, spike_rate=0.08, malformed_rate=0.05, seed=11
    )
    clocks = DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19)
    churn = SessionChurnConfig(join_stagger=2, disconnect_every=25, reconnect_after=2)
    health = HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4)
    ingress = IngressConfig(policy=IngressPolicy.REJECT)
    attacked_label = records[0].label
    # Start past the first segment's warmup, end before its churn disconnect.
    episodes = {attacked_label: [AttackEpisode(start=13, duration=12)]}

    def replay_with(scheduler):
        attacker = OnlineAttacker(episodes)  # fresh: attackers accumulate records
        replayer = StreamReplayer(
            lane_zoo,
            detectors={"knn": (detector, "sample")},
            attacker=attacker,
            scheduler=scheduler,
            clocks=clocks,
            churn=churn,
            faults=faults,
        )
        report = replayer.replay(cohort, split="test", max_ticks=n_ticks)
        tampers = [
            (
                record.session_id,
                record.tick,
                record.benign_cgm,
                record.delivered_cgm,
                record.eligible,
                record.success,
                record.queries,
                record.warm_started,
            )
            for record in attacker.records
        ]
        return report, tampers

    baseline_report, baseline_tampers = replay_with(
        StreamScheduler(health=health, ingress=ingress)
    )
    baseline = _replay_fingerprint(baseline_report)
    baseline_rollup = baseline_report.rollup("knn")
    assert any(
        any(trace["attacked"]) for trace in baseline.values()
    ), "the online attacker never tampered a sample"

    for n_shards in (1, 2, 4):
        fabric = ShardedScheduler(n_shards=n_shards, health=health, ingress=ingress)
        try:
            report, tampers = replay_with(fabric)
        finally:
            fabric.shutdown()
        fingerprint = _replay_fingerprint(report)
        assert fingerprint == baseline, (
            f"sharded replay diverged from single-process at n_shards={n_shards}"
        )
        assert tampers == baseline_tampers, (
            f"tamper records diverged at n_shards={n_shards}"
        )
        rollup = report.rollup("knn")
        assert rollup.keys() == baseline_rollup.keys() and all(
            value == baseline_rollup[key]
            or (np.isnan(value) and np.isnan(baseline_rollup[key]))
            for key, value in rollup.items()
        ), f"report rollup diverged at n_shards={n_shards}"

    campaign = AttackCampaign(lane_zoo, stride=40)
    single = campaign.run_cohort(cohort)
    sharded = campaign.run_cohort(cohort, n_workers=2)
    assert len(single.records) == len(sharded.records) > 0, "campaign record count mismatch"
    for left, right in zip(single.records, sharded.records):
        assert (left.patient_label, left.window_index, left.target_index) == (
            right.patient_label,
            right.window_index,
            right.target_index,
        ), "campaign record attribution diverged under n_workers=2"
        _compare_results([left.result], [right.result])

    return {
        "n_sessions": len(baseline.keys()),
        "n_lanes": len(records),
        "n_ticks": n_ticks,
        "shard_counts": (1, 2, 4),
        "campaign_records": len(single.records),
    }


def run_detector_family_smoke(
    zoo: GlucoseModelZoo, cohort, n_ticks: int = 30
) -> Dict[str, dict]:
    """LSTM-VAE + HMM detector-family parity gate (tier-1 smoke).

    Fits both new window brains on the fixture's training windows with a
    tiny budget, then asserts the two contracts that admit a detector into
    the serving fabric:

    * **Streaming == offline** — both brains stream statelessly (the
      adapter carries no scoring state; each warm tick is one ``predict``
      on its window), and driving one test trace sample-by-sample through
      :class:`~repro.detectors.StreamingDetector` produces verdicts bitwise
      identical to the offline ``predict`` on the same sliding windows.
      HMM scores are bitwise too (broadcast-reduce arithmetic is batch-shape
      independent); LSTM-VAE scores are held to
      :data:`VAE_STREAM_SCORE_TOLERANCE` (BLAS rounds per batch shape).
    * **Sharded == single-process** — a chaos-mix replay (sensor faults,
      device clocks, session churn) over a multi-lane zoo is bitwise
      identical on :class:`~repro.serving.ShardedScheduler` at 1, 2, and
      4 shards.  Both brains are RNG-free at inference, so — unlike
      MAD-GAN — they join the bitwise gate directly.

    Returns a report dict; raises AssertionError on the first violation.
    """
    from repro.detectors import (
        GaussianHMMDetector,
        LSTMVAEDetector,
        StreamingDetector,
    )
    from repro.serving import (
        DeviceClockConfig,
        SensorFaultConfig,
        SessionChurnConfig,
        ShardedScheduler,
        StreamReplayer,
        StreamScheduler,
    )

    records = list(cohort)
    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    benign = train_windows[::4]
    family = {
        "lstm_vae": LSTMVAEDetector(
            epochs=1, hidden_size=8, batch_size=16, seed=0
        ).fit(benign),
        "hmm": GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(benign),
    }

    # ---- streaming verdicts == offline predict on one live trace
    record = records[0]
    features = record.features("test")[:n_ticks]
    history = family["lstm_vae"].sequence_length
    windows = np.stack(
        [features[start : start + history] for start in range(len(features) - history + 1)]
    )
    report: Dict[str, dict] = {}
    for name, detector in family.items():
        offline_flags = [int(flag) for flag in detector.predict(windows)]
        offline_scores = detector.scores(windows)
        adapter = StreamingDetector(
            detector, unit="window", history=history, include_scores=True
        )
        assert not adapter.incremental and adapter.inversion_state is None, (
            f"{name}: window brain must stream statelessly"
        )
        stream_flags, stream_scores = [], []
        for sample in features:
            verdict = adapter.update(sample)
            if not verdict.warming:
                stream_flags.append(int(verdict.flagged))
                stream_scores.append(verdict.score)
        assert stream_flags == offline_flags, (
            f"{name}: streaming verdicts diverged from offline predict"
        )
        score_gap = float(np.abs(np.asarray(stream_scores) - offline_scores).max())
        tolerance = 0.0 if name == "hmm" else VAE_STREAM_SCORE_TOLERANCE
        assert score_gap <= tolerance, (
            f"{name}: streaming scores diverged from offline "
            f"({score_gap:.3e} > {tolerance:g})"
        )
        report[name] = {"stream_score_gap": score_gap, "n_windows": len(windows)}

    # ---- sharded == single-process bitwise under the chaos mix
    if len({zoo.model_for(record.label).state_hash() for record in records}) > 1:
        lane_zoo = zoo
    else:
        lane_zoo = GlucoseModelZoo(
            predictor_kwargs=dict(epochs=1, hidden_size=8),
            train_personalized=True,
            seed=3,
        )
        lane_zoo.fit(cohort)

    def replay_with(scheduler):
        return StreamReplayer(
            lane_zoo,
            detectors={name: (detector, "window") for name, detector in family.items()},
            scheduler=scheduler,
            clocks=DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19),
            churn=SessionChurnConfig(join_stagger=1, disconnect_every=15),
            faults=SensorFaultConfig(bias_rate=0.05, spike_rate=0.08, seed=11),
        ).replay(cohort, split="test", max_ticks=n_ticks)

    baseline = _replay_fingerprint(replay_with(StreamScheduler()))
    for n_shards in (1, 2, 4):
        fabric = ShardedScheduler(n_shards=n_shards)
        try:
            fingerprint = _replay_fingerprint(replay_with(fabric))
        finally:
            fabric.shutdown()
        assert fingerprint == baseline, (
            f"family sharded replay diverged from single-process at "
            f"n_shards={n_shards}"
        )
    report["shard_counts"] = (1, 2, 4)
    return report


def run_obs_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 40) -> Dict[str, float]:
    """Telemetry-spine gates (tier-1 smoke): inertness + merge determinism.

    Replays the same chaos mix as :func:`run_shard_smoke` three ways and
    asserts the two contracts the observability layer pins:

    1. **Inertness** — attaching an :class:`~repro.obs.Observer` never
       perturbs the replay: the instrumented run's fingerprint (predictions,
       verdicts, health timeline with ``delivered_at``/``backoff``, tamper
       records) is bitwise identical to the uninstrumented run's.
    2. **Merge determinism** — the sharded fabric's merged metric snapshot is
       bitwise identical to the single-process snapshot at 1, 2, and 4
       shards for every non-timing series: worker registries ship with tick
       replies and fold into the parent with order-invariant semantics, so
       where a lane ran never shows up in the numbers.

    Returns a report dict; raises AssertionError on the first violation.
    """
    from repro.detectors import KNNDistanceDetector
    from repro.obs import Observer
    from repro.serving import (
        AttackEpisode,
        DeviceClockConfig,
        HealthConfig,
        IngressConfig,
        IngressPolicy,
        OnlineAttacker,
        SensorFaultConfig,
        SessionChurnConfig,
        ShardedScheduler,
        StreamReplayer,
        StreamScheduler,
    )

    records = list(cohort)
    if len({zoo.model_for(record.label).state_hash() for record in records}) > 1:
        lane_zoo = zoo
    else:
        lane_zoo = GlucoseModelZoo(
            predictor_kwargs=dict(epochs=1, hidden_size=8),
            train_personalized=True,
            seed=3,
        )
        lane_zoo.fit(cohort)
    train_windows, _, _ = lane_zoo.dataset.from_cohort(cohort, split="train")
    detector = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])

    faults = SensorFaultConfig(
        bias_rate=0.05, spike_rate=0.08, malformed_rate=0.05, seed=11
    )
    clocks = DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19)
    churn = SessionChurnConfig(join_stagger=2, disconnect_every=25, reconnect_after=2)
    health = HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4)
    ingress = IngressConfig(policy=IngressPolicy.REJECT)
    episodes = {records[0].label: [AttackEpisode(start=13, duration=12)]}

    def replay_with(scheduler, obs):
        attacker = OnlineAttacker(episodes, obs=obs)
        replayer = StreamReplayer(
            lane_zoo,
            detectors={"knn": (detector, "sample")},
            attacker=attacker,
            scheduler=scheduler,
            clocks=clocks,
            churn=churn,
            faults=faults,
            obs=obs,
        )
        return replayer.replay(cohort, split="test", max_ticks=n_ticks)

    plain = _replay_fingerprint(
        replay_with(StreamScheduler(health=health, ingress=ingress), None)
    )
    observer = Observer()
    observed = replay_with(
        StreamScheduler(health=health, ingress=ingress, obs=observer), observer
    )
    assert _replay_fingerprint(observed) == plain, (
        "attaching an Observer perturbed the replay (inertness violation)"
    )
    baseline_series = observer.registry.snapshot()
    assert baseline_series, "instrumented replay recorded no metric series"
    assert observer.spans, "instrumented replay recorded no trace spans"

    span_shards = {}
    for n_shards in (1, 2, 4):
        shard_obs = Observer()
        fabric = ShardedScheduler(
            n_shards=n_shards, health=health, ingress=ingress, obs=shard_obs
        )
        try:
            report = replay_with(fabric, shard_obs)
        finally:
            fabric.shutdown()
        assert _replay_fingerprint(report) == plain, (
            f"instrumented sharded replay diverged at n_shards={n_shards}"
        )
        series = shard_obs.registry.snapshot()
        assert series == baseline_series, (
            f"sharded metric snapshot diverged from single-process at "
            f"n_shards={n_shards}"
        )
        span_shards[n_shards] = {
            span.shard for span in shard_obs.spans if span.shard is not None
        }
        assert span_shards[n_shards], (
            f"no shard-stamped spans shipped back at n_shards={n_shards}"
        )

    return {
        "n_series": sum(len(section) for section in baseline_series.values()),
        "n_spans": len(observer.spans),
        "shard_counts": (1, 2, 4),
        "span_shards": {count: sorted(shards) for count, shards in span_shards.items()},
    }


def run_recovery_smoke(zoo: GlucoseModelZoo, cohort, n_ticks: int = 40) -> Dict[str, float]:
    """Crash-recovery gate (tier-1 smoke): recovery is **bitwise** resume.

    Pins the two halves of the recovery contract (``docs/recovery.md``):

    1. **Snapshot/restore continuation** — a single-process
       :class:`StreamScheduler` ticked partway, snapshotted through the
       :class:`SchedulerCheckpointer` *file* layer (write → read back, so the
       header/checksum path is on the gate), restored, and ticked to the end
       produces samples, predictions, verdicts, and health timelines bitwise
       identical to the uninterrupted scheduler.
    2. **Kill-mix self-healing** — a sharded replay with the full chaos mix
       active (benign faults, device clocks, churn, an online attacker,
       health + ingress gating) and workers SIGKILLed mid-run at 2 and 4
       shards is bitwise identical to the single-process no-kill replay:
       fingerprints, tamper records, and the report rollup.  The supervisor
       must actually respawn (the gate asserts restart counts), so a silent
       "never died" pass is impossible.

    Returns a report dict; raises AssertionError on the first violation.
    """
    import tempfile

    from repro.detectors import KNNDistanceDetector
    from repro.detectors.streaming import StreamingDetector
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
    )

    records = list(cohort)
    health = HealthConfig(degrade_after=1, quarantine_after=2, backoff_ticks=4)
    ingress = IngressConfig(policy=IngressPolicy.REJECT)

    # --- Part A: snapshot → checkpoint file → restore continues bitwise.
    train_windows, _, _ = zoo.dataset.from_record(records[0], "train")
    detector = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])

    def build_single():
        scheduler = StreamScheduler(health=health, ingress=ingress)
        for record in records:
            adapters = {
                "knn": StreamingDetector(
                    detector, unit="sample", history=zoo.dataset.history
                )
            }
            scheduler.open_session(
                record.label, zoo.model_for(record.label), detectors=adapters
            )
        return scheduler

    def tick_fingerprint(outcomes):
        return tuple(
            (
                session_id,
                outcome.tick,
                outcome.sample.tobytes(),
                None if outcome.prediction is None else float(outcome.prediction),
                tuple(
                    (name, verdict.warming, verdict.flagged, verdict.score)
                    for name, verdict in sorted(outcome.verdicts.items())
                ),
                outcome.dropped,
                outcome.ingress,
            )
            for session_id, outcome in sorted(outcomes.items())
        )

    split_at = max(4, n_ticks // 3)
    feeds = [
        {record.label: record.features("test")[tick] for record in records}
        for tick in range(n_ticks)
    ]
    original = build_single()
    for tick in range(split_at):
        original.tick(feeds[tick], now=tick)
    snapshot = original.snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        checkpointer = SchedulerCheckpointer(tmp, keep=2)
        path = checkpointer.save(snapshot)
        snapshot_bytes = path.stat().st_size
        snapshot = checkpointer.load()
    restored = StreamScheduler.restore(snapshot)
    assert restored.n_sessions == original.n_sessions, "restore lost sessions"
    assert restored.n_lanes == original.n_lanes, "restore lost lanes"
    for tick in range(split_at, n_ticks):
        live = tick_fingerprint(original.tick(feeds[tick], now=tick))
        resumed = tick_fingerprint(restored.tick(feeds[tick], now=tick))
        assert resumed == live, (
            f"restored scheduler diverged from uninterrupted run at tick {tick}"
        )
    for session_id in sorted(original._sessions):
        timelines = [
            [
                (event.tick, str(event.state), event.reason,
                 event.delivered_at, event.backoff)
                for event in scheduler._sessions[session_id].health.timeline
            ]
            for scheduler in (original, restored)
        ]
        assert timelines[0] == timelines[1], (
            f"health timeline diverged after restore for session {session_id}"
        )

    # --- Part B: kill-mix — SIGKILL workers mid-replay under the full chaos
    # mix; the supervisor's snapshot+journal recovery must keep the replay
    # bitwise identical to a run that never crashed.
    if len({zoo.model_for(record.label).state_hash() for record in records}) > 1:
        lane_zoo = zoo
    else:
        lane_zoo = GlucoseModelZoo(
            predictor_kwargs=dict(epochs=1, hidden_size=8),
            train_personalized=True,
            seed=3,
        )
        lane_zoo.fit(cohort)
    lane_windows, _, _ = lane_zoo.dataset.from_cohort(cohort, split="train")
    chaos_detector = KNNDistanceDetector(n_neighbors=5).fit(
        lane_windows[::4, -1:, :]
    )

    faults = SensorFaultConfig(
        bias_rate=0.05, spike_rate=0.08, malformed_rate=0.05, seed=11
    )
    clocks = DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19)
    churn = SessionChurnConfig(join_stagger=2, disconnect_every=25, reconnect_after=2)
    episodes = {records[0].label: [AttackEpisode(start=13, duration=12)]}

    class KillSwitch:
        """Passthrough shim that SIGKILLs occupied workers at chosen ticks.

        The replayer drives it exactly like the fabric; only ``tick`` is
        intercepted, so the kill lands between two ticks — the same boundary
        a real mid-run crash is recovered at.
        """

        def __init__(self, fabric, kill_at):
            self._fabric = fabric
            self._kill_at = dict(kill_at)
            self._ticks = 0

        def __getattr__(self, name):
            return getattr(self._fabric, name)

        def tick(self, samples, now=None):
            rank = self._kill_at.get(self._ticks)
            if rank is not None:
                occupied = sorted(
                    {handle.shard for handle in self._fabric._sessions.values()}
                )
                self._fabric.kill_worker(occupied[min(rank, len(occupied) - 1)])
            self._ticks += 1
            return self._fabric.tick(samples, now=now)

    def replay_with(scheduler):
        attacker = OnlineAttacker(episodes)  # fresh: attackers accumulate records
        replayer = StreamReplayer(
            lane_zoo,
            detectors={"knn": (chaos_detector, "sample")},
            attacker=attacker,
            scheduler=scheduler,
            clocks=clocks,
            churn=churn,
            faults=faults,
        )
        report = replayer.replay(cohort, split="test", max_ticks=n_ticks)
        tampers = [
            (
                record.session_id,
                record.tick,
                record.benign_cgm,
                record.delivered_cgm,
                record.eligible,
                record.success,
                record.queries,
                record.warm_started,
            )
            for record in attacker.records
        ]
        return report, tampers

    baseline_report, baseline_tampers = replay_with(
        StreamScheduler(health=health, ingress=ingress)
    )
    baseline = _replay_fingerprint(baseline_report)
    baseline_rollup = baseline_report.rollup("knn")

    respawns = {}
    for n_shards in (2, 4):
        # Kill mid-attack-episode; at 4 shards kill a second worker later so
        # two independent recoveries compose within one replay.
        kill_at = {21: 0} if n_shards == 2 else {21: 0, 29: 1}
        fabric = ShardedScheduler(
            n_shards=n_shards,
            health=health,
            ingress=ingress,
            supervision=SupervisorConfig(snapshot_interval=8, restart_backoff=0.01),
        )
        try:
            report, tampers = replay_with(KillSwitch(fabric, kill_at))
            restarts = sum(shard.restarts for shard in fabric._shards)
        finally:
            fabric.shutdown()
        assert restarts >= len(kill_at), (
            f"expected >= {len(kill_at)} respawns at n_shards={n_shards}, "
            f"got {restarts} — the kill never landed"
        )
        fingerprint = _replay_fingerprint(report)
        assert fingerprint == baseline, (
            f"kill-mix replay diverged from no-kill baseline at n_shards={n_shards}"
        )
        assert tampers == baseline_tampers, (
            f"tamper records diverged under kill-mix at n_shards={n_shards}"
        )
        rollup = report.rollup("knn")
        assert rollup.keys() == baseline_rollup.keys() and all(
            value == baseline_rollup[key]
            or (np.isnan(value) and np.isnan(baseline_rollup[key]))
            for key, value in rollup.items()
        ), f"report rollup diverged under kill-mix at n_shards={n_shards}"
        respawns[n_shards] = restarts

    return {
        "n_sessions": len(baseline),
        "n_ticks": n_ticks,
        "split_at": split_at,
        "snapshot_bytes": snapshot_bytes,
        "shard_counts": (2, 4),
        "respawns": respawns,
    }


def main() -> int:
    print("building tiny fixture...")
    cohort, zoo = build_fixture()
    print("running parity checks (greedy, beam, random x 3 seeds)...")
    try:
        report = run_checks(zoo, cohort)
    except AssertionError as error:
        print(f"PARITY VIOLATION: {error}")
        return 1
    print(f"  max |fast - graph| prediction gap: {report['max_prediction_gap']:.3e}")
    for name in EXPLORER_FACTORIES:
        per_seed = report[name]
        queries = sorted(stats["total_queries"] for stats in per_seed.values())
        print(f"  {name}: parity ok across seeds (query totals {queries})")
    print("running fused-training parity (gradients + fixed-seed loss curves)...")
    try:
        training = run_training_parity(zoo, cohort)
    except AssertionError as error:
        print(f"TRAINING PARITY VIOLATION: {error}")
        return 1
    print(
        f"  gradient gap {training['gradient_gap']:.3e}, loss-curve gaps "
        f"predictor {training['predictor_loss_gap']:.3e} / "
        f"MAD-GAN {training['madgan_loss_gap']:.3e}"
    )
    print("running serving smoke (streamed replay + online attack, 50 ticks)...")
    try:
        serving = run_serving_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"SERVING PARITY VIOLATION: {error}")
        return 1
    print(
        f"  max |stream - offline| prediction gap: {serving['max_stream_gap']:.3e} "
        f"({serving['n_sessions']} sessions, {serving['tampered_ticks']} tampered ticks)"
    )
    print("running chaos smoke (fault mixes + ingress policies + full chaos)...")
    try:
        chaos = run_chaos_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"CHAOS GATE VIOLATION: {error}")
        return 1
    print(f"  all {len(chaos)} chaos gates passed on the tiny fixture")
    print("running shard smoke (sharded fabric bitwise parity at 1/2/4 shards)...")
    try:
        shard = run_shard_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"SHARD PARITY VIOLATION: {error}")
        return 1
    print(
        f"  sharded == single-process bitwise across shard counts "
        f"{shard['shard_counts']} ({shard['n_sessions']} session segments, "
        f"{shard['campaign_records']} campaign records at n_workers=2)"
    )
    print("running detector-family smoke (LSTM-VAE + HMM streaming/shard parity)...")
    try:
        family = run_detector_family_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"DETECTOR FAMILY PARITY VIOLATION: {error}")
        return 1
    print(
        f"  streaming == offline (VAE score gap "
        f"{family['lstm_vae']['stream_score_gap']:.3e}, HMM bitwise); "
        f"sharded bitwise across shard counts {family['shard_counts']}"
    )
    print("running obs smoke (telemetry inertness + metric merge determinism)...")
    try:
        obs = run_obs_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"OBS GATE VIOLATION: {error}")
        return 1
    print(
        f"  observer inert; {obs['n_series']} metric series bitwise identical "
        f"across shard counts {obs['shard_counts']}"
    )
    print("running recovery smoke (snapshot/restore + kill-mix self-healing)...")
    try:
        recovery = run_recovery_smoke(zoo, cohort)
    except AssertionError as error:
        print(f"RECOVERY GATE VIOLATION: {error}")
        return 1
    print(
        f"  restore at tick {recovery['split_at']} continues bitwise "
        f"({recovery['snapshot_bytes']} snapshot bytes); kill-mix respawns "
        f"{recovery['respawns']} bitwise at shard counts {recovery['shard_counts']}"
    )
    print("all parity checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
