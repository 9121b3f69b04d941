"""Chaos replay harness: fault mixes x attacks x churn x clocks, end to end.

Runs a declarative scenario suite through the full serving fabric — seeded
benign sensor faults (:class:`~repro.serving.SensorFaultConfig`), the online
URET attacker, per-device transmission clocks, session churn, ingress
validation, and the per-session health state machine — and asserts the
robustness contract the fault-injection layer promises:

* **No unhandled exceptions.**  Every scenario, including the full-chaos mix,
  must complete; lane isolation and quarantine are supposed to absorb
  poisoned streams, not crash the scheduler.
* **Zero-config inertness.**  A replay with ``SensorFaultConfig()`` (all
  rates zero) must be *bitwise identical* to one with no injector at all:
  the twin-table row ``chaos_baseline:single~zero_faults`` of
  ``scripts/check_parity.py``, compared through the one
  :func:`~repro.serving.replay_fingerprint`.
* **Bounded false-alarm inflation.**  Benign device faults may inflate the
  detector's benign false-alarm rate by at most
  :data:`FP_INFLATION_BOUND` over the fault-free baseline.  A detector that
  confuses glitches with tampering is unusable; this is the paper's
  false-alarm cost measured under realistic hardware flakiness.
* **Attack detection preserved.**  Running the same attack campaign on top
  of benign faults must not drop episode detection below the fault-free
  campaign's rate minus :data:`DETECTION_DROP_TOLERANCE`.
* **Family false alarms bounded** (full runs only).  The LSTM-VAE + HMM
  voting ensemble's benign false-alarm rate under benign faults plus the
  attack campaign may exceed its fault-free rate by at most
  :data:`FP_INFLATION_BOUND` — the new detector family must not trade its
  verdict-parity guarantees for fault-confused alarms.
* **Recovery is bitwise resume.**  SIGKILLing shard workers mid-replay at 2
  and 4 shards — with the full chaos mix still active — must produce a
  replay bitwise identical to one that never crashed: the supervisor's
  snapshot + journal recovery (``docs/recovery.md``) absorbs the kill.  The
  ``recovery_bitwise_identical`` gate runs the twin-table rows
  ``chaos_kill_mix:single~sharded(n)+kill(...)``, which assert the respawns
  actually happened so a silent no-op kill cannot pass.

Writes ``BENCH_chaos.json`` next to the repo root.  Usage::

    PYTHONPATH=src python scripts/chaos_replay.py [--output PATH]
    PYTHONPATH=src python scripts/chaos_replay.py --smoke [--output PATH]

``--smoke`` shrinks every trace so the suite finishes in a few seconds; it is
wired into CI and (via ``scripts/check_parity.py::run_chaos_smoke``) the
tier-1 test suite.  A smoke run writes a report only when ``--output`` is
given, so it never overwrites the committed full-run ``BENCH_chaos.json``.
"""

from __future__ import annotations

import argparse
import platform
import sys
import traceback
from pathlib import Path

import numpy as np

from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.detectors import KNNDistanceDetector
from repro.glucose import GlucoseModelZoo
from repro.serving import (
    AttackEpisode,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    OnlineAttacker,
    SensorFaultConfig,
    StreamReplayer,
    StreamScheduler,
)
from repro.utils.jsonio import dumps_strict

from check_parity import (
    ATTACK_DURATION,
    ATTACK_START,
    CHAOS_CHURN,
    CHAOS_CLOCKS,
    CHAOS_FAULTS,
    CHAOS_SMOKE_TICKS,
    KILL_TICKS,
    SINGLE,
    TwinBench,
    TwinRow,
    Variant,
    chaos_specs,
    lane_zoo_for,
    run_twin,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The fixture (cohort + aggregate zoo); ``scripts/bench_serving.py`` imports
#: it too, so both benchmarks serve the same models.
BENCH_PATIENTS = [("A", 5), ("A", 0), ("A", 2)]
BENCH_SEED = 13
ZOO_KWARGS = dict(
    predictor_kwargs=dict(epochs=2, hidden_size=16), train_personalized=False, seed=5
)
MADGAN_KWARGS = dict(
    epochs=5, hidden_size=12, inversion_steps=40, warm_inversion_steps=10, seed=0
)
#: The LSTM-VAE + HMM voting ensemble (``--smoke`` skips it, like MAD-GAN).
VAE_KWARGS = dict(epochs=5, hidden_size=12, latent_dim=3, batch_size=32, seed=0)
HMM_KWARGS = dict(n_states=4, n_iter=5, seed=0)

#: Samples each device delivers per scenario (``--smoke`` uses the smaller).
FULL_TICKS = 96
SMOKE_TICKS = CHAOS_SMOKE_TICKS

#: Benign hardware-flakiness mix: every non-malformed fault kind at a hazard
#: that corrupts a visible but minority share of ticks.
BENIGN_FAULTS = SensorFaultConfig(
    bias_rate=0.01,
    stuck_rate=0.01,
    spike_rate=0.02,
    drift_rate=0.005,
    dropout_rate=0.01,
    seed=29,
)
#: Garbage-heavy mix for exercising the ingress policies.
MALFORMED_FAULTS = SensorFaultConfig(malformed_rate=0.05, spike_rate=0.02, seed=31)
#: The full-chaos scenario's faults, clocks and churn are ``CHAOS_*`` from
#: ``check_parity.py``, shared with the kill-mix twin rows.

#: The gates (calibrated on this fixture; see ``docs/robustness.md``).
#: Benign faults push the kNN detector's benign false-alarm rate up by a few
#: points (spikes and stuck-at runs look anomalous at the sample level); the
#: bound caps the inflation well below unusable while still failing loudly if
#: ingress/quarantine regress and garbage starts reaching the detectors.
FP_INFLATION_BOUND = 0.10
#: Episode detection under benign faults must match the fault-free campaign
#: (the fixture detects every episode in both); any slack here would let a
#: fault-confused pipeline trade detections for false alarms silently.
DETECTION_DROP_TOLERANCE = 0.0

def build_cohort():
    profiles = [make_patient_profile(subset, pid) for subset, pid in BENCH_PATIENTS]
    return SyntheticOhioT1DM(
        train_days=2, test_days=1, seed=BENCH_SEED, profiles=profiles
    ).generate()


def build_fixture():
    cohort = build_cohort()
    zoo = GlucoseModelZoo(**ZOO_KWARGS)
    zoo.fit(cohort)
    return cohort, zoo


def build_detectors(zoo, cohort, with_madgan: bool = False, with_family: bool = False):
    """Fitted streaming monitors: kNN on samples, optional window brains.

    ``with_madgan`` adds the MAD-GAN monitor; ``with_family`` adds a
    2-of-2 voting ensemble of the LSTM-VAE and Gaussian-HMM detectors
    (key ``"vae_hmm"``), the ISSUE-9 family scenario's monitor.
    """
    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    detectors = {
        "knn": (KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :]), "sample")
    }
    if with_madgan:
        from repro.detectors import MADGANDetector

        madgan = MADGANDetector(**MADGAN_KWARGS)
        madgan.fit(train_windows[::2])
        detectors["madgan"] = (madgan, "window")
    if with_family:
        from repro.detectors import (
            GaussianHMMDetector,
            LSTMVAEDetector,
            VotingEnsembleDetector,
        )

        benign = train_windows[::2]
        ensemble = VotingEnsembleDetector(
            [
                LSTMVAEDetector(**VAE_KWARGS).fit(benign),
                GaussianHMMDetector(**HMM_KWARGS).fit(benign),
            ],
            min_votes=2,
        )
        detectors["vae_hmm"] = (ensemble, "window")
    return detectors


def build_scenarios(with_madgan: bool, with_family: bool = False) -> list:
    """The declarative scenario suite.

    Each entry is a plain dict; ``run_scenario`` turns it into a configured
    :class:`StreamReplayer`.  Keys: ``faults`` (SensorFaultConfig or None),
    ``attack`` (bool), ``clocks``/``churn`` (configs or None), ``health``
    (bool — per-session state machine + lane isolation), ``ingress``
    (IngressPolicy or None), ``watchdog`` (int or None), ``madgan``/
    ``family`` (bool — which window monitors join the kNN baseline).
    """
    base = dict(
        faults=None, attack=False, clocks=None, churn=None,
        health=False, ingress=None, watchdog=None, madgan=False, family=False,
    )
    scenarios = [
        dict(base, name="baseline",
             description="fault-free, attack-free reference replay"),
        dict(base, name="zero_config", faults=SensorFaultConfig(),
             description="zero-rate fault config; must be bitwise-identical to baseline"),
        dict(base, name="attack_only", attack=True,
             description="URET campaign on every stream, no faults (reference detection rate)"),
        dict(base, name="benign_faults", faults=BENIGN_FAULTS, health=True,
             ingress=IngressPolicy.CLAMP,
             description="benign hardware flakiness under clamp ingress (FP-inflation gate)"),
        dict(base, name="malformed_reject", faults=MALFORMED_FAULTS, health=True,
             ingress=IngressPolicy.REJECT,
             description="garbage-heavy stream, reject policy (drops + quarantine path)"),
        dict(base, name="malformed_hold", faults=MALFORMED_FAULTS, health=True,
             ingress=IngressPolicy.HOLD_LAST,
             description="garbage-heavy stream, hold-last repair policy"),
        dict(base, name="faults_plus_attack", faults=BENIGN_FAULTS, attack=True,
             health=True, ingress=IngressPolicy.CLAMP,
             description="attack campaign on top of benign faults (detection-preservation gate)"),
        dict(base, name="full_chaos", faults=CHAOS_FAULTS, attack=True,
             clocks=CHAOS_CLOCKS, churn=CHAOS_CHURN, health=True,
             ingress=IngressPolicy.CLAMP, watchdog=3, madgan=with_madgan,
             description="everything at once: faults + attack + churn + device clocks"),
    ]
    if with_family:
        scenarios += [
            dict(base, name="family_baseline", family=True,
                 description="LSTM-VAE + HMM voting ensemble, fault-free "
                             "(reference false-alarm rate)"),
            dict(base, name="family_faults_attack", faults=BENIGN_FAULTS,
                 attack=True, health=True, ingress=IngressPolicy.CLAMP,
                 family=True,
                 description="LSTM-VAE + HMM voting ensemble under benign "
                             "faults plus the URET campaign "
                             "(family FP-inflation gate)"),
        ]
    return scenarios


def build_attacker(cohort, n_ticks: int) -> OnlineAttacker:
    """A fresh campaign (attacker state is per-replay): one episode per device."""
    duration = min(ATTACK_DURATION, max(n_ticks - ATTACK_START - 1, 1))
    return OnlineAttacker(
        {
            record.label: [AttackEpisode(start=ATTACK_START, duration=duration)]
            for record in cohort
        }
    )


def run_scenario(zoo, cohort, detectors, spec: dict, n_ticks: int):
    scheduler = StreamScheduler(
        health=HealthConfig() if spec["health"] else None,
        ingress=IngressConfig(policy=spec["ingress"]) if spec["ingress"] else None,
    )
    replayer = StreamReplayer(
        zoo,
        detectors=detectors,
        attacker=build_attacker(cohort, n_ticks) if spec["attack"] else None,
        scheduler=scheduler,
        clocks=spec["clocks"],
        churn=spec["churn"],
        faults=spec["faults"],
        divergence_watchdog=spec["watchdog"],
    )
    return replayer.replay(cohort, split="test", max_ticks=n_ticks)


def summarize(report, spec: dict) -> dict:
    health = report.health_summary()
    entry = {
        "description": spec["description"],
        "n_sessions": len(report.sessions),
        "ticks_delivered": int(sum(trace.n_ticks for trace in report.sessions.values())),
        "faulted_ticks": int(
            sum(len(trace.faulted_ticks) for trace in report.sessions.values())
        ),
        "dropped_ticks": int(
            sum(len(trace.dropped_ticks) for trace in report.sessions.values())
        ),
        "attacked_ticks": int(
            sum(len(trace.attacked_ticks) for trace in report.sessions.values())
        ),
        "quarantines": int(sum(counts["quarantines"] for counts in health.values())),
        "detectors": {name: report.rollup(name) for name in report.detector_names},
        "health": health,
    }
    return entry


def run_suite(
    n_ticks: int,
    with_madgan: bool,
    verbose: bool = True,
    fixture=None,
    with_family: bool = False,
):
    """Run every scenario and evaluate the gates.

    ``fixture`` is an optional prebuilt ``(cohort, zoo)`` pair (the tier-1
    smoke passes its own tiny fixture); the benchmark fixture is built when
    omitted.  ``with_family`` adds the LSTM-VAE + HMM ensemble scenarios and
    their FP-inflation gate.  Returns ``(report_dict, ok)``; never raises
    for an in-scenario failure (that is itself gate #1).
    """
    def say(message: str) -> None:
        if verbose:
            print(message)

    if fixture is None:
        say("building fixture (cohort + trained aggregate forecaster)...")
        cohort, zoo = build_fixture()
    else:
        cohort, zoo = fixture
    say("fitting streaming detectors...")
    detectors = build_detectors(
        zoo, cohort, with_madgan=with_madgan, with_family=with_family
    )
    knn_only = {"knn": detectors["knn"]}

    scenarios = build_scenarios(with_madgan, with_family)
    # The baseline and zero-config scenarios are the twin-table row
    # chaos_baseline:single~zero_faults; their summaries reuse its replays.
    bench = TwinBench(cohort, zoo)
    zero_config = TwinRow(chaos_specs(n_ticks)[0], SINGLE, Variant(zero_faults=True))
    twin_sides = {"baseline": zero_config.a, "zero_config": zero_config.b}
    results = {}
    failures = {}
    for spec in scenarios:
        name = spec["name"]
        say(f"scenario {name!r}: {spec['description']}...")
        scenario_detectors = dict(knn_only)
        if spec["madgan"]:
            scenario_detectors["madgan"] = detectors["madgan"]
        if spec["family"]:
            scenario_detectors["vae_hmm"] = detectors["vae_hmm"]
        try:
            if name in twin_sides:
                report = bench.replay(zero_config.scenario, twin_sides[name])["report"]
            else:
                report = run_scenario(zoo, cohort, scenario_detectors, spec, n_ticks)
        except Exception as error:  # gate #1: nothing may escape the fabric
            failures[name] = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            say(f"  UNHANDLED EXCEPTION: {failures[name]}")
            continue
        results[name] = summarize(report, spec)
        rollup = results[name]["detectors"]["knn"]
        say(
            f"  {results[name]['ticks_delivered']} ticks "
            f"({results[name]['faulted_ticks']} faulted, "
            f"{results[name]['dropped_ticks']} dropped, "
            f"{results[name]['quarantines']} quarantines); "
            f"knn FA rate {rollup['false_alarm_rate_benign']:.3f}, "
            f"detection rate {rollup['detection_rate']:.2f}"
        )

    gates = {}
    gates["no_unhandled_exceptions"] = {
        "passed": not failures,
        "failures": failures,
    }
    zero_config_ok = False
    if not set(twin_sides) & set(failures):
        try:
            run_twin(bench, zero_config)
            zero_config_ok = True
        except AssertionError as error:
            say(f"  zero-config twin diverged: {error}")
    gates["zero_config_bitwise_identical"] = {"passed": bool(zero_config_ok)}

    if "baseline" in results and "benign_faults" in results:
        baseline_fa = results["baseline"]["detectors"]["knn"]["false_alarm_rate_benign"]
        faulted_fa = results["benign_faults"]["detectors"]["knn"]["false_alarm_rate_benign"]
        inflation = faulted_fa - baseline_fa
        gates["fp_inflation_bounded"] = {
            "passed": bool(inflation <= FP_INFLATION_BOUND),
            "baseline_false_alarm_rate": baseline_fa,
            "faulted_false_alarm_rate": faulted_fa,
            "inflation": inflation,
            "bound": FP_INFLATION_BOUND,
        }
    else:
        gates["fp_inflation_bounded"] = {"passed": False, "error": "scenario missing"}

    if "attack_only" in results and "faults_plus_attack" in results:
        clean_rate = results["attack_only"]["detectors"]["knn"]["detection_rate"]
        chaos_rate = results["faults_plus_attack"]["detectors"]["knn"]["detection_rate"]
        gates["detection_preserved_under_faults"] = {
            "passed": bool(chaos_rate >= clean_rate - DETECTION_DROP_TOLERANCE),
            "fault_free_detection_rate": clean_rate,
            "faulted_detection_rate": chaos_rate,
            "tolerance": DETECTION_DROP_TOLERANCE,
        }
    else:
        gates["detection_preserved_under_faults"] = {
            "passed": False, "error": "scenario missing",
        }

    if with_family:
        if "family_baseline" in results and "family_faults_attack" in results:
            clean_fa = results["family_baseline"]["detectors"]["vae_hmm"][
                "false_alarm_rate_benign"
            ]
            chaos_fa = results["family_faults_attack"]["detectors"]["vae_hmm"][
                "false_alarm_rate_benign"
            ]
            inflation = chaos_fa - clean_fa
            gates["family_fp_inflation_bounded"] = {
                "passed": bool(inflation <= FP_INFLATION_BOUND),
                "baseline_false_alarm_rate": clean_fa,
                "faulted_false_alarm_rate": chaos_fa,
                "inflation": inflation,
                "bound": FP_INFLATION_BOUND,
            }
        else:
            gates["family_fp_inflation_bounded"] = {
                "passed": False, "error": "scenario missing",
            }

    ok = all(gate["passed"] for gate in gates.values())
    report_dict = {
        "benchmark": "chaos_replay",
        "config": {
            "patients": (
                [record.label for record in cohort]
                if fixture is not None
                else ["_".join(map(str, p)) for p in BENCH_PATIENTS]
            ),
            "cohort_seed": BENCH_SEED if fixture is None else None,
            "ticks_per_device": n_ticks,
            "attack": {"start": ATTACK_START, "duration": ATTACK_DURATION},
            "with_madgan": with_madgan,
            "with_family": with_family,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scenarios": results,
        "gates": gates,
        "all_gates_passed": bool(ok),
    }
    return report_dict, ok


def run_kill_mix(n_ticks: int, fixture=None, verbose: bool = True) -> dict:
    """SIGKILL shard workers mid-replay under the full chaos mix.

    Runs the twin-table rows ``chaos_kill_mix:single~sharded(n)+kill(...)``
    for every shard count in :data:`KILL_TICKS`: the killed, supervised
    replay must be bitwise identical to the uninterrupted single-process one
    (the one :func:`~repro.serving.replay_fingerprint`, tamper records and
    rollup included), and every scheduled kill must have been respawned.
    Returns the ``recovery_bitwise_identical`` gate entry; never raises for
    an in-replay failure (that fails the gate).

    ``fixture`` is an optional ``(cohort, zoo)`` pair; the replays run on a
    zoo with one lane per patient (:func:`check_parity.lane_zoo_for`).
    """
    def say(message: str) -> None:
        if verbose:
            print(message)

    if fixture is None:
        say("building kill-mix fixture (cohort + personalized lane zoo)...")
        cohort, zoo = build_cohort(), None
    else:
        cohort, zoo = fixture
    bench = TwinBench(cohort, lane_zoo_for(cohort, zoo))
    kill_mix = chaos_specs(n_ticks)[1]

    gate = {"passed": True, "n_ticks": n_ticks, "shards": {}}
    for n_shards, schedule in sorted(KILL_TICKS.items()):
        kill = tuple((tick, rank) for tick, rank in schedule if tick < n_ticks)
        row = TwinRow(kill_mix, SINGLE, Variant(shards=n_shards, kill=kill))
        entry = gate["shards"][str(n_shards)] = {"kill_ticks": [tick for tick, _ in kill]}
        say(f"kill-mix at {n_shards} shards (SIGKILL at ticks {entry['kill_ticks']})...")
        try:
            first, second = run_twin(bench, row)
        except Exception as error:  # the fabric must absorb the kill
            gate["passed"] = False
            entry["error"] = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            say(f"  FAILED: {entry['error']}")
            continue
        entry.update(
            respawns=second["restarts"],
            bitwise_identical=True,
            health_identical=(
                first["report"].health_summary() == second["report"].health_summary()
            ),
        )
        say(f"  respawns={second['restarts']}, bitwise=yes")
    return gate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=None,
        help="where to write the chaos report (default: BENCH_chaos.json at the "
        "repo root; a --smoke run writes one only when this is given)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces, kNN only — the CI/tier-1 configuration",
    )
    args = parser.parse_args()
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_chaos.json"

    n_ticks = SMOKE_TICKS if args.smoke else FULL_TICKS
    report, ok = run_suite(
        n_ticks, with_madgan=not args.smoke, with_family=not args.smoke
    )
    recovery = run_kill_mix(n_ticks)
    report["gates"]["recovery_bitwise_identical"] = recovery
    ok = ok and recovery["passed"]
    report["all_gates_passed"] = bool(ok)
    if args.output is not None:
        args.output.write_text(dumps_strict(report, indent=2) + "\n")

    print()
    for name, gate in report["gates"].items():
        status = "PASS" if gate["passed"] else "FAIL"
        print(f"gate {name}: {status}")
    print(f"report -> {args.output}" if args.output else "smoke run: no report written")
    if not ok:
        print("CHAOS GATES FAILED")
        return 1
    print("all chaos gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
