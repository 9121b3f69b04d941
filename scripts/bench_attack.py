"""Micro-benchmark for the attack hot path: graph vs fast path, per-window vs
batched vs cohort-batched, plus per-explorer lockstep timings.

Times one small, fixed attack campaign under five engine configurations:

* ``graph_per_window``       — the seed configuration: every model query runs
  through the full reverse-mode autodiff graph
  (``GlucosePredictor.predict_graph``), one
  ``EvasionAttack.attack_window`` call per window.
* ``fast_per_window``        — graph-free numpy inference, one
  ``attack_window`` call per window.
* ``fast_batched``           — graph-free inference plus lockstep batched
  search per patient (an ``AttackCampaign.run_patient`` loop), with the
  per-edge candidate expansion.
* ``fast_batched_vectorized``— the ``run_patient`` loop with vectorized
  candidate generation (``candidates_batch`` + batched constraint passes).
* ``fast_cohort``            — the full engine: ``AttackCampaign.run_cohort``,
  vectorized expansion plus cross-patient cohort batching (patients sharing a
  model advance together, one model query per search depth for the whole
  cohort).

The benchmark cohort shares the aggregate model (``train_personalized=False``)
so cross-patient batching is exercised — this is the aggregate-model campaign
of the paper's Appendix A.  A second section times each explorer's lockstep
``search_batch`` against its sequential per-window loop.

Writes ``BENCH_attack.json`` next to the repo root so later PRs can track the
performance trajectory, and verifies the fast path's regression guarantee
(fast vs graph predictions within 1e-10) on every benchmark window.

The cohort gate (``fast_batched / fast_cohort >= 2x``) reads the median of
:data:`COHORT_PAIRS` alternating pairs (``alternating_pairs`` from
``scripts/bench_serving.py``, host-clock scaled), each side repeating the
campaign for at least :data:`COHORT_PAIR_SECONDS`; the report records every
pair and the quartiles.  A best-of-2 over one ``fast_cohort`` campaign
(40–100 ms) was too short for that bound on a shared host.

``--smoke`` runs the equivalence check plus one untimed pass of every
configuration and explorer on a coarse stride, checks that every fast
configuration's records equal ``fast_per_window``'s (attribution,
eligibility, success, queries, path and adversarial-window bytes), and
writes nothing (CI use).

Usage::

    PYTHONPATH=src python scripts/bench_attack.py [--output PATH] [--repeats N]
    PYTHONPATH=src python scripts/bench_attack.py --smoke
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.attacks import (
    AttackCampaign,
    BeamExplorer,
    CampaignResult,
    EvasionAttack,
    GreedyExplorer,
    RandomExplorer,
)
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.glucose import GlucoseModelZoo
from repro.obs import Timer
from repro.utils.jsonio import dumps_strict

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

BENCH_PATIENTS = [("A", 5), ("A", 0), ("A", 2)]
BENCH_STRIDE = 4
EXPLORER_STRIDE = 8
BENCH_SEED = 13
# All three patients attack through the shared aggregate model, so the
# cohort-batched engine merges the whole cohort into one lockstep search.
ZOO_KWARGS = dict(
    predictor_kwargs=dict(epochs=2, hidden_size=8), train_personalized=False, seed=5
)

TARGET_TOTAL_SPEEDUP = 5.0
TARGET_COHORT_SPEEDUP = 2.0
#: Alternating fast_batched / fast_cohort pairs behind the cohort gate, and
#: the least campaign time (seconds) each side of a pair repeats.
COHORT_PAIRS = 7
COHORT_PAIR_SECONDS = 1.0

#: Coarse strides of the ``--smoke`` pass (correctness only, no timing).
SMOKE_STRIDE = 16
SMOKE_EXPLORER_STRIDE = 24


def build_fixture():
    """Build the fixed cohort + trained zoo the benchmark always uses."""
    profiles = [make_patient_profile(subset, pid) for subset, pid in BENCH_PATIENTS]
    cohort = SyntheticOhioT1DM(
        train_days=2, test_days=1, seed=BENCH_SEED, profiles=profiles
    ).generate()
    zoo = GlucoseModelZoo(**ZOO_KWARGS)
    zoo.fit(cohort)
    return cohort, zoo


@contextmanager
def graph_inference(zoo: GlucoseModelZoo):
    """Route every model's ``predict`` through ``predict_graph`` meanwhile."""
    models = list(zoo.models.values())
    for model in models:
        model.predict = model.predict_graph
    try:
        yield
    finally:
        for model in models:
            vars(model).pop("predict", None)


class PerWindowAttack(EvasionAttack):
    """``attack_batch`` as its sequential reference: one ``attack_window`` per window."""

    def attack_batch(self, windows, scenarios, constraint=None):
        return [
            self.attack_window(window, scenario, constraint)
            for window, scenario in zip(windows, scenarios)
        ]


def make_attack_factory(explorer_factory=None, vectorized: bool = True, per_window: bool = False):
    """An EvasionAttack factory with a chosen explorer, expansion mode and engine."""
    attack_class = PerWindowAttack if per_window else EvasionAttack

    def factory(predictor):
        explorer = explorer_factory() if explorer_factory is not None else GreedyExplorer()
        explorer.use_batched_candidates = vectorized
        return attack_class(predictor, explorer=explorer)

    return factory


def time_campaign(
    zoo,
    cohort,
    repeats: int,
    graph: bool = False,
    per_window: bool = False,
    merge_cohort: bool = False,
    vectorized: bool = True,
    explorer_factory=None,
    stride: int = BENCH_STRIDE,
):
    """Run the fixed campaign ``repeats`` times; return (best seconds, result).

    ``merge_cohort`` runs ``run_cohort``; otherwise the campaign is a
    ``run_patient`` loop over the cohort.
    """
    timer = Timer()
    result = None
    with graph_inference(zoo) if graph else nullcontext():
        for _ in range(repeats):
            campaign = AttackCampaign(
                zoo,
                stride=stride,
                attack_factory=make_attack_factory(explorer_factory, vectorized, per_window),
            )
            with timer.lap():
                if merge_cohort:
                    result = campaign.run_cohort(cohort, split="test")
                else:
                    result = CampaignResult()
                    for record in cohort:
                        result.records.extend(campaign.run_patient(record, "test").records)
    return timer.best, result


def record_keys(result):
    """What two engines must agree on, per record, for the same campaign."""
    return [
        (
            record.patient_label,
            record.window_index,
            record.result.eligible,
            record.result.success,
            record.result.queries,
            tuple(record.result.path),
            record.result.adversarial_window.tobytes(),
        )
        for record in result.records
    ]


def equivalence_check(zoo, cohort) -> float:
    """Max |fast - graph| prediction gap over every benchmark window."""
    worst = 0.0
    for record in cohort:
        windows, _, _ = zoo.dataset.from_record(record, "test")
        if len(windows) == 0:
            continue
        model = zoo.model_for(record.label)
        gap = np.abs(model.predict(windows) - model.predict_graph(windows)).max()
        worst = max(worst, float(gap))
    return worst


def bench_explorers(zoo, cohort, repeats: int, stride: int = EXPLORER_STRIDE):
    """Lockstep vs sequential wall-clock per explorer (fast inference path)."""
    factories = {
        "greedy": lambda: GreedyExplorer(max_depth=3),
        "beam": lambda: BeamExplorer(beam_width=2, max_depth=2),
        "random": lambda: RandomExplorer(max_depth=2, n_walks=6, seed=11),
    }
    report = {}
    for name, factory in factories.items():
        sequential, _ = time_campaign(
            zoo, cohort, repeats, per_window=True,
            explorer_factory=factory, stride=stride,
        )
        lockstep, result = time_campaign(
            zoo, cohort, repeats, merge_cohort=True,
            explorer_factory=factory, stride=stride,
        )
        report[name] = {
            "sequential_seconds": sequential,
            "lockstep_seconds": lockstep,
            "speedup": sequential / lockstep,
            "attacked_windows": len(result.records),
        }
        print(
            f"  {name}: sequential {sequential:.3f}s, lockstep {lockstep:.3f}s "
            f"({report[name]['speedup']:.1f}x, {report[name]['attacked_windows']} windows)"
        )
    return report


CONFIGURATIONS = {
    "graph_per_window": dict(per_window=True, graph=True),
    "fast_per_window": dict(per_window=True),
    "fast_batched": dict(vectorized=False),
    "fast_batched_vectorized": dict(vectorized=True),
    "fast_cohort": dict(vectorized=True, merge_cohort=True),
}


def cohort_pairs(zoo, cohort) -> dict:
    """``fast_batched / fast_cohort`` over alternating pairs.

    Each pass repeats the campaign as often as one ``fast_cohort`` campaign
    fits into :data:`COHORT_PAIR_SECONDS`, on both sides, so the faster side
    still times at least that long.
    """
    from bench_serving import alternating_pairs

    probe, _ = time_campaign(zoo, cohort, repeats=1, **CONFIGURATIONS["fast_cohort"])
    campaigns = max(1, math.ceil(COHORT_PAIR_SECONDS / probe))

    def run(merged):
        config = CONFIGURATIONS["fast_cohort" if merged else "fast_batched"]
        seconds = 0.0
        for _ in range(campaigns):
            elapsed, result = time_campaign(zoo, cohort, repeats=1, **config)
            seconds += elapsed
        return seconds, len(result.records)

    summary, outputs = alternating_pairs(
        COHORT_PAIRS, run, lambda batched, merged: batched / merged
    )
    if any(output[False] != output[True] for output in outputs):
        raise SystemExit("fast_cohort attacked a different window count than fast_batched")
    summary["campaigns_per_side"] = campaigns
    return summary


def run_smoke(zoo, cohort) -> None:
    """One untimed pass of every configuration and explorer; no timing gates."""
    max_gap = equivalence_check(zoo, cohort)
    print(f"  max |fast - graph| prediction gap: {max_gap:.3e}")
    if not max_gap <= 1e-10:
        raise SystemExit("fast path diverged from the autodiff path beyond 1e-10")
    keys = {}
    for name, config in CONFIGURATIONS.items():
        _, result = time_campaign(zoo, cohort, repeats=1, stride=SMOKE_STRIDE, **config)
        keys[name] = record_keys(result)
        print(f"  {name}: {len(result.records)} windows")
    # graph_per_window is left out: its predictions agree to 1e-10, not bitwise.
    for name in ("fast_batched", "fast_batched_vectorized", "fast_cohort"):
        if keys[name] != keys["fast_per_window"]:
            raise SystemExit(f"{name} records differ from fast_per_window")
    bench_explorers(zoo, cohort, repeats=1, stride=SMOKE_EXPLORER_STRIDE)
    print("attack smoke passed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_attack.json",
        help="where to write the benchmark report (default: repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed repetitions per configuration; the best run is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="untimed correctness pass over every configuration; writes nothing",
    )
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    print("building fixture (cohort + trained zoo)...")
    cohort, zoo = build_fixture()
    if args.smoke:
        run_smoke(zoo, cohort)
        return

    print("checking fast-path regression guarantee...")
    max_gap = equivalence_check(zoo, cohort)
    print(f"  max |fast - graph| prediction gap: {max_gap:.3e}")

    timings = {}
    record_counts = {}
    total_queries = {}
    for name, config in CONFIGURATIONS.items():
        print(f"timing {name}...")
        seconds, result = time_campaign(zoo, cohort, repeats=args.repeats, **config)
        timings[name] = seconds
        record_counts[name] = len(result.records)
        total_queries[name] = int(sum(r.result.queries for r in result.records))
        print(f"  {seconds:.3f}s ({record_counts[name]} windows, {total_queries[name]} queries)")

    print(f"timing the cohort gate ({COHORT_PAIRS} alternating pairs)...")
    pairs = cohort_pairs(zoo, cohort)
    q1, q3 = pairs["quartiles"]
    print(
        f"  fast_batched / fast_cohort: median {pairs['median']:.2f}x "
        f"(quartiles {q1:.2f}-{q3:.2f}x, {pairs['campaigns_per_side']} campaigns per side)"
    )

    print("timing explorers (lockstep vs sequential)...")
    explorer_report = bench_explorers(zoo, cohort, repeats=args.repeats)

    speedup_total = timings["graph_per_window"] / timings["fast_cohort"]
    speedup_cohort = pairs["median"]
    report = {
        "benchmark": "attack_campaign",
        "config": {
            "patients": ["_".join(map(str, p)) for p in BENCH_PATIENTS],
            "stride": BENCH_STRIDE,
            "explorer_stride": EXPLORER_STRIDE,
            "cohort_seed": BENCH_SEED,
            "repeats": args.repeats,
            "shared_model": "aggregate",
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "seconds": timings,
        "attacked_windows": record_counts["fast_cohort"],
        "model_queries": total_queries["fast_cohort"],
        "speedup": {
            "fast_path_only": timings["graph_per_window"] / timings["fast_per_window"],
            "batching_only": timings["fast_per_window"] / timings["fast_batched"],
            "vectorized_expansion_only": (
                timings["fast_batched"] / timings["fast_batched_vectorized"]
            ),
            "cohort_over_fast_batched": speedup_cohort,
            "total": speedup_total,
        },
        "cohort_pairs": pairs,
        "explorers": explorer_report,
        "equivalence": {
            "max_prediction_gap": max_gap,
            "tolerance": 1e-10,
            "within_tolerance": bool(max_gap <= 1e-10),
        },
        "target_speedup": TARGET_TOTAL_SPEEDUP,
        "meets_target": bool(speedup_total >= TARGET_TOTAL_SPEEDUP),
        "target_cohort_speedup": TARGET_COHORT_SPEEDUP,
        "meets_cohort_target": bool(speedup_cohort >= TARGET_COHORT_SPEEDUP),
    }
    args.output.write_text(dumps_strict(report, indent=2) + "\n")
    print(
        f"\ntotal speedup: {speedup_total:.1f}x (target >= {TARGET_TOTAL_SPEEDUP:g}x), "
        f"cohort vs PR1 batched: {speedup_cohort:.1f}x (target >= "
        f"{TARGET_COHORT_SPEEDUP:g}x) -> {args.output}"
    )
    if not report["equivalence"]["within_tolerance"]:
        raise SystemExit("fast path diverged from the autodiff path beyond 1e-10")
    if not report["meets_target"]:
        raise SystemExit("total speedup target not met")
    if not report["meets_cohort_target"]:
        raise SystemExit("cohort speedup target not met")


if __name__ == "__main__":
    main()
