#!/usr/bin/env python
"""Summarize a telemetry JSONL export — or gate one end-to-end with --smoke.

The serving fabric's :class:`repro.obs.Observer` exports runs as JSON Lines
(``Observer.export_jsonl``): one ``meta`` line, then ``counter`` / ``gauge`` /
``histogram`` lines (the deterministic series), ``timing`` lines (wall-clock
channel, never part of any bitwise comparison), and ``span`` / ``event`` trace
lines.  This script renders that file back into the shapes the repository
reports elsewhere — most importantly the per-detector chaos-harness rollup
(``ReplayReport.rollup``): TP/FP/TN/FN, false-alarm rates, detection rate, and
mean detection latency, all recomputed purely from the exported series.

Usage::

    PYTHONPATH=src python scripts/obs_report.py TRACE.jsonl
    PYTHONPATH=src python scripts/obs_report.py --smoke [--out TRACE.jsonl]

``--smoke`` builds the tiny parity fixture, runs the observed rows of the
twin table in ``scripts/check_parity.py`` (observer inertness; sharded ==
single-process metric snapshots at 1/2/4 shards), then drives one traced replay on a 2-shard
fabric, exports its telemetry, and asserts the rollup recomputed from the
JSONL matches ``ReplayReport.rollup`` bitwise.  Exit status is non-zero on
any violation — CI runs this and uploads the trace as an artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from typing import Dict, Iterable, List, Tuple

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)


# ------------------------------------------------------------------- parsing
def load_records(path: str) -> List[dict]:
    """Parse a JSONL export into a list of record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _labels(record: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(record.get("labels", {}).items()))


def counters(records: Iterable[dict], name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
    """All counter series of one name, keyed by their sorted label tuples."""
    return {
        _labels(record): record["value"]
        for record in records
        if record.get("type") == "counter" and record.get("name") == name
    }


def histogram(records: Iterable[dict], name: str, **labels: str) -> dict:
    """The single histogram record matching ``name`` and ``labels`` (or None)."""
    wanted = tuple(sorted(labels.items()))
    for record in records:
        if record.get("type") == "histogram" and record.get("name") == name:
            if _labels(record) == wanted:
                return record
    return None


# -------------------------------------------------------------- rollup shape
def detector_names(records: Iterable[dict]) -> List[str]:
    names = {
        record["labels"]["detector"]
        for record in records
        if record.get("type") == "counter"
        and record.get("name") == "replay.verdicts_total"
    }
    return sorted(names)


def rollup_from_series(records: List[dict], detector: str) -> Dict[str, float]:
    """Recompute ``ReplayReport.rollup(detector)`` from exported series alone.

    ``replay.verdicts_total{detector,truth,fault,flagged}`` carries the full
    tick-level confusion (``flagged="degraded"`` ticks are scored but never
    alarms, matching the report's truthiness test), and the episode view comes
    from ``replay.episodes_total`` plus the ``replay.detection_latency_ticks``
    histogram — latencies are integral tick counts, so ``sum / count``
    reproduces the report's mean bitwise.
    """
    tp = fp = tn = fn = 0.0
    benign = alarms = faulted = fault_alarms = 0.0
    for labels, value in counters(records, "replay.verdicts_total").items():
        fields = dict(labels)
        if fields["detector"] != detector:
            continue
        attacked = fields["truth"] == "attacked"
        flagged = fields["flagged"] == "yes"
        if attacked:
            tp += value if flagged else 0.0
            fn += 0.0 if flagged else value
        else:
            fp += value if flagged else 0.0
            tn += 0.0 if flagged else value
            benign += value
            alarms += value if flagged else 0.0
            if fields["fault"] == "yes":
                faulted += value
                fault_alarms += value if flagged else 0.0

    detected = missed = 0.0
    for labels, value in counters(records, "replay.episodes_total").items():
        fields = dict(labels)
        if fields["detector"] != detector:
            continue
        if fields["detected"] == "yes":
            detected += value
        else:
            missed += value
    episodes = detected + missed

    latency = histogram(records, "replay.detection_latency_ticks", detector=detector)
    if latency is not None and latency["count"]:
        mean_latency = latency["sum"] / latency["count"]
    else:
        mean_latency = float("nan")

    return {
        "true_positives": tp,
        "false_positives": fp,
        "true_negatives": tn,
        "false_negatives": fn,
        "false_positive_rate": fp / (fp + tn) if (fp + tn) else 0.0,
        "false_alarm_rate_benign": alarms / benign if benign else 0.0,
        "false_alarm_rate_faulted": fault_alarms / faulted if faulted else 0.0,
        "detection_rate": detected / episodes if episodes else float("nan"),
        "mean_detection_latency": mean_latency,
    }


def rollups_match(left: Dict[str, float], right: Dict[str, float]) -> bool:
    """Bitwise dict equality with NaN == NaN (rates are NaN with no episodes)."""
    if left.keys() != right.keys():
        return False
    return all(
        value == right[key]
        or (
            isinstance(value, float)
            and math.isnan(value)
            and math.isnan(right[key])
        )
        for key, value in left.items()
    )


# ----------------------------------------------------------------- rendering
def render(records: List[dict]) -> None:
    """Print the human summary: run meta, series totals, stages, rollups."""
    by_type = Counter(record.get("type") for record in records)
    meta = next((r for r in records if r.get("type") == "meta"), {})
    meta_fields = {k: v for k, v in meta.items() if k != "type"}
    if meta_fields:
        print("meta:", json.dumps(meta_fields, sort_keys=True))
    print(
        "series: "
        f"{by_type.get('counter', 0)} counters, {by_type.get('gauge', 0)} gauges, "
        f"{by_type.get('histogram', 0)} histograms, {by_type.get('timing', 0)} timings"
    )
    print(
        f"trace: {by_type.get('span', 0)} spans, {by_type.get('event', 0)} events"
    )

    stage_counts = Counter(
        record["stage"] for record in records if record.get("type") == "span"
    )
    if stage_counts:
        stages = ", ".join(
            f"{stage}={count}" for stage, count in sorted(stage_counts.items())
        )
        print(f"span stages: {stages}")
    event_counts = Counter(
        record["kind"] for record in records if record.get("type") == "event"
    )
    if event_counts:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(event_counts.items())
        )
        print(f"event kinds: {kinds}")

    top = Counter()
    for record in records:
        if record.get("type") == "counter":
            top[record["name"]] += record["value"]
    if top:
        print("counter totals:")
        for name, total in sorted(top.items()):
            print(f"  {name}: {total:g}")

    for detector in detector_names(records):
        print(f"rollup[{detector}]:")
        for key, value in rollup_from_series(records, detector).items():
            print(f"  {key}: {value:g}")


# --------------------------------------------------------------------- smoke
def run_smoke(out_path: str) -> int:
    """Tiny traced replay + the telemetry gates; returns a process exit code."""
    if SCRIPTS_DIR not in sys.path:
        sys.path.insert(0, SCRIPTS_DIR)
    import check_parity

    from repro.detectors import KNNDistanceDetector
    from repro.obs import Observer
    from repro.serving import AttackEpisode, OnlineAttacker, StreamReplayer

    print("building tiny fixture...")
    cohort, zoo = check_parity.build_fixture()

    print("running the observed twin rows (inertness + merge determinism)...")
    bench = check_parity.TwinBench(cohort, check_parity.lane_zoo_for(cohort, zoo))
    rows = [row for row in check_parity.TWIN_ROWS if row.b.observed]
    try:
        for row in rows:
            check_parity.run_twin(bench, row)
    except AssertionError as error:
        print(f"OBS GATE VIOLATION: {error}")
        return 1
    print(f"  observer inert; metric snapshots bitwise identical across {len(rows)} rows")

    print("running traced replay on a 2-shard fabric...")
    records = list(cohort)
    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    detector = KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :])
    observer = Observer()
    attacker = OnlineAttacker(
        {records[0].label: [AttackEpisode(start=13, duration=12)]}, obs=observer
    )
    replayer = StreamReplayer(
        zoo,
        detectors={"knn": (detector, "sample")},
        attacker=attacker,
        n_shards=2,
        obs=observer,
    )
    report = replayer.replay(cohort, split="test", max_ticks=40)
    lines = observer.export_jsonl(
        out_path, meta={"fixture": "check_parity", "n_shards": 2, "detector": "knn"}
    )
    print(f"  exported {lines} JSONL lines -> {out_path}")

    exported = load_records(out_path)
    recomputed = rollup_from_series(exported, "knn")
    expected = report.rollup("knn")
    if not rollups_match(recomputed, expected):
        print("OBS GATE VIOLATION: JSONL rollup diverged from ReplayReport.rollup")
        print(f"  from series: {recomputed}")
        print(f"  from report: {expected}")
        return 1
    print("  JSONL rollup == ReplayReport.rollup bitwise")
    render(exported)
    print("obs smoke passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="telemetry JSONL export to summarize")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny traced replay and telemetry gates instead",
    )
    parser.add_argument(
        "--out",
        default="obs_trace.jsonl",
        help="where --smoke writes the JSONL trace (default: obs_trace.jsonl)",
    )
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args.out)
    if not args.trace:
        parser.error("provide a JSONL trace path or --smoke")
    render(load_records(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
