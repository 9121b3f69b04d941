#!/usr/bin/env python3
"""Repository benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 15 --trace 0

``--workload`` is one of ``paper``, ``fleet``, ``chaos``, ``campaign``
(see ``perfbench/NOTES.md``).  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it runs
the workload untraced, then again with spans recorded around every layer
entry point, and reports the per-layer metrics.  ``--size tiny`` shrinks
every workload to a few seconds for the benchmark's own self-test
(``perfbench/selftest.py``).

Times are reported in seconds at a reference host speed: a fixed kernel
(``perfbench/hostclock.py``) runs between measured items and scales each
item's time, which cancels most of a shared host's speed drift.

The last line of standard output is one strict-JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed and every count repeated exactly.
Details (environment, per-unit times, fingerprints, spans) are written to
``perfbench/results/``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from tracer import Tracer

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
FINGERPRINTS = HERE / "fingerprints.json"
#: Set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3
#: Traced self times must explain the traced wall time to within this share.
RECONCILE_TOLERANCE = 0.10
#: Tick samples a full-size serving run needs beyond its p95.
TAIL_SAMPLES = 10


def steady_environment() -> bool:
    """Pin BLAS/OpenMP to one thread and keep freed memory in the process.

    Must run before numpy loads.  The workloads are single-process closed
    loops, and a threaded OpenBLAS would fight the loop for the cores.  On
    glibc, large numpy temporaries are otherwise mmapped and unmapped per
    call, and the page faults that re-map them cost a varying share of each
    unit on a shared host (0.5-1.3 s of system time per campaign pass).
    Returns whether the allocator setting took effect.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 1 << 30)) and bool(mallopt(m_trim_threshold, 1 << 30))


def strict(value):
    """Replace non-finite floats by None so the output is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(item) for item in value]
    return value


def dump(value) -> str:
    return json.dumps(strict(value), allow_nan=False)


def import_program() -> float:
    """Import numpy and every ``repro`` layer; return the seconds it took."""
    sys.path.insert(0, str(ROOT / "src"))
    started = perf_counter()
    import numpy  # noqa: F401
    import repro.attacks  # noqa: F401
    import repro.data  # noqa: F401
    import repro.detectors  # noqa: F401
    import repro.eval  # noqa: F401
    import repro.glucose  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.risk  # noqa: F401
    import repro.serving  # noqa: F401

    return perf_counter() - started


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without the dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {key: os.environ.get(key) for key in THREAD_VARIABLES},
        "machine": platform.machine(),
    }


@dataclass
class Unit:
    seconds: float
    steps: List[float]
    outcome: object
    #: Host speed factor (``HostClock.factor``) for this unit.
    factor: float = 1.0
    layer_times: Dict[str, float] = field(default_factory=dict)
    layer_counts: Dict[str, int] = field(default_factory=dict)


def run_setups(workload, count: int, clock):
    """Set up ``count`` times, keeping the last state.

    Returns the state, the raw set-up times, their host speed factors and
    the set-up fingerprints.
    """
    times, factors, prints = [], [], []
    state = None
    for _ in range(count):
        state = None
        gc.collect()
        started = perf_counter()
        state = workload.setup()
        times.append(perf_counter() - started)
        factors.append(clock.factor())
        prints.append(workload.setup_fingerprint(state))
    return state, times, factors, prints


def run_units(workload, state, clock, *, seconds=None, count=None, min_units=1, tracer=None) -> List[Unit]:
    """Run units until ``count`` are done, or until ``seconds`` would be exceeded."""
    units: List[Unit] = []
    begin = perf_counter()
    while True:
        prepared = workload.prepare(state)
        gc.collect()
        steps: List[float] = []
        mark = None
        if tracer is not None:
            tracer.stage = f"unit{len(units)}"
            mark = tracer.mark()
        started = perf_counter()
        raw = workload.run(state, prepared, steps)
        elapsed = perf_counter() - started
        unit = Unit(elapsed, steps, None, clock.factor())
        if tracer is not None:
            unit.layer_times, unit.layer_counts = tracer.since(mark)
            tracer.stage = "summarize"
        unit.outcome = workload.summarize(state, prepared, raw)
        units.append(unit)
        del raw, prepared
        if count is not None:
            if len(units) >= count:
                return units
            continue
        typical = statistics.median(u.seconds for u in units)
        if len(units) >= min_units and perf_counter() - begin + typical > seconds:
            return units


def run_traced(workload, clock, seconds: float, setup_prints: list):
    """A traced set-up, then untraced and traced units alternately on its state.

    Alternating pairs see the same host conditions, so their difference is
    the tracing overhead rather than the host's drift between two phases.
    """
    tracer = Tracer()
    plain: List[Unit] = []
    traced: List[Unit] = []
    try:
        tracer.install()
        gc.collect()
        mark = tracer.mark()
        started = perf_counter()
        state = workload.setup()
        setup_wall = perf_counter() - started
        setup_layer = tracer.since(mark)
        setup_prints.append(workload.setup_fingerprint(state))
        begin = perf_counter()
        while True:
            tracer.uninstall()
            plain += run_units(workload, state, clock, count=1)
            tracer.install()
            traced += run_units(workload, state, clock, count=1, tracer=tracer)
            elapsed = perf_counter() - begin
            if len(traced) >= 2 and elapsed * (len(traced) + 1) / len(traced) > seconds:
                break
    finally:
        tracer.uninstall()
    return plain, traced, setup_wall, setup_layer, tracer


def percentile(values: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def ticks(units: List[Unit]) -> List[float]:
    """Tick latencies at the reference host speed; a batch workload's tick is its whole unit."""
    return [step * unit.factor for unit in units for step in (unit.steps or [unit.seconds])]


def end_to_end(setup_times: List[float], setup_factors: List[float], units: List[Unit]) -> Dict[str, float]:
    """End-to-end metrics, every time scaled to the reference host speed."""
    total = sum(unit.seconds * unit.factor for unit in units)
    steps = ticks(units)
    return {
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
        "result_s": statistics.median(unit.seconds * unit.factor for unit in units),
        "windows_per_s": sum(unit.outcome.windows for unit in units) / total,
        "session_ticks_per_s": sum(unit.outcome.session_ticks for unit in units) / total,
        # Median over units of each unit's median tick: one unit caught in a
        # slow phase of the host cannot drag every rank of a pooled sample.
        "tick_p50_ms": statistics.median(percentile(ticks([unit]), 50) for unit in units) * 1e3,
        "tick_p95_ms": percentile(steps, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def consistency_errors(label: str, values: list) -> List[str]:
    """Every entry must equal the first (fingerprints, counts)."""
    return [
        f"{label} drift: entry {index} = {value!r} differs from entry 0 = {values[0]!r}"
        for index, value in enumerate(values)
        if value != values[0]
    ]


def portable(fingerprint: dict) -> dict:
    """The fingerprint without its float digests (see ``workloads.digest``)."""
    return {key: value for key, value in fingerprint.items() if not key.endswith("_digest")}


def stored_fingerprint(workload: str, seed: int) -> Optional[dict]:
    if not FINGERPRINTS.exists():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))


def record_fingerprint(workload: str, seed: int, fingerprint: dict) -> None:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = fingerprint
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def per_layer(spec, import_s, setup_wall, setup_layer, traced, plain) -> tuple:
    """Per-layer metrics for one traced set-up plus one traced unit."""
    setup_times, setup_counts = setup_layer
    errors = consistency_errors("traced layer counts", [unit.layer_counts for unit in traced])
    times: Dict[str, float] = dict(setup_times)
    for unit in traced:
        for name, value in unit.layer_times.items():
            times[name] = times.get(name, 0.0) + value / len(traced)
    counts: Dict[str, int] = dict(setup_counts)
    for name, value in traced[0].layer_counts.items():
        counts[name] = counts.get(name, 0) + value
    traced_unit = statistics.mean(unit.seconds for unit in traced)
    wall = setup_wall + traced_unit
    explained = sum(times.values())
    unexplained = wall - explained
    if abs(unexplained) > RECONCILE_TOLERANCE * wall:
        errors.append(
            f"per-layer self times explain {explained:.3f} s of {wall:.3f} s "
            f"(unexplained {unexplained:.3f} s > {RECONCILE_TOLERANCE:.0%})"
        )
    values = dict(traced[0].outcome.layer)
    values.update(times)
    values.update(counts)
    values["repro.import_s"] = import_s
    values["unexplained_s"] = unexplained
    # Units only: the untraced run's first set-up is also its coldest.
    values["tracing_overhead_s"] = traced_unit - statistics.median(u.seconds for u in plain)
    metrics = {
        item["name"]: {"value": float(values.get(item["name"], 0)), "unit": item["unit"]}
        for item in spec["per_layer"]
    }
    extra = sorted(set(values) - {item["name"] for item in spec["per_layer"]})
    if extra:
        errors.append(f"layer metrics missing from BENCHMARK.json: {extra}")
    return metrics, errors, {"wall_s": wall, "explained_s": explained}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--write-fingerprint",
        action="store_true",
        help="store this run's unit fingerprint for (workload, seed) in fingerprints.json",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    allocator = steady_environment()
    try:
        import_s = import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from hostclock import HostClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.size)
    RESULTS.mkdir(exist_ok=True)
    errors: List[str] = []
    details: dict = {
        "args": vars(args),
        "environment": dict(environment(), steady_allocator=allocator),
        "repro.import_s": import_s,
    }

    clock = HostClock()
    state, setup_times, setup_factors, setup_prints = run_setups(
        workload, 1 if args.trace else N_SETUPS, clock
    )
    warm = run_units(workload, state, clock, count=1)
    traced: List[Unit] = []
    if args.trace:
        state = None
        measured, traced, traced_setup, setup_layer, tracer = run_traced(
            workload, clock, args.seconds, setup_prints
        )
        metrics, layer_errors, reconcile = per_layer(
            spec, import_s, traced_setup, setup_layer, traced, measured
        )
        errors += layer_errors
        span_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        details["spans"] = {"path": str(span_path.relative_to(ROOT)), "count": tracer.write(span_path)}
        details["reconcile"] = reconcile
        details["traced_unit_s"] = [unit.seconds for unit in traced]
    else:
        measured = run_units(workload, state, clock, seconds=args.seconds, min_units=workload.min_units)
        values = end_to_end(setup_times, setup_factors, measured)
        metrics = {
            item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
            for item in spec["end_to_end"]
        }
        steps = ticks(measured)
        tail = sum(step * 1e3 > values["tick_p95_ms"] for step in steps)
        details["tick_samples"] = len(steps)
        details["tick_samples_beyond_p95"] = int(tail)
        if workload.name in ("fleet", "chaos") and args.size == "full" and tail < TAIL_SAMPLES:
            errors.append(f"only {tail} tick samples beyond p95 (need {TAIL_SAMPLES})")

    units = warm + measured + traced
    for unit in units:
        errors += unit.outcome.errors
    errors += consistency_errors("set-up fingerprint", setup_prints)
    fingerprints = [unit.outcome.fingerprint for unit in units]
    errors += consistency_errors("unit fingerprint", fingerprints)
    if args.size == "full":
        if args.write_fingerprint:
            record_fingerprint(args.workload, args.seed, portable(fingerprints[0]))
        expected = stored_fingerprint(args.workload, args.seed)
        if expected is not None and expected != portable(fingerprints[0]):
            errors.append(f"fingerprint for seed {args.seed} differs from fingerprints.json")
        details["fingerprint_checked"] = expected is not None

    attempted = sum(unit.outcome.attempted for unit in measured + traced)
    failed = sum(unit.outcome.failed for unit in measured + traced)
    details.update(
        setup_s=setup_times,
        setup_factors=setup_factors,
        unit_s=[unit.seconds for unit in measured],
        unit_factors=[unit.factor for unit in measured],
        host_samples_s=clock.samples,
        unit_ticks_s=[unit.steps for unit in measured],
        warmup_s=warm[0].seconds,
        fingerprint=fingerprints[0],
        errors=errors,
    )
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    details["result"] = result
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        dump(details) + "\n"
    )
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    print(dump(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
