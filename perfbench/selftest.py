#!/usr/bin/env python3
"""Self-test of the benchmark at its tiny size (about two minutes).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the limits the runner relies on, runs
every workload at ``--size tiny`` with tracing off and on, and verifies that
each run exits 0 and ends its output with one strict-JSON result naming
exactly the metrics ``BENCHMARK.json`` lists.  Finally it copies only
``BENCHMARK.json`` and the benchmark directory into a scratch directory and
checks that the benchmark refuses to run there (exit code != 0, no result).
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [item["name"] for group in ("workloads", "end_to_end", "per_layer") for item in spec[group]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(NAME.match(name) for name in names), "bad name"
    for item in spec["end_to_end"]:
        assert set(item) == {"name", "unit", "better", "bound"} and 0 < item["bound"] <= 0.25
    setup = next(item for item in spec["end_to_end"] if item["name"] == "setup_s")
    assert setup["bound"] == max(item["bound"] for item in spec["end_to_end"])
    for item in spec["per_layer"]:
        assert set(item) == {"name", "unit", "better"}


def run(cwd: Path, workload: str, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    failures = []
    # ``campaign`` is runnable but unlisted (see NOTES.md); keep it working.
    for workload in [item["name"] for item in spec["workloads"]] + ["campaign"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1], parse_constant=reject_constant)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] is True and result["attempted"] >= 1
                assert set(result["metrics"]) == {item["name"] for item in spec[group]}
                for item in spec[group]:
                    metric = result["metrics"][item["name"]]
                    assert metric["unit"] == item["unit"] and math.isfinite(metric["value"])
                assert done.returncode == 0
            except (AssertionError, IndexError, ValueError) as error:
                failures.append(f"{workload} trace={trace}: {error!r}\n{done.stderr[-2000:]}")
            print(f"{workload} trace={trace}: exit {done.returncode}")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    done = run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("the benchmark ran without the program source")
    print(f"source-less directory: exit {done.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAILED:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
