"""Committed ``BENCH_*.json`` files must be strict JSON.

Standard parsers reject the bare ``NaN`` / ``Infinity`` tokens Python's
``json`` module writes by default; the bench scripts write ``null`` instead
(``repro.utils.jsonio.dumps_strict``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.utils.jsonio import dumps_strict

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token!r}")


def test_bench_files_exist():
    assert BENCH_FILES, "no committed BENCH_*.json files found"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_is_strict_json(path):
    report = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert isinstance(report, dict)


def test_dumps_strict_maps_non_finite_floats_to_null():
    report = {
        "rate": float("nan"),
        "latency": np.float64("inf"),
        "rows": [1.5, -math.inf, (2, float("nan"))],
        "label": "NaN",
    }
    text = dumps_strict(report)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "rate": None,
        "latency": None,
        "rows": [1.5, None, [2, None]],
        "label": "NaN",
    }
