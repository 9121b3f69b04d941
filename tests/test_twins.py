"""The twin contracts: sharded = single-process, recovered = uninterrupted,
observed = unobserved.

* Every row of ``scripts/check_parity.py``'s twin table runs as its own test
  id: one scenario served two ways, whose replay fingerprints (and, for
  observed rows, metric snapshots) must be bitwise equal.
* The same contracts hold on randomly drawn scenarios (a small fixed,
  derandomized example budget here; a larger one in the standalone script).
* :func:`~repro.serving.replay_fingerprint` itself tells twins apart at the
  last bit.
"""

import copy

import numpy as np
import pytest

from repro.detectors.streaming import StreamVerdict
from repro.glucose import Scenario
from repro.serving import (
    HealthEvent,
    HealthState,
    OnlineAttacker,
    ReplayReport,
    ReplaySessionTrace,
    SessionTick,
    TamperRecord,
    replay_fingerprint,
)


def test_twin_row(check_parity, twin_bench, twin_row):
    check_parity.run_twin(twin_bench, twin_row)


def test_random_twin_scenarios(check_parity, twin_bench):
    check_parity.check_random_twins(twin_bench, check_parity.TIER1_RANDOM_EXAMPLES)


def test_shared_lane_restores_follow_a_recycled_slot(check_parity, twin_bench):
    """The shared-lane restore rows land where the lane's slot arithmetic is
    exercised: two or more sessions on the lane, one of them on a slot an
    earlier (churned) session used."""
    rows = [
        row
        for row in check_parity.TWIN_ROWS
        if row.scenario.shared_lane and row.b.restore_at is not None
    ]
    assert len(rows) == 2
    for row in rows:
        run = twin_bench.replay(row.scenario, row.b)
        assert run["lane_load"] >= 2, row.id
        assert run["recycled"] >= 1, row.id


# ------------------------------------------------------------------ fingerprint
def _report_and_attacker():
    """A two-session replay whose tick-1 prediction is NaN and tick-0's is 0.0."""
    ticks = [
        SessionTick(
            session_id="A",
            tick=tick,
            sample=np.array([120.0 + tick, 0.0, 1.0, 0.0]),
            prediction=[0.0, float("nan"), 132.0][tick],
            verdicts={"knn": StreamVerdict(tick=tick, warming=False, flagged=False, score=0.25)},
            attacked=tick == 2,
        )
        for tick in range(3)
    ]
    trace = ReplaySessionTrace(
        session_id="A",
        patient_label="A",
        ticks=ticks,
        scenarios=[Scenario.FASTING] * 3,
        delivered_at=[0, 1, 2],
        health_timeline=[HealthEvent(1, HealthState.QUARANTINED, "rejected", 1, 4)],
    )
    report = ReplayReport(
        sessions={"A": trace, "B": copy.deepcopy(trace)}, detector_names=["knn"]
    )
    attacker = OnlineAttacker({})
    attacker.records.append(TamperRecord("A", 2, Scenario.FASTING, 122.0, 190.0, True, True, 7))
    return report, attacker


def _tick(report, index):
    return report.sessions["A"].ticks[index]


MUTATIONS = {
    "one_ulp_score": lambda report, attacker: setattr(
        _tick(report, 2).verdicts["knn"], "score", float(np.nextafter(0.25, 1.0))
    ),
    "negative_zero_prediction": lambda report, attacker: setattr(
        _tick(report, 0), "prediction", -0.0
    ),
    "backoff": lambda report, attacker: report.sessions["A"].health_timeline.__setitem__(
        0, HealthEvent(1, HealthState.QUARANTINED, "rejected", 1, 5)
    ),
    "extra_tamper": lambda report, attacker: attacker.records.append(attacker.records[0]),
    "missing_session": lambda report, attacker: report.sessions.pop("B"),
    # A fresh NaN object is the same IEEE-754 value: still twins.
    "fresh_nan_prediction": lambda report, attacker: setattr(
        _tick(report, 1), "prediction", float("nan")
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_fingerprint_is_bitwise(name):
    report, attacker = _report_and_attacker()
    before = replay_fingerprint(report, attacker)
    MUTATIONS[name](report, attacker)
    assert (replay_fingerprint(report, attacker) == before) is (name == "fresh_nan_prediction")
