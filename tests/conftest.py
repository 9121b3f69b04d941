"""Shared fixtures.

Expensive artifacts (cohort, trained forecasters, attack campaigns) are built
once per session on deliberately tiny configurations so the full suite stays
fast while still exercising the real code paths end to end.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import AttackCampaign
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.glucose import GlucoseModelZoo


# The parity tripwire lives in scripts/; its sibling scripts import each other.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

TINY_PATIENTS = [
    ("A", 5),  # excellent control — expected less vulnerable
    ("B", 2),  # excellent control — expected less vulnerable
    ("A", 0),  # fair control — expected more vulnerable
    ("A", 2),  # very poor control — expected more vulnerable
]


@pytest.fixture(scope="session")
def tiny_cohort():
    """Four-patient cohort with two train days and one test day."""
    profiles = [make_patient_profile(subset, pid) for subset, pid in TINY_PATIENTS]
    return SyntheticOhioT1DM(train_days=2, test_days=1, seed=13, profiles=profiles).generate()


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fail any test that leaves a child process running."""
    yield
    leftover = multiprocessing.active_children()
    assert not leftover, f"the test left child processes running: {leftover}"


@pytest.fixture
def pin_cpus(monkeypatch):
    """Pin the schedulable CPU count that ``repro.utils.workers`` sizes its shares by."""
    import repro.utils.workers

    def pin(count: int) -> None:
        monkeypatch.setattr(repro.utils.workers, "available_cores", lambda: count)

    return pin


@pytest.fixture(scope="session")
def tiny_zoo(tiny_cohort):
    """Personalized forecasters trained with a minimal budget."""
    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=2, hidden_size=8),
        train_personalized=True,
        seed=5,
    )
    zoo.fit(tiny_cohort)
    return zoo


@pytest.fixture(scope="session")
def tiny_train_campaign(tiny_zoo, tiny_cohort):
    """Attack campaign over the training split (sparse stride)."""
    return AttackCampaign(tiny_zoo, stride=8).run_cohort(tiny_cohort, split="train")


@pytest.fixture(scope="session")
def tiny_test_campaign(tiny_zoo, tiny_cohort):
    """Attack campaign over the test split (sparse stride)."""
    return AttackCampaign(tiny_zoo, stride=6).run_cohort(tiny_cohort, split="test")


@pytest.fixture(scope="session")
def check_parity():
    """``scripts/check_parity.py``, the parity tripwire CI also runs standalone."""
    import check_parity

    return check_parity


@pytest.fixture(scope="session")
def twin_bench(check_parity, tiny_zoo, tiny_cohort):
    """The twin-table fixture: replays are shared by every row and property example."""
    return check_parity.TwinBench(tiny_cohort, tiny_zoo)


def pytest_generate_tests(metafunc):
    """One test id per row of the twin table."""
    if "twin_row" in metafunc.fixturenames:
        import check_parity

        rows = check_parity.TWIN_ROWS
        metafunc.parametrize("twin_row", rows, ids=[row.id for row in rows])


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def stream_session(predictor, **adapters):
    """One session on a fresh ``StreamScheduler``, monitored by ``adapters``.

    Detector adapters stream only through a scheduler: window views come
    from the session's lane.
    """
    from repro.serving import StreamScheduler

    return StreamScheduler().open_session("stream", predictor, detectors=adapters)


def stream_verdicts(session, samples, name):
    """Deliver ``samples`` to ``session`` one tick each; return ``name``'s verdicts."""
    return [session.update(sample).verdicts[name] for sample in samples]


def make_toy_windows(n_benign: int = 60, n_malicious: int = 20, seed: int = 0):
    """Small, clearly separable benign/malicious windows for detector tests."""
    generator = np.random.default_rng(seed)
    timeline = np.linspace(0.0, 1.0, 12)

    def build(count: int, malicious: bool) -> np.ndarray:
        if count == 0:
            return np.empty((0, 12, 4))
        windows = []
        for _ in range(count):
            cgm = 110 + 18 * np.sin(2 * np.pi * (timeline + generator.uniform()))
            cgm = cgm + generator.normal(0, 2.5, size=12)
            if malicious:
                cgm[-4:] += generator.uniform(90, 180)
            other = generator.normal(0.0, 1.0, size=(12, 3))
            windows.append(np.column_stack([cgm, other]))
        return np.asarray(windows)

    benign = build(n_benign, malicious=False)
    malicious = build(n_malicious, malicious=True)
    windows = np.concatenate([benign, malicious])
    labels = np.array([0] * n_benign + [1] * n_malicious)
    return windows, labels


@pytest.fixture()
def toy_detection_data():
    return make_toy_windows()
