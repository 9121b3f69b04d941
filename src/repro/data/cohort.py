"""Synthetic OhioT1DM-like cohort generation.

The real OhioT1DM dataset provides roughly eight weeks of data per patient —
about 10,000 training samples and 2,500 test samples at five-minute cadence.
The synthetic cohort defaults to a smaller number of days so that the full
pipeline runs on a laptop CPU, but the per-day structure (meals, boluses,
exercise, sensor noise) follows the same cadence, and the number of days can
be raised to the paper scale via ``train_days`` / ``test_days``.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.events import DailyScheduleGenerator
from repro.data.patient import (
    SUBSET_A,
    SUBSET_B,
    PatientProfile,
    build_cohort_profiles,
)
from repro.data.physiology import (
    GlucoseInsulinSimulator,
    SimulationInputs,
    SimulationResult,
    simulate_lockstep,
)
from repro.utils.rng import as_random_state

#: Names and order of the multivariate signals exposed to models/detectors.
FEATURE_NAMES: Tuple[str, ...] = ("cgm", "insulin", "carbs", "heart_rate")

#: Column index of the CGM signal inside the feature matrix.
CGM_COLUMN = 0


def build_feature_matrix(result: SimulationResult) -> np.ndarray:
    """Assemble the ``(T, 4)`` feature matrix used throughout the library.

    The four signals mirror the MAD-GAN configuration in the paper's Appendix
    B (``number of signals = 4``): CGM glucose, delivered insulin (basal rate
    plus bolus), carbohydrate intake, and heart rate.
    """
    insulin = result.basal / 12.0 + result.bolus  # basal units per 5-minute bin + bolus
    return np.column_stack([result.cgm, insulin, result.carbs, result.heart_rate])


@dataclass
class PatientRecord:
    """Simulated data for one patient: a train trace and a test trace."""

    profile: PatientProfile
    train: SimulationResult
    test: SimulationResult

    @property
    def label(self) -> str:
        return self.profile.label

    def features(self, split: str = "train") -> np.ndarray:
        """Feature matrix ``(T, 4)`` for the requested split."""
        return build_feature_matrix(self._split(split))

    def cgm(self, split: str = "train") -> np.ndarray:
        """CGM trace for the requested split."""
        return self._split(split).cgm

    def _split(self, split: str) -> SimulationResult:
        if split == "train":
            return self.train
        if split == "test":
            return self.test
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")


@dataclass
class Cohort:
    """A collection of patient records keyed by patient label."""

    records: Dict[str, PatientRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records.values())

    def __getitem__(self, label: str) -> PatientRecord:
        return self.records[label]

    @property
    def labels(self) -> List[str]:
        return list(self.records.keys())

    def subset(self, subset: str) -> "Cohort":
        """Restrict the cohort to Subset A or Subset B."""
        filtered = {
            label: record
            for label, record in self.records.items()
            if record.profile.subset == subset
        }
        return Cohort(records=filtered)

    def select(self, labels: Iterable[str]) -> "Cohort":
        """Restrict the cohort to a set of patient labels."""
        missing = [label for label in labels if label not in self.records]
        if missing:
            raise KeyError(f"unknown patient labels: {missing}")
        return Cohort(records={label: self.records[label] for label in labels})


class SyntheticOhioT1DM:
    """Generator for the synthetic 12-patient cohort.

    Parameters
    ----------
    train_days, test_days:
        Number of simulated days per patient for each split.  The OhioT1DM
        scale corresponds to roughly ``train_days=35`` and ``test_days=9``;
        the defaults are smaller to keep CPU runtimes reasonable.
    seed:
        Root seed; every patient derives an independent stream from it.
    profiles:
        Optional explicit list of profiles (defaults to the 12-patient cohort
        mirroring the paper's Subset A / Subset B structure).
    """

    def __init__(
        self,
        train_days: int = 8,
        test_days: int = 3,
        seed=7,
        profiles: Optional[Sequence[PatientProfile]] = None,
    ):
        if train_days <= 0 or test_days <= 0:
            raise ValueError("train_days and test_days must be positive")
        self.train_days = int(train_days)
        self.test_days = int(test_days)
        self._root_rng = as_random_state(seed)
        self.profiles: List[PatientProfile] = (
            list(profiles) if profiles is not None else build_cohort_profiles()
        )

    def generate_patient(self, profile: PatientProfile) -> PatientRecord:
        """Simulate train and test traces for a single patient."""
        return self._simulate([profile])[0]

    def generate(self) -> Cohort:
        """Simulate the full cohort: one lockstep pass over every patient and split."""
        records = self._simulate(self.profiles)
        return Cohort(records={record.label: record for record in records})

    def _simulate(self, profiles: Sequence[PatientProfile]) -> List[PatientRecord]:
        """Build every patient's schedules, then run both splits of all in one kernel call."""
        simulators, inputs = [], []
        for profile in profiles:
            patient_rng = self._root_rng.derive(f"patient-{profile.label}")
            behaviour_rng, physiology_rng_train, physiology_rng_test, behaviour_rng_test = (
                patient_rng.derive("behaviour-train"),
                patient_rng.derive("physiology-train"),
                patient_rng.derive("physiology-test"),
                patient_rng.derive("behaviour-test"),
            )
            for seed, days in ((behaviour_rng, self.train_days), (behaviour_rng_test, self.test_days)):
                schedule = DailyScheduleGenerator(profile.behaviour, seed=seed).generate(days)
                inputs.append(_off_heap(schedule))
            simulators += [
                GlucoseInsulinSimulator(profile.physiology, seed=physiology_rng_train),
                GlucoseInsulinSimulator(profile.physiology, seed=physiology_rng_test),
            ]
        results = simulate_lockstep(simulators, inputs)
        return [
            PatientRecord(profile=profile, train=results[2 * index], test=results[2 * index + 1])
            for index, profile in enumerate(profiles)
        ]


def _off_heap(inputs: SimulationInputs) -> SimulationInputs:
    """A copy of ``inputs`` in an anonymous mapping of its own, not the malloc heap.

    :meth:`SyntheticOhioT1DM.generate` holds every lane's minute schedule at
    once (1.7 MiB for the benchmark cohort), where simulating patient by
    patient held two.  On the heap, the hole they leave once freed moves
    where the process's later large arrays land and how many transparent
    huge pages back them: ``fleet`` ticks ran ~4% slower with no tick code
    changed.  The mapping is released with the last array viewing it.
    """
    fields = (inputs.carbs, inputs.bolus, inputs.basal, inputs.exercise)
    block = np.frombuffer(mmap.mmap(-1, 4 * inputs.minutes * 8), dtype=np.float64)
    block = block.reshape(4, inputs.minutes)
    for row, values in zip(block, fields):
        row[:] = values
    return SimulationInputs(*block)


def generate_cohort(train_days: int = 8, test_days: int = 3, seed=7) -> Cohort:
    """Convenience wrapper: build the default cohort in one call."""
    return SyntheticOhioT1DM(train_days=train_days, test_days=test_days, seed=seed).generate()
