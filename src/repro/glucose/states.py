"""Glucose state classification (hypoglycemia / normal / hyperglycemia).

The thresholds follow the paper's threat model:

* hypoglycemia below 70 mg/dL,
* hyperglycemia above 125 mg/dL in a *fasting* state,
* hyperglycemia above 180 mg/dL in a *postprandial* state (within two hours
  after a meal).

The attacker's goal is to push the predicted glucose into the hyperglycemic
range while the true state is normal or hypoglycemic, so these thresholds
drive both the attack's target condition and the severity-weighted risk
quantification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

import numpy as np

#: Glucose below this value is hypoglycemic in every scenario (mg/dL).
HYPOGLYCEMIA_THRESHOLD = 70.0

#: Fasting hyperglycemia threshold (mg/dL).
FASTING_HYPER_THRESHOLD = 125.0

#: Postprandial (two hours after a meal) hyperglycemia threshold (mg/dL).
POSTPRANDIAL_HYPER_THRESHOLD = 180.0

#: Highest glucose value reported in the OhioT1DM dataset (mg/dL); adversarial
#: manipulations must stay below this bound to remain plausible.
MAX_PLAUSIBLE_GLUCOSE = 499.0

#: Number of five-minute samples that count as "postprandial" after a meal.
POSTPRANDIAL_WINDOW_SAMPLES = 24  # two hours


class GlucoseState(str, Enum):
    """Clinical glucose state."""

    HYPO = "hypo"
    NORMAL = "normal"
    HYPER = "hyper"


class Scenario(str, Enum):
    """Measurement scenario, which selects the hyperglycemia threshold."""

    FASTING = "fasting"
    POSTPRANDIAL = "postprandial"


def hyperglycemia_threshold(scenario: Scenario) -> float:
    """The hyperglycemia threshold for a scenario."""
    if scenario == Scenario.FASTING:
        return FASTING_HYPER_THRESHOLD
    if scenario == Scenario.POSTPRANDIAL:
        return POSTPRANDIAL_HYPER_THRESHOLD
    raise ValueError(f"unknown scenario {scenario!r}")


def classify_glucose(value: float, scenario: Scenario = Scenario.POSTPRANDIAL) -> GlucoseState:
    """Classify a single glucose value into hypo / normal / hyper."""
    value = float(value)
    if value < HYPOGLYCEMIA_THRESHOLD:
        return GlucoseState.HYPO
    if value > hyperglycemia_threshold(scenario):
        return GlucoseState.HYPER
    return GlucoseState.NORMAL


def classify_series(values: Sequence[float], scenario: Scenario = Scenario.POSTPRANDIAL) -> List[GlucoseState]:
    """Classify every value of a glucose series."""
    return [classify_glucose(value, scenario) for value in np.asarray(values, dtype=np.float64)]


def scenario_for_samples(carbs: Sequence[float], window: int = POSTPRANDIAL_WINDOW_SAMPLES) -> List[Scenario]:
    """Derive the per-sample scenario from the carbohydrate intake series.

    A sample is postprandial if any carbohydrate was ingested within the
    preceding ``window`` samples (two hours at CGM cadence); otherwise it is
    treated as fasting.
    """
    carbs = np.asarray(carbs, dtype=np.float64)
    scenarios: List[Scenario] = []
    for index in range(len(carbs)):
        start = max(0, index - window + 1)
        recent_carbs = carbs[start : index + 1].sum()
        scenarios.append(Scenario.POSTPRANDIAL if recent_carbs > 0 else Scenario.FASTING)
    return scenarios


def is_abnormal(value: float, scenario: Scenario = Scenario.POSTPRANDIAL) -> bool:
    """True when the value is hypo- or hyperglycemic for the scenario."""
    return classify_glucose(value, scenario) != GlucoseState.NORMAL


def normal_to_abnormal_ratio(values: Sequence[float], scenarios: Sequence[Scenario] = None) -> float:
    """Ratio of normal to abnormal samples in a benign trace (paper Fig. 4).

    Returns ``inf`` when the trace contains no abnormal samples.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("values must not be empty")
    if scenarios is None:
        scenarios = [Scenario.POSTPRANDIAL] * len(values)
    if len(scenarios) != len(values):
        raise ValueError("scenarios must align with values")
    states = [classify_glucose(value, scenario) for value, scenario in zip(values, scenarios)]
    normal = sum(1 for state in states if state == GlucoseState.NORMAL)
    abnormal = len(states) - normal
    if abnormal == 0:
        return float("inf")
    return normal / abnormal


@dataclass
class StateTransition:
    """A transition between the benign state and the adversarial state."""

    benign: GlucoseState
    adversarial: GlucoseState

    @property
    def is_misdiagnosis(self) -> bool:
        """True when the adversarial prediction changes the diagnosed state."""
        return self.benign != self.adversarial

    def __str__(self) -> str:
        return f"{self.benign.value}->{self.adversarial.value}"


def transition_between(
    benign_value: float, adversarial_value: float, scenario: Scenario = Scenario.POSTPRANDIAL
) -> StateTransition:
    """Build the state transition induced by an adversarial prediction."""
    return StateTransition(
        benign=classify_glucose(benign_value, scenario),
        adversarial=classify_glucose(adversarial_value, scenario),
    )
