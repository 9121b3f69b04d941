"""Step 2 of the framework: instantaneous risk quantification.

The instantaneous risk of manipulating the input at time ``t`` is

    R_t = S * Z_t        with     Z_t = (y_t - f(x_t))^2

where ``y_t`` is the benign model prediction, ``f(x_t)`` the prediction under
attack, and ``S`` the severity coefficient of the induced state transition
(paper Equations 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.attacks.campaign import WindowAttackRecord
from repro.attacks.uret import AttackResult
from repro.glucose.states import Scenario, StateTransition, transition_between
from repro.risk.severity import SeverityMatrix


@dataclass
class RiskSample:
    """Instantaneous risk at one timestamp."""

    target_index: int
    benign_prediction: float
    adversarial_prediction: float
    severity: float
    magnitude: float
    risk: float
    transition: StateTransition


class RiskQuantifier:
    """Compute instantaneous risk values from attack outcomes."""

    def __init__(self, severity: Optional[SeverityMatrix] = None):
        self.severity = severity or SeverityMatrix.paper_exponential()

    def magnitude(self, benign_prediction: float, adversarial_prediction: float) -> float:
        """``Z_t``: squared deviation between benign and adversarial predictions."""
        deviation = float(benign_prediction) - float(adversarial_prediction)
        return deviation * deviation

    def risk_of(
        self,
        benign_prediction: float,
        adversarial_prediction: float,
        scenario: Scenario = Scenario.POSTPRANDIAL,
    ) -> float:
        """``R_t = S * Z_t`` for a single pair of predictions."""
        transition = transition_between(benign_prediction, adversarial_prediction, scenario)
        severity = self.severity.coefficient(transition)
        return severity * self.magnitude(benign_prediction, adversarial_prediction)

    def from_attack_result(self, result: AttackResult, target_index: int = -1) -> RiskSample:
        """Risk sample for one attack outcome.

        Ineligible windows (benign prediction already hyperglycemic) carry no
        manipulation, so their deviation — and therefore their risk — is zero.
        """
        if not result.eligible:
            transition = transition_between(
                result.benign_prediction, result.benign_prediction, result.scenario
            )
            return RiskSample(
                target_index=target_index,
                benign_prediction=result.benign_prediction,
                adversarial_prediction=result.benign_prediction,
                severity=self.severity.coefficient(transition),
                magnitude=0.0,
                risk=0.0,
                transition=transition,
            )
        transition = transition_between(
            result.benign_prediction, result.adversarial_prediction, result.scenario
        )
        severity = self.severity.coefficient(transition)
        magnitude = self.magnitude(result.benign_prediction, result.adversarial_prediction)
        return RiskSample(
            target_index=target_index,
            benign_prediction=result.benign_prediction,
            adversarial_prediction=result.adversarial_prediction,
            severity=severity,
            magnitude=magnitude,
            risk=severity * magnitude,
            transition=transition,
        )

    def from_records(self, records: Sequence[WindowAttackRecord]) -> List[RiskSample]:
        """Risk samples for a sequence of campaign records (one patient)."""
        samples = [
            self.from_attack_result(record.result, target_index=record.target_index)
            for record in records
        ]
        samples.sort(key=lambda sample: sample.target_index)
        return samples
