"""Step 3 of the framework: continuous time-series risk profiles per victim."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.attacks.campaign import CampaignResult
from repro.risk.quantify import RiskQuantifier, RiskSample
from repro.utils.timeseries import exponential_moving_average, resample_series


@dataclass
class RiskProfile:
    """A victim's time-series risk profile.

    Attributes
    ----------
    patient_label:
        Which victim the profile belongs to.
    target_indices:
        Sample indices (within the trace) where the risk was evaluated.
    risks:
        Instantaneous risk values ``R_t`` at those indices.
    samples:
        The full per-timestamp risk samples (predictions, severities, ...).
    """

    patient_label: str
    target_indices: np.ndarray
    risks: np.ndarray
    samples: List[RiskSample] = field(default_factory=list)

    def __post_init__(self):
        self.target_indices = np.asarray(self.target_indices, dtype=int)
        self.risks = np.asarray(self.risks, dtype=np.float64)
        if len(self.target_indices) != len(self.risks):
            raise ValueError("target_indices and risks must have the same length")

    def __len__(self) -> int:
        return len(self.risks)

    # ------------------------------------------------------------------ summary
    @property
    def mean_risk(self) -> float:
        return float(self.risks.mean()) if len(self.risks) else 0.0

    @property
    def peak_risk(self) -> float:
        return float(self.risks.max()) if len(self.risks) else 0.0

    @property
    def risk_exposure_fraction(self) -> float:
        """Fraction of timestamps with a non-zero risk."""
        if len(self.risks) == 0:
            return 0.0
        return float(np.mean(self.risks > 0.0))

    def smoothed(self, alpha: float = 0.3) -> np.ndarray:
        """Exponentially smoothed risk profile (for plotting/clustering)."""
        if len(self.risks) == 0:
            return self.risks.copy()
        return exponential_moving_average(self.risks, alpha=alpha)

    def resampled(self, length: int, smooth_alpha: Optional[float] = 0.3) -> np.ndarray:
        """Resample the (optionally smoothed) profile to a common length."""
        values = self.smoothed(smooth_alpha) if smooth_alpha is not None else self.risks
        if len(values) == 0:
            return np.zeros(length)
        return resample_series(values, length)

    def feature_vector(self) -> np.ndarray:
        """Summary statistics used as an alternative clustering representation."""
        if len(self.risks) == 0:
            return np.zeros(6)
        log_risks = np.log1p(self.risks)
        return np.array(
            [
                float(np.mean(log_risks)),
                float(np.std(log_risks)),
                float(np.max(log_risks)),
                float(np.median(log_risks)),
                self.risk_exposure_fraction,
                float(np.mean(self.risks > np.mean(self.risks))) if np.any(self.risks) else 0.0,
            ]
        )


class RiskProfileBuilder:
    """Build per-patient risk profiles from an attack campaign."""

    def __init__(self, quantifier: Optional[RiskQuantifier] = None):
        self.quantifier = quantifier or RiskQuantifier()

    def from_campaign(self, campaign: CampaignResult) -> Dict[str, RiskProfile]:
        """One :class:`RiskProfile` per patient present in the campaign."""
        profiles: Dict[str, RiskProfile] = {}
        for patient_label in campaign.patient_labels:
            records = campaign.for_patient(patient_label)
            samples = self.quantifier.from_records(records)
            profiles[patient_label] = RiskProfile(
                patient_label=patient_label,
                target_indices=np.array([sample.target_index for sample in samples], dtype=int),
                risks=np.array([sample.risk for sample in samples], dtype=np.float64),
                samples=samples,
            )
        return profiles


def profile_matrix(
    profiles: Dict[str, RiskProfile],
    representation: str = "resampled",
    length: int = 64,
    log_scale: bool = True,
) -> "tuple[list[str], np.ndarray]":
    """Stack risk profiles into a matrix for clustering.

    Parameters
    ----------
    profiles:
        Mapping of patient label to profile.
    representation:
        ``"resampled"`` uses the smoothed, length-normalized time series;
        ``"summary"`` uses the summary-statistics feature vector.
    length:
        Target length for the resampled representation.
    log_scale:
        Apply ``log1p`` to resampled risk values (risks span several orders of
        magnitude because of the squared deviation term).
    """
    if not profiles:
        raise ValueError("profiles must not be empty")
    labels = sorted(profiles)
    rows = []
    for label in labels:
        profile = profiles[label]
        if representation == "resampled":
            row = profile.resampled(length)
            if log_scale:
                row = np.log1p(row)
        elif representation == "summary":
            row = profile.feature_vector()
        else:
            raise ValueError("representation must be 'resampled' or 'summary'")
        rows.append(row)
    return labels, np.vstack(rows)
