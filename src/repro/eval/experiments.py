"""Experiment harness reproducing the paper's evaluation.

The central experiment (Figures 7, 8, and 11) compares anomaly detectors
trained under the four selection strategies and evaluates them on benign and
adversarial windows from every patient.  Smaller experiments reproduce the
benign normal-to-abnormal ratios (Figure 4), the per-trace true-positive /
false-negative breakdown (Figure 5), the four-quadrant sample taxonomy
(Figure 6), and the per-model attack success rates (Appendix A, Figures 9
and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.campaign import CampaignResult, WindowAttackRecord
from repro.data.cohort import CGM_COLUMN, Cohort
from repro.detectors.base import AnomalyDetector
from repro.detectors.hmm import GaussianHMMDetector
from repro.detectors.knn import KNNClassifierDetector
from repro.detectors.lstm_vae import LSTMVAEDetector
from repro.detectors.madgan import MADGANDetector
from repro.detectors.ocsvm import OneClassSVMDetector
from repro.eval.metrics import ConfusionMatrix, confusion_matrix
from repro.glucose.states import (
    GlucoseState,
    Scenario,
    classify_glucose,
    normal_to_abnormal_ratio,
    scenario_for_samples,
)
from repro.risk.selection import TrainingSelection

#: Factory type: builds a fresh (unfitted) detector for one training run.
DetectorFactory = Callable[[], AnomalyDetector]


@dataclass
class DetectorSpec:
    """A detector factory plus the detection unit it operates on.

    ``unit`` is ``"sample"`` for point detectors that inspect individual
    glucose measurements (kNN, OneClassSVM) and ``"window"`` for sequence
    detectors that inspect whole multivariate windows (MAD-GAN).
    """

    factory: DetectorFactory
    unit: str = "sample"

    def __post_init__(self):
        if self.unit not in ("sample", "window"):
            raise ValueError("unit must be 'sample' or 'window'")


def default_detector_factories(
    madgan_epochs: int = 10,
    madgan_inversion_steps: int = 30,
    ocsvm_kernel: str = "rbf",
    ocsvm_nu: float = 0.1,
    vae_epochs: int = 10,
    hmm_iterations: int = 10,
    seed: int = 0,
) -> Dict[str, DetectorSpec]:
    """The paper's three detectors plus the LSTM-VAE / HMM family.

    kNN keeps the paper's Appendix-B configuration exactly.  The paper's
    OneClassSVM settings (sigmoid kernel, ``coef0=10``, ``ν=0.5``) degenerate
    on standardized features — the kernel saturates and half of the benign
    data is rejected by construction — so the default here is an RBF kernel
    with a smaller ν; the paper configuration remains available through
    :class:`repro.detectors.OneClassSVMDetector` and the ablation benchmark.
    MAD-GAN follows Appendix B (4 signals, sequence length 12) with a smaller
    epoch budget suited to CPU runs.  The LSTM-VAE (reconstruction
    negative log-likelihood) and the Gaussian-emission HMM (window
    log-likelihood) extend the comparison with the detector family named in
    the ROADMAP; both share MAD-GAN's window geometry so every selection
    strategy and attack campaign applies unchanged.
    """
    return {
        "kNN": DetectorSpec(
            factory=lambda: KNNClassifierDetector(n_neighbors=7, p=2.0, weights="uniform"),
            unit="sample",
        ),
        "OneClassSVM": DetectorSpec(
            factory=lambda: OneClassSVMDetector(
                kernel=ocsvm_kernel, gamma="scale", nu=ocsvm_nu, seed=seed
            ),
            unit="sample",
        ),
        "MAD-GAN": DetectorSpec(
            factory=lambda: MADGANDetector(
                epochs=madgan_epochs,
                inversion_steps=madgan_inversion_steps,
                seed=seed,
            ),
            unit="window",
        ),
        "LSTM-VAE": DetectorSpec(
            factory=lambda: LSTMVAEDetector(epochs=vae_epochs, seed=seed),
            unit="window",
        ),
        "HMM": DetectorSpec(
            factory=lambda: GaussianHMMDetector(n_iter=hmm_iterations, seed=seed),
            unit="window",
        ),
    }


@dataclass
class StrategyOutcome:
    """Averaged detection metrics for one (detector, strategy) pair."""

    detector: str
    strategy: str
    precision: float
    recall: float
    f1: float
    false_negative_rate: float
    per_run: List[ConfusionMatrix] = field(default_factory=list)
    training_windows: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.per_run)


@dataclass
class SelectiveTrainingResult:
    """All (detector, strategy) outcomes of the selective-training experiment."""

    outcomes: Dict[str, Dict[str, StrategyOutcome]] = field(default_factory=dict)

    def outcome(self, detector: str, strategy: str) -> StrategyOutcome:
        return self.outcomes[detector][strategy]

    def metric_table(self, metric: str) -> Dict[str, Dict[str, float]]:
        """``{detector: {strategy: value}}`` for one metric name."""
        table: Dict[str, Dict[str, float]] = {}
        for detector, per_strategy in self.outcomes.items():
            table[detector] = {
                strategy: getattr(outcome, metric) for strategy, outcome in per_strategy.items()
            }
        return table

    @property
    def detectors(self) -> List[str]:
        return list(self.outcomes)

    @property
    def strategies(self) -> List[str]:
        first = next(iter(self.outcomes.values()), {})
        return list(first)


class SelectiveTrainingExperiment:
    """Train detectors under each selection strategy and evaluate them.

    Parameters
    ----------
    train_campaign:
        Attack campaign over the cohort's *training* split; supplies the
        malicious samples used to train the supervised kNN classifier and the
        benign windows per patient.
    test_campaign:
        Attack campaign over the cohort's *test* split; supplies the benign
        and malicious windows every detector is evaluated on (all patients).
    detector_factories:
        ``{name: factory}`` of detectors to compare.
    include_failed_attacks:
        Whether unsuccessful adversarial windows also count as malicious
        samples (default False: only successful evasions are labelled
        malicious, as those are the ones that would harm the patient).
    """

    def __init__(
        self,
        train_campaign: CampaignResult,
        test_campaign: CampaignResult,
        detector_factories: Optional[Dict[str, "DetectorSpec"]] = None,
        include_failed_attacks: bool = False,
    ):
        self.train_campaign = train_campaign
        self.test_campaign = test_campaign
        self.detector_factories = detector_factories or default_detector_factories()
        self.include_failed_attacks = bool(include_failed_attacks)
        self._test_data = {
            "window": test_campaign.detection_dataset(include_failed=self.include_failed_attacks)[:2],
            "sample": test_campaign.sample_dataset(include_failed=self.include_failed_attacks)[:2],
        }
        if len(self._test_data["window"][0]) == 0:
            raise ValueError("the test campaign produced no evaluation windows")

    # ------------------------------------------------------------------ running
    def _training_data(self, patient_labels: Sequence[str], unit: str) -> Tuple[np.ndarray, np.ndarray]:
        if unit == "sample":
            windows, labels, _ = self.train_campaign.sample_dataset(
                patient_labels=list(patient_labels), include_failed=self.include_failed_attacks
            )
        else:
            windows, labels, _ = self.train_campaign.detection_dataset(
                patient_labels=list(patient_labels), include_failed=self.include_failed_attacks
            )
        if len(windows) == 0:
            raise ValueError(f"no training windows for patients {list(patient_labels)}")
        return windows, labels

    def evaluate_detector(self, detector: AnomalyDetector, unit: str = "window") -> ConfusionMatrix:
        """Confusion matrix of a fitted detector on the shared test set."""
        test_windows, test_labels = self._test_data[unit]
        predictions = detector.predict(test_windows)
        return confusion_matrix(test_labels, predictions)

    def run_strategy(
        self, spec: "DetectorSpec", selection: TrainingSelection, detector_name: str = ""
    ) -> StrategyOutcome:
        """Fit/evaluate one detector under one strategy (averaged over runs)."""
        matrices: List[ConfusionMatrix] = []
        total_training_windows = 0
        for run_labels in selection.runs:
            train_windows, train_labels = self._training_data(run_labels, spec.unit)
            detector = spec.factory()
            detector.fit(train_windows, train_labels)
            matrices.append(self.evaluate_detector(detector, spec.unit))
            total_training_windows += len(train_windows)
        return StrategyOutcome(
            detector=detector_name,
            strategy=selection.strategy,
            precision=float(np.mean([matrix.precision for matrix in matrices])),
            recall=float(np.mean([matrix.recall for matrix in matrices])),
            f1=float(np.mean([matrix.f1 for matrix in matrices])),
            false_negative_rate=float(
                np.mean([matrix.false_negative_rate for matrix in matrices])
            ),
            per_run=matrices,
            training_windows=total_training_windows // max(len(selection.runs), 1),
        )

    def run(self, selections: Dict[str, TrainingSelection]) -> SelectiveTrainingResult:
        """Run every detector under every strategy."""
        result = SelectiveTrainingResult()
        for detector_name, spec in self.detector_factories.items():
            result.outcomes[detector_name] = {}
            for strategy_name, selection in selections.items():
                outcome = self.run_strategy(spec, selection, detector_name)
                result.outcomes[detector_name][strategy_name] = outcome
        return result


# --------------------------------------------------------------------- figures
def benign_ratio_by_patient(cohort: Cohort, split: str = "train") -> Dict[str, float]:
    """Figure 4: benign normal-to-abnormal ratio per patient.

    Ratios are computed with per-sample scenarios (fasting vs postprandial)
    derived from the carbohydrate trace, and capped at the cohort size when a
    patient has no abnormal samples at all.
    """
    ratios: Dict[str, float] = {}
    for record in cohort:
        features = record.features(split)
        scenarios = scenario_for_samples(features[:, 2])
        ratio = normal_to_abnormal_ratio(features[:, CGM_COLUMN], scenarios)
        ratios[record.label] = ratio
    return ratios


@dataclass
class QuadrantCounts:
    """Figure 6: the four quadrants of glucose samples."""

    benign_normal: int = 0
    benign_abnormal: int = 0
    malicious_normal: int = 0
    malicious_abnormal: int = 0

    @property
    def total(self) -> int:
        return (
            self.benign_normal
            + self.benign_abnormal
            + self.malicious_normal
            + self.malicious_abnormal
        )


def quadrant_breakdown(campaign: CampaignResult, patient_label: Optional[str] = None) -> QuadrantCounts:
    """Count benign/malicious x normal/abnormal samples in a campaign.

    A sample's normal/abnormal status is judged from the final CGM value of
    the (benign or manipulated) window under the window's scenario.
    """
    counts = QuadrantCounts()
    for record in campaign.records:
        if patient_label is not None and record.patient_label != patient_label:
            continue
        result = record.result
        scenario = result.scenario
        benign_state = classify_glucose(result.benign_window[-1, CGM_COLUMN], scenario)
        if benign_state == GlucoseState.NORMAL:
            counts.benign_normal += 1
        else:
            counts.benign_abnormal += 1
        if result.eligible and result.success:
            malicious_state = classify_glucose(
                result.adversarial_window[-1, CGM_COLUMN], scenario
            )
            if malicious_state == GlucoseState.NORMAL:
                counts.malicious_normal += 1
            else:
                counts.malicious_abnormal += 1
    return counts


@dataclass
class TraceDetectionSample:
    """One evaluated window of the Figure 5 trace plot."""

    patient_label: str
    target_index: int
    scenario: Scenario
    cgm_value: float
    is_malicious: bool
    flagged: bool

    @property
    def is_false_negative(self) -> bool:
        return self.is_malicious and not self.flagged


def trace_detection(
    detector: AnomalyDetector,
    campaign: CampaignResult,
    patient_label: str,
    unit: str = "sample",
) -> List[TraceDetectionSample]:
    """Figure 5: per-measurement detection outcomes along one patient's trace.

    ``unit`` selects what the detector inspects: ``"sample"`` feeds it the
    final (possibly manipulated) measurement of each window, matching the
    paper's per-measurement kNN flags; ``"window"`` feeds it whole windows
    (for sequence detectors such as MAD-GAN).
    """
    if unit not in ("sample", "window"):
        raise ValueError("unit must be 'sample' or 'window'")
    # Collect every window first so the detector is queried ONCE with the
    # whole batch instead of once per window.  Deterministic detectors (kNN,
    # OneClassSVM) flag identically either way; MAD-GAN's inversion draws
    # per-call latents, so batching changes its stochastic reconstruction the
    # same way the batched evaluate_detector/ detection_experiment paths do.
    views: List[np.ndarray] = []
    annotated: List[Tuple[WindowAttackRecord, np.ndarray, bool]] = []
    for record in campaign.for_patient(patient_label):
        result = record.result
        windows = [(result.benign_window, False)]
        if result.eligible and result.success:
            windows.append((result.adversarial_window, True))
        for window, is_malicious in windows:
            views.append(window[-1:] if unit == "sample" else window)
            annotated.append((record, window, is_malicious))
    if not views:
        return []
    flags = detector.predict(np.stack(views))
    samples: List[TraceDetectionSample] = []
    for (record, window, is_malicious), flag in zip(annotated, flags):
        samples.append(
            TraceDetectionSample(
                patient_label=patient_label,
                target_index=record.target_index,
                scenario=record.result.scenario,
                cgm_value=float(window[-1, CGM_COLUMN]),
                is_malicious=is_malicious,
                flagged=bool(flag),
            )
        )
    return samples


def false_negative_rate_by_patient(
    detector: AnomalyDetector, campaign: CampaignResult, unit: str = "sample"
) -> Dict[str, float]:
    """Per-patient false-negative rate of a fitted detector (Figure 5's message)."""
    rates: Dict[str, float] = {}
    for label in campaign.patient_labels:
        samples = trace_detection(detector, campaign, label, unit=unit)
        malicious = [sample for sample in samples if sample.is_malicious]
        if not malicious:
            rates[label] = float("nan")
            continue
        misses = sum(1 for sample in malicious if sample.is_false_negative)
        rates[label] = misses / len(malicious)
    return rates


@dataclass
class AttackSuccessReport:
    """Appendix A (Figures 9 and 10): attack success per patient and transition."""

    normal_to_hyper: Dict[str, float] = field(default_factory=dict)
    hypo_to_hyper: Dict[str, float] = field(default_factory=dict)

    @property
    def average_normal_to_hyper(self) -> float:
        values = [value for value in self.normal_to_hyper.values() if not np.isnan(value)]
        return float(np.mean(values)) if values else float("nan")

    @property
    def average_hypo_to_hyper(self) -> float:
        values = [value for value in self.hypo_to_hyper.values() if not np.isnan(value)]
        return float(np.mean(values)) if values else float("nan")


def attack_success_report(campaign: CampaignResult) -> AttackSuccessReport:
    """Summarise misdiagnosis rates per patient from an attack campaign."""
    report = AttackSuccessReport()
    for label, summary in campaign.summaries().items():
        report.normal_to_hyper[label] = summary.normal_to_hyper_rate
        report.hypo_to_hyper[label] = summary.hypo_to_hyper_rate
    return report
