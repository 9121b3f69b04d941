"""Plug a custom anomaly detector into the selective-training pipeline.

The paper's framework is detector-agnostic: any static detector that exposes
``fit`` / ``scores`` / ``predict`` can be trained selectively on the less
vulnerable cluster.  This example implements a simple robust z-score detector,
registers it next to the built-in kNN, and runs both through the
selective-training experiment.

Run with:  python examples/custom_detector.py
"""

from typing import Optional

import numpy as np

from repro.attacks import AttackCampaign
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.detectors import AnomalyDetector, KNNClassifierDetector
from repro.eval import DetectorSpec, SelectiveTrainingExperiment, render_metric_figure
from repro.glucose import GlucoseModelZoo
from repro.risk import SelectionPlanner


class RobustZScoreDetector(AnomalyDetector):
    """Flag samples whose CGM value deviates from the benign median by > k MAD."""

    name = "robust-z"

    def __init__(self, threshold: float = 5.0):
        self.threshold = threshold
        self.median_: Optional[float] = None
        self.mad_: Optional[float] = None

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "RobustZScoreDetector":
        windows = np.asarray(windows, dtype=np.float64)
        if labels is not None:
            windows = windows[np.asarray(labels) == 0]
        cgm_values = windows[:, -1, 0]
        self.median_ = float(np.median(cgm_values))
        self.mad_ = float(np.median(np.abs(cgm_values - self.median_)) + 1e-9)
        return self

    def scores(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        return np.abs(windows[:, -1, 0] - self.median_) / self.mad_

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return (self.scores(windows) > self.threshold).astype(int)


def main() -> None:
    profiles = [
        make_patient_profile("A", 5),
        make_patient_profile("B", 2),
        make_patient_profile("A", 0),
        make_patient_profile("A", 2),
    ]
    cohort = SyntheticOhioT1DM(train_days=3, test_days=1, seed=5, profiles=profiles).generate()
    zoo = GlucoseModelZoo(predictor_kwargs=dict(epochs=3, hidden_size=10), seed=4)
    zoo.fit(cohort)

    train_campaign = AttackCampaign(zoo, stride=5).run_cohort(cohort, split="train")
    test_campaign = AttackCampaign(zoo, stride=4).run_cohort(cohort, split="test")

    planner = SelectionPlanner(
        all_labels=sorted(cohort.labels), less_vulnerable=["A_5", "B_2"], random_runs=2, seed=0
    )
    experiment = SelectiveTrainingExperiment(
        train_campaign=train_campaign,
        test_campaign=test_campaign,
        detector_factories={
            "kNN": DetectorSpec(lambda: KNNClassifierDetector(n_neighbors=7), unit="sample"),
            "robust-z": DetectorSpec(lambda: RobustZScoreDetector(threshold=5.0), unit="sample"),
        },
    )
    result = experiment.run(planner.plan())
    print(render_metric_figure(result, "recall", "Recall"))
    print(render_metric_figure(result, "precision", "Precision"))


if __name__ == "__main__":
    main()
