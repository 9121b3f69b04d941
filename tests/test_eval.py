"""Tests for metrics, the experiment harness, and report rendering."""

import numpy as np
import pytest

from repro.detectors import KNNClassifierDetector
from repro.eval import (
    ConfusionMatrix,
    DetectorSpec,
    SelectiveTrainingExperiment,
    attack_success_report,
    benign_ratio_by_patient,
    confusion_matrix,
    f1_score,
    false_negative_rate_by_patient,
    percentage_change,
    precision_score,
    quadrant_breakdown,
    recall_score,
    render_attack_success,
    render_headline_claims,
    render_metric_figure,
    render_quadrants,
    render_ratio_figure,
    render_severity_table,
    trace_detection,
)
from repro.risk import STRATEGY_LESS_VULNERABLE, SelectionPlanner


class TestMetrics:
    def test_confusion_matrix_counts(self):
        matrix = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert matrix.true_positives == 2
        assert matrix.false_negatives == 1
        assert matrix.false_positives == 1
        assert matrix.true_negatives == 1

    def test_precision_recall_f1(self):
        true = [1, 1, 0, 0, 1]
        predicted = [1, 0, 0, 1, 1]
        assert precision_score(true, predicted) == pytest.approx(2 / 3)
        assert recall_score(true, predicted) == pytest.approx(2 / 3)
        assert f1_score(true, predicted) == pytest.approx(2 / 3)

    def test_recall_is_complement_of_false_negative_rate(self):
        matrix = confusion_matrix([1, 1, 1, 0], [1, 0, 0, 0])
        assert matrix.recall + matrix.false_negative_rate == pytest.approx(1.0)

    def test_zero_division_handled(self):
        matrix = confusion_matrix([0, 0], [0, 0])
        assert matrix.precision == 0.0
        assert matrix.recall == 0.0
        assert matrix.f1 == 0.0

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_percentage_change(self):
        assert percentage_change(1.275, 1.0) == pytest.approx(27.5)
        assert percentage_change(0.95, 1.0) == pytest.approx(-5.0)
        assert percentage_change(0.5, 0.0) == float("inf")

    def test_as_dict_keys(self):
        matrix = ConfusionMatrix(1, 2, 3, 4)
        data = matrix.as_dict()
        assert set(data) >= {"precision", "recall", "f1", "false_negative_rate"}


class TestFigureHelpers:
    def test_benign_ratio_ordering(self, tiny_cohort):
        ratios = benign_ratio_by_patient(tiny_cohort)
        assert set(ratios) == set(tiny_cohort.labels)
        # The well-controlled patient must show a clearly higher ratio than the
        # poorly controlled one (the paper's Figure 4 message).
        assert ratios["A_5"] > ratios["A_2"]

    def test_quadrant_counts_total(self, tiny_test_campaign):
        counts = quadrant_breakdown(tiny_test_campaign)
        assert counts.total > 0
        assert counts.benign_normal + counts.benign_abnormal == len(
            [r for r in tiny_test_campaign.records]
        )

    def test_quadrant_per_patient_filter(self, tiny_test_campaign):
        all_counts = quadrant_breakdown(tiny_test_campaign)
        single = quadrant_breakdown(tiny_test_campaign, patient_label="A_5")
        assert single.total <= all_counts.total

    def test_attack_success_report(self, tiny_test_campaign):
        report = attack_success_report(tiny_test_campaign)
        assert set(report.normal_to_hyper) == set(tiny_test_campaign.patient_labels)
        values = [v for v in report.normal_to_hyper.values() if not np.isnan(v)]
        assert values and all(0.0 <= value <= 1.0 for value in values)

    def test_trace_detection_and_false_negatives(self, tiny_train_campaign, tiny_test_campaign):
        windows, labels, _ = tiny_train_campaign.sample_dataset()
        detector = KNNClassifierDetector().fit(windows, labels)
        samples = trace_detection(detector, tiny_test_campaign, "A_5")
        assert samples
        assert any(sample.is_malicious for sample in samples)
        rates = false_negative_rate_by_patient(detector, tiny_test_campaign)
        assert "A_5" in rates


class TestSelectiveTrainingExperiment:
    @pytest.fixture(scope="class")
    def result(self, tiny_train_campaign, tiny_test_campaign, tiny_cohort):
        factories = {
            "kNN": DetectorSpec(factory=lambda: KNNClassifierDetector(n_neighbors=5), unit="sample"),
        }
        experiment = SelectiveTrainingExperiment(
            train_campaign=tiny_train_campaign,
            test_campaign=tiny_test_campaign,
            detector_factories=factories,
        )
        planner = SelectionPlanner(
            all_labels=sorted(tiny_cohort.labels),
            less_vulnerable=["A_5", "B_2"],
            random_runs=2,
            seed=0,
        )
        return experiment.run(planner.plan())

    def test_result_covers_all_strategies(self, result):
        assert set(result.strategies) == {
            "Less Vulnerable",
            "More Vulnerable",
            "Random Samples",
            "All Patients",
        }

    def test_metrics_in_unit_interval(self, result):
        for detector in result.detectors:
            for strategy in result.strategies:
                outcome = result.outcome(detector, strategy)
                assert 0.0 <= outcome.recall <= 1.0
                assert 0.0 <= outcome.precision <= 1.0
                assert 0.0 <= outcome.f1 <= 1.0

    def test_random_strategy_averages_runs(self, result):
        assert result.outcome("kNN", "Random Samples").n_runs == 2

    def test_less_vulnerable_recall_at_least_more_vulnerable(self, result):
        less = result.outcome("kNN", STRATEGY_LESS_VULNERABLE).recall
        more = result.outcome("kNN", "More Vulnerable").recall
        assert less >= more

    def test_metric_table_structure(self, result):
        table = result.metric_table("recall")
        assert "kNN" in table
        assert set(table["kNN"]) == set(result.strategies)

    def test_rendering_helpers(self, result):
        assert "Less Vulnerable" in render_metric_figure(result, "recall")
        assert "kNN" in render_headline_claims(result)

    def test_invalid_detector_unit_rejected(self):
        with pytest.raises(ValueError):
            DetectorSpec(factory=lambda: KNNClassifierDetector(), unit="minute")


class TestRendering:
    def test_severity_table_mentions_worst_transition(self):
        text = render_severity_table()
        assert "64" in text
        assert "hypo" in text

    def test_ratio_figure_renders_all_patients(self, tiny_cohort):
        text = render_ratio_figure(benign_ratio_by_patient(tiny_cohort))
        for label in tiny_cohort.labels:
            assert label in text

    def test_quadrant_rendering(self, tiny_test_campaign):
        text = render_quadrants(quadrant_breakdown(tiny_test_campaign))
        assert "malicious" in text
        assert "benign" in text

    def test_attack_success_rendering(self, tiny_test_campaign):
        report = attack_success_report(tiny_test_campaign)
        text = render_attack_success(report, "normal_to_hyper")
        assert "Average" in text
        with pytest.raises(ValueError):
            render_attack_success(report, "hyper_to_normal")
