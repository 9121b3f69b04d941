"""Tests for glucose state logic and the BiLSTM forecaster."""

import numpy as np
import pytest

from repro.data import ForecastingDataset
from repro.glucose import (
    AGGREGATE_KEY,
    FASTING_HYPER_THRESHOLD,
    GlucoseModelZoo,
    GlucosePredictor,
    GlucoseState,
    HYPOGLYCEMIA_THRESHOLD,
    POSTPRANDIAL_HYPER_THRESHOLD,
    Scenario,
    classify_glucose,
    classify_series,
    hyperglycemia_threshold,
    is_abnormal,
    normal_to_abnormal_ratio,
    scenario_for_samples,
    transition_between,
)


class TestStates:
    def test_hypo_classification(self):
        assert classify_glucose(60.0) == GlucoseState.HYPO

    def test_normal_classification_postprandial(self):
        assert classify_glucose(150.0, Scenario.POSTPRANDIAL) == GlucoseState.NORMAL

    def test_same_value_differs_by_scenario(self):
        assert classify_glucose(150.0, Scenario.FASTING) == GlucoseState.HYPER
        assert classify_glucose(150.0, Scenario.POSTPRANDIAL) == GlucoseState.NORMAL

    def test_thresholds_match_paper(self):
        assert HYPOGLYCEMIA_THRESHOLD == 70.0
        assert FASTING_HYPER_THRESHOLD == 125.0
        assert POSTPRANDIAL_HYPER_THRESHOLD == 180.0

    def test_hyperglycemia_threshold_lookup(self):
        assert hyperglycemia_threshold(Scenario.FASTING) == 125.0
        assert hyperglycemia_threshold(Scenario.POSTPRANDIAL) == 180.0

    def test_classify_series(self):
        states = classify_series([60.0, 100.0, 200.0])
        assert states == [GlucoseState.HYPO, GlucoseState.NORMAL, GlucoseState.HYPER]

    def test_is_abnormal(self):
        assert is_abnormal(60.0)
        assert is_abnormal(200.0)
        assert not is_abnormal(120.0)

    def test_scenario_for_samples_marks_postprandial_window(self):
        carbs = np.zeros(40)
        carbs[5] = 60.0
        scenarios = scenario_for_samples(carbs, window=10)
        assert scenarios[4] == Scenario.FASTING
        assert scenarios[5] == Scenario.POSTPRANDIAL
        assert scenarios[14] == Scenario.POSTPRANDIAL
        assert scenarios[20] == Scenario.FASTING

    def test_normal_to_abnormal_ratio(self):
        values = [100.0, 110.0, 200.0, 60.0]
        assert normal_to_abnormal_ratio(values) == pytest.approx(1.0)

    def test_ratio_infinite_when_no_abnormal(self):
        assert normal_to_abnormal_ratio([100.0, 110.0]) == float("inf")

    def test_ratio_rejects_empty(self):
        with pytest.raises(ValueError):
            normal_to_abnormal_ratio([])

    def test_transition_between(self):
        transition = transition_between(100.0, 250.0)
        assert transition.benign == GlucoseState.NORMAL
        assert transition.adversarial == GlucoseState.HYPER
        assert transition.is_misdiagnosis
        assert str(transition) == "normal->hyper"

    def test_no_transition_not_misdiagnosis(self):
        assert not transition_between(100.0, 110.0).is_misdiagnosis


class TestGlucosePredictor:
    def _toy_forecasting_problem(self, n: int = 200, seed: int = 0):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        cgm = 130 + 40 * np.sin(2 * np.pi * t / 80.0) + rng.normal(0, 2, n)
        features = np.column_stack([cgm, rng.normal(0, 1, (n, 3))])
        return ForecastingDataset(history=8, horizon=2).windows_from_features(features)

    def test_training_reduces_loss(self):
        windows, targets, _ = self._toy_forecasting_problem()
        predictor = GlucosePredictor(history=8, horizon=2, hidden_size=8, epochs=4, seed=0)
        predictor.fit(windows, targets)
        losses = predictor.history_.epoch_losses
        assert len(losses) == 4 and losses[-1] < losses[0]

    def test_predictions_beat_mean_baseline(self):
        windows, targets, _ = self._toy_forecasting_problem(300)
        predictor = GlucosePredictor(history=8, horizon=2, hidden_size=8, epochs=6, seed=0)
        predictor.fit(windows[:250], targets[:250])
        metrics = predictor.evaluate(windows[250:], targets[250:])
        baseline_rmse = float(np.sqrt(np.mean((targets[250:] - targets[:250].mean()) ** 2)))
        assert metrics["rmse"] < baseline_rmse

    def test_predict_requires_fit(self):
        predictor = GlucosePredictor()
        with pytest.raises(RuntimeError):
            predictor.predict(np.zeros((1, 12, 4)))

    def test_shape_validation(self):
        predictor = GlucosePredictor(history=8, horizon=2)
        with pytest.raises(ValueError):
            predictor.fit(np.zeros((10, 5, 4)), np.zeros(10))

    def test_predict_one_returns_scalar(self):
        windows, targets, _ = self._toy_forecasting_problem()
        predictor = GlucosePredictor(history=8, horizon=2, hidden_size=6, epochs=2, seed=0)
        predictor.fit(windows, targets)
        assert isinstance(predictor.predict_one(windows[0]), float)

    def test_input_clipping_bounds_extrapolation(self):
        windows, targets, _ = self._toy_forecasting_problem()
        clipped = GlucosePredictor(history=8, horizon=2, hidden_size=6, epochs=3, seed=0, input_clip_std=2.0)
        clipped.fit(windows, targets)
        manipulated = windows[:20].copy()
        manipulated[:, -3:, 0] = 480.0
        extreme = windows[:20].copy()
        extreme[:, -3:, 0] = 5000.0
        np.testing.assert_allclose(
            clipped.predict(manipulated), clipped.predict(extreme), atol=1e-9
        )

    def test_state_dict_roundtrip(self):
        windows, targets, _ = self._toy_forecasting_problem()
        predictor = GlucosePredictor(history=8, horizon=2, hidden_size=6, epochs=2, seed=0)
        predictor.fit(windows, targets)
        clone = GlucosePredictor(history=8, horizon=2, hidden_size=6, epochs=2, seed=99)
        clone.scaler = predictor.scaler
        clone.load_state_dict(predictor.state_dict())
        np.testing.assert_allclose(clone.predict(windows[:5]), predictor.predict(windows[:5]))

    def test_invalid_epochs_rejected(self):
        with pytest.raises(ValueError):
            GlucosePredictor(epochs=0)

    def test_invalid_clip_rejected(self):
        with pytest.raises(ValueError):
            GlucosePredictor(input_clip_std=-1.0)


class TestGlucoseModelZoo:
    def test_zoo_contains_aggregate_and_personalized(self, tiny_zoo, tiny_cohort):
        assert AGGREGATE_KEY in tiny_zoo.available_models()
        for label in tiny_cohort.labels:
            assert label in tiny_zoo.available_models()

    def test_model_for_unknown_patient_falls_back_to_aggregate(self, tiny_zoo):
        assert tiny_zoo.model_for("Z_9") is tiny_zoo.aggregate

    def test_evaluation_reports_each_patient(self, tiny_zoo, tiny_cohort):
        evaluation = tiny_zoo.evaluate(tiny_cohort, split="test")
        for label in tiny_cohort.labels:
            assert label in evaluation.rmse
            assert evaluation.rmse[label] > 0

    def test_predictions_are_physiological(self, tiny_zoo, tiny_cohort):
        dataset = tiny_zoo.dataset
        windows, _, _ = dataset.from_record(tiny_cohort["A_5"], "test")
        predictions = tiny_zoo.model_for("A_5").predict(windows)
        assert np.all(predictions > 20.0)
        assert np.all(predictions < 600.0)

    def test_unfitted_zoo_raises(self):
        with pytest.raises(RuntimeError):
            GlucoseModelZoo().aggregate


@pytest.mark.parametrize("cpus", [1, 2])
class TestZooRefit:
    """A refit replaces the whole zoo, and only once every fit succeeded."""

    @pytest.fixture(autouse=True)
    def one_or_two_shares(self, pin_cpus, cpus):
        pin_cpus(cpus)

    @staticmethod
    def small_zoo(cohort):
        return GlucoseModelZoo(predictor_kwargs=dict(epochs=1, hidden_size=4), seed=2).fit(cohort)

    def test_refit_on_a_smaller_cohort_drops_stale_models(self, tiny_cohort):
        zoo = self.small_zoo(tiny_cohort)
        kept = tiny_cohort.labels[:2]
        zoo.fit(tiny_cohort.select(kept))
        assert zoo.available_models() == sorted([AGGREGATE_KEY, *kept])
        dropped = tiny_cohort.labels[-1]
        assert zoo.model_for(dropped) is zoo.aggregate

    def test_failed_refit_leaves_the_zoo_unchanged(self, tiny_cohort, monkeypatch):
        zoo = self.small_zoo(tiny_cohort)
        before = dict(zoo.models)
        aggregate_windows = len(zoo.dataset.from_cohort(tiny_cohort, split="train")[0])
        fit = GlucosePredictor.fit

        def fail_personalized(self, windows, targets):
            if len(windows) != aggregate_windows:
                raise RuntimeError("personalized fit failed")
            return fit(self, windows, targets)

        monkeypatch.setattr(GlucosePredictor, "fit", fail_personalized)
        with pytest.raises(RuntimeError, match="personalized fit failed"):
            zoo.fit(tiny_cohort)
        assert zoo.models.keys() == before.keys()
        assert all(zoo.models[label] is model for label, model in before.items())
