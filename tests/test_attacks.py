"""Tests for the URET-style evasion attack framework."""

import numpy as np
import pytest

from repro.attacks import (
    AttackCampaign,
    BeamExplorer,
    CompositeConstraint,
    EvasionAttack,
    GlucoseRangeConstraint,
    GreedyExplorer,
    MaxModifiedSamplesConstraint,
    RampTransformer,
    RandomExplorer,
    ScaleTransformer,
    SuffixLevelTransformer,
    SuffixOffsetTransformer,
    constraint_for_scenario,
    default_transformers,
)
from repro.data.cohort import CGM_COLUMN
from repro.glucose import Scenario
from repro.glucose.states import FASTING_HYPER_THRESHOLD, POSTPRANDIAL_HYPER_THRESHOLD


def benign_window(level: float = 110.0, history: int = 12) -> np.ndarray:
    window = np.zeros((history, 4))
    window[:, CGM_COLUMN] = level
    window[:, 1] = 0.5
    window[:, 3] = 70.0
    return window


class TestConstraints:
    def test_scenario_constraint_bounds(self):
        fasting = constraint_for_scenario(Scenario.FASTING)
        postprandial = constraint_for_scenario(Scenario.POSTPRANDIAL)
        assert fasting.low == FASTING_HYPER_THRESHOLD
        assert postprandial.low == POSTPRANDIAL_HYPER_THRESHOLD
        assert fasting.high == 499.0

    def test_unmodified_window_satisfies(self):
        constraint = constraint_for_scenario(Scenario.FASTING)
        window = benign_window()
        assert constraint.is_satisfied(window.copy(), window)

    def test_modified_value_must_be_in_range(self):
        constraint = constraint_for_scenario(Scenario.POSTPRANDIAL)
        original = benign_window()
        modified = original.copy()
        modified[-1, CGM_COLUMN] = 150.0  # below the postprandial bound
        assert not constraint.is_satisfied(modified, original)
        modified[-1, CGM_COLUMN] = 250.0
        assert constraint.is_satisfied(modified, original)

    def test_non_cgm_modification_rejected(self):
        constraint = constraint_for_scenario(Scenario.FASTING)
        original = benign_window()
        modified = original.copy()
        modified[-1, 1] = 99.0
        assert not constraint.is_satisfied(modified, original)

    def test_projection_clamps_and_restores(self):
        constraint = constraint_for_scenario(Scenario.FASTING)
        original = benign_window()
        modified = original.copy()
        modified[-1, CGM_COLUMN] = 1000.0
        modified[-1, 1] = 99.0
        projected = constraint.project(modified, original)
        assert projected[-1, CGM_COLUMN] == 499.0
        assert projected[-1, 1] == original[-1, 1]
        assert constraint.is_satisfied(projected, original)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GlucoseRangeConstraint(low=500.0, high=400.0)

    def test_max_modified_constraint(self):
        constraint = MaxModifiedSamplesConstraint(max_modified=2)
        original = benign_window()
        modified = original.copy()
        modified[-4:, CGM_COLUMN] += 100.0
        assert not constraint.is_satisfied(modified, original)
        projected = constraint.project(modified, original)
        assert constraint.is_satisfied(projected, original)
        # The latest samples are the ones kept.
        assert projected[-1, CGM_COLUMN] != original[-1, CGM_COLUMN]

    def test_composite_constraint(self):
        composite = CompositeConstraint(
            [constraint_for_scenario(Scenario.FASTING), MaxModifiedSamplesConstraint(max_modified=1)]
        )
        original = benign_window()
        modified = original.copy()
        modified[-3:, CGM_COLUMN] = 300.0
        projected = composite.project(modified, original)
        assert composite.is_satisfied(projected, original)


class TestTransformers:
    @pytest.mark.parametrize(
        "transformer",
        [SuffixLevelTransformer(), SuffixOffsetTransformer(), RampTransformer(), ScaleTransformer()],
        ids=["level", "offset", "ramp", "scale"],
    )
    def test_candidates_only_touch_cgm(self, transformer):
        window = benign_window()
        for edge in transformer.candidates(window):
            assert edge.window.shape == window.shape
            np.testing.assert_array_equal(edge.window[:, 1:], window[:, 1:])
            assert edge.description

    def test_level_transformer_sets_levels(self):
        edges = SuffixLevelTransformer(levels=(250.0,), suffix_lengths=(3,)).candidates(benign_window())
        assert len(edges) == 1
        np.testing.assert_array_equal(edges[0].window[-3:, CGM_COLUMN], 250.0)

    def test_offsets_increase_values(self):
        window = benign_window(100.0)
        for edge in SuffixOffsetTransformer().candidates(window):
            assert np.all(edge.window[:, CGM_COLUMN] >= 100.0)

    def test_default_transformer_set_nonempty(self):
        assert len(default_transformers()) >= 3


class _LastValuePredictor:
    """Stub predictor: prediction equals the final CGM value of the window."""

    def predict(self, windows):
        windows = np.asarray(windows, dtype=np.float64)
        return windows[:, -1, CGM_COLUMN]

    def predict_one(self, window):
        return float(np.asarray(window)[-1, CGM_COLUMN])


class _CappedPredictor(_LastValuePredictor):
    """Stub predictor whose output saturates below the postprandial threshold."""

    def predict(self, windows):
        return np.minimum(super().predict(windows), 980.0) * 0.0 + np.minimum(
            np.asarray(windows)[:, -1, CGM_COLUMN], 180.0
        ) * 0.9

    def predict_one(self, window):
        return float(self.predict(np.asarray(window)[np.newaxis])[0])


class TestExplorers:
    def _score(self, batch):
        return np.asarray(batch)[:, -1, CGM_COLUMN]

    def _goal(self, threshold):
        return lambda window, score: score > threshold

    @pytest.mark.parametrize(
        "explorer",
        [GreedyExplorer(max_depth=2), BeamExplorer(beam_width=2, max_depth=2), RandomExplorer(max_depth=2, n_walks=15)],
        ids=["greedy", "beam", "random"],
    )
    def test_explorers_reach_reachable_goal(self, explorer):
        result = explorer.search(
            original=benign_window(110.0),
            transformers=[SuffixLevelTransformer(levels=(260.0, 400.0), suffix_lengths=(2,))],
            constraint=constraint_for_scenario(Scenario.POSTPRANDIAL),
            score_function=self._score,
            goal_function=self._goal(200.0),
        )
        assert result.success
        assert result.queries > 0
        assert result.path

    def test_greedy_stops_when_goal_unreachable(self):
        result = GreedyExplorer(max_depth=2).search(
            original=benign_window(110.0),
            transformers=[SuffixLevelTransformer(levels=(200.0,), suffix_lengths=(1,))],
            constraint=constraint_for_scenario(Scenario.POSTPRANDIAL),
            score_function=self._score,
            goal_function=self._goal(1000.0),
        )
        assert not result.success

    def test_exploration_respects_constraint(self):
        constraint = constraint_for_scenario(Scenario.POSTPRANDIAL)
        original = benign_window(110.0)
        result = GreedyExplorer(max_depth=3).search(
            original=original,
            transformers=default_transformers(),
            constraint=constraint,
            score_function=self._score,
            goal_function=self._goal(10_000.0),
        )
        assert constraint.is_satisfied(result.window, original)


class TestEvasionAttack:
    def test_successful_attack_flips_state(self):
        attack = EvasionAttack(_LastValuePredictor())
        result = attack.attack_window(benign_window(110.0), Scenario.POSTPRANDIAL)
        assert result.eligible
        assert result.success
        assert result.benign_state.value == "normal"
        assert result.adversarial_state.value == "hyper"
        assert result.adversarial_prediction > POSTPRANDIAL_HYPER_THRESHOLD

    def test_ineligible_window_not_attacked(self):
        attack = EvasionAttack(_LastValuePredictor())
        result = attack.attack_window(benign_window(250.0), Scenario.POSTPRANDIAL)
        assert not result.eligible
        assert not result.success
        np.testing.assert_array_equal(result.adversarial_window, result.benign_window)

    def test_resilient_model_resists_postprandial_attack(self):
        attack = EvasionAttack(_CappedPredictor())
        result = attack.attack_window(benign_window(110.0), Scenario.POSTPRANDIAL)
        assert result.eligible
        assert not result.success

    def test_adversarial_window_respects_constraint(self):
        attack = EvasionAttack(_LastValuePredictor())
        result = attack.attack_window(benign_window(100.0), Scenario.FASTING)
        constraint = constraint_for_scenario(Scenario.FASTING)
        assert constraint.is_satisfied(result.adversarial_window, result.benign_window)

    def test_attack_batch_length(self):
        attack = EvasionAttack(_LastValuePredictor())
        windows = np.stack([benign_window(100.0), benign_window(105.0)])
        results = attack.attack_batch(windows, [Scenario.FASTING, Scenario.POSTPRANDIAL])
        assert len(results) == 2

    def test_perturbation_norm_positive_for_success(self):
        attack = EvasionAttack(_LastValuePredictor())
        result = attack.attack_window(benign_window(100.0), Scenario.FASTING)
        assert result.perturbation_norm > 0


class TestCampaign:
    def test_campaign_covers_all_patients(self, tiny_test_campaign, tiny_cohort):
        assert set(tiny_test_campaign.patient_labels) == set(tiny_cohort.labels)

    def test_summaries_have_valid_rates(self, tiny_test_campaign):
        for label, summary in tiny_test_campaign.summaries().items():
            assert summary.n_windows > 0
            if summary.n_eligible:
                assert 0.0 <= summary.success_rate <= 1.0

    def test_well_controlled_patient_has_more_eligible_windows(self, tiny_test_campaign):
        summaries = tiny_test_campaign.summaries()
        assert summaries["A_5"].n_eligible > summaries["A_2"].n_eligible

    def test_detection_dataset_labels(self, tiny_test_campaign):
        windows, labels, provenance = tiny_test_campaign.detection_dataset()
        assert len(windows) == len(labels) == len(provenance)
        assert set(np.unique(labels)) <= {0, 1}
        assert windows.ndim == 3

    def test_sample_dataset_single_timestep(self, tiny_test_campaign):
        samples, labels, _ = tiny_test_campaign.sample_dataset()
        assert samples.shape[1] == 1
        assert samples.shape[2] == 4
        assert np.sum(labels == 0) > 0

    def test_sample_dataset_patient_filter(self, tiny_test_campaign):
        _, _, provenance = tiny_test_campaign.sample_dataset(patient_labels=["A_5"])
        assert set(provenance) == {"A_5"}

    @pytest.mark.parametrize("include_failed", [False, True])
    @pytest.mark.parametrize("patients", [None, ["A_5"], ["A_2", "B_2"], ["Z_9"]])
    def test_dataset_size_counts_the_dataset_rows(self, tiny_test_campaign, patients, include_failed):
        size = tiny_test_campaign.dataset_size(patients, include_failed)
        for dataset in (tiny_test_campaign.detection_dataset, tiny_test_campaign.sample_dataset):
            assert size == len(dataset(patients, include_failed)[1])
        assert (size == 0) == (patients == ["Z_9"])

    def test_invalid_stride_rejected(self, tiny_zoo):
        with pytest.raises(ValueError):
            AttackCampaign(tiny_zoo, stride=0)

    def test_summary_unknown_patient_raises(self, tiny_test_campaign):
        with pytest.raises(KeyError):
            tiny_test_campaign.summary("Z_9")
