"""Tests for patient profiles, the synthetic cohort, and dataset views."""

import numpy as np
import pytest

from repro.data import (
    CGM_COLUMN,
    FEATURE_NAMES,
    ForecastingDataset,
    SUBSET_A,
    SUBSET_B,
    SyntheticOhioT1DM,
    WindowScaler,
    build_cohort_profiles,
    expected_less_vulnerable_labels,
    expected_more_vulnerable_labels,
    flatten_windows,
    make_patient_profile,
)


class TestPatientProfiles:
    def test_cohort_has_twelve_patients(self):
        profiles = build_cohort_profiles()
        assert len(profiles) == 12
        assert sum(1 for profile in profiles if profile.subset == SUBSET_A) == 6
        assert sum(1 for profile in profiles if profile.subset == SUBSET_B) == 6

    def test_labels_are_unique(self):
        labels = [profile.label for profile in build_cohort_profiles()]
        assert len(set(labels)) == 12

    def test_expected_vulnerability_split_partitions_cohort(self):
        less = set(expected_less_vulnerable_labels())
        more = set(expected_more_vulnerable_labels())
        all_labels = {profile.label for profile in build_cohort_profiles()}
        assert less | more == all_labels
        assert not less & more

    def test_less_vulnerable_patients_have_better_control(self):
        profiles = {profile.label: profile for profile in build_cohort_profiles()}
        for label in expected_less_vulnerable_labels():
            assert profiles[label].control_level in ("excellent", "good")

    def test_invalid_subset_rejected(self):
        with pytest.raises(ValueError):
            make_patient_profile("C", 0)

    def test_invalid_control_level_rejected(self):
        with pytest.raises(ValueError):
            make_patient_profile(SUBSET_A, 0, control_level="heroic")

    def test_single_subset_build(self):
        profiles = build_cohort_profiles(subsets=(SUBSET_A,))
        assert len(profiles) == 6


class TestCohortGeneration:
    def test_records_and_labels(self, tiny_cohort):
        assert len(tiny_cohort) == 4
        assert set(tiny_cohort.labels) == {"A_5", "B_2", "A_0", "A_2"}

    def test_feature_matrix_shape_and_names(self, tiny_cohort):
        record = tiny_cohort["A_5"]
        features = record.features("train")
        assert features.shape[1] == len(FEATURE_NAMES)
        assert features.shape[0] == record.train.n_samples

    def test_feature_matrix_cgm_column(self, tiny_cohort):
        record = tiny_cohort["A_5"]
        np.testing.assert_array_equal(record.features("train")[:, CGM_COLUMN], record.train.cgm)

    def test_invalid_split_rejected(self, tiny_cohort):
        with pytest.raises(ValueError):
            tiny_cohort["A_5"].features("validation")

    def test_subset_selection(self, tiny_cohort):
        subset = tiny_cohort.subset(SUBSET_A)
        assert set(subset.labels) == {"A_5", "A_0", "A_2"}

    def test_select_unknown_label_raises(self, tiny_cohort):
        with pytest.raises(KeyError):
            tiny_cohort.select(["Z_9"])

    def test_generation_is_deterministic(self):
        profiles = [make_patient_profile(SUBSET_A, 5)]
        first = SyntheticOhioT1DM(train_days=1, test_days=1, seed=3, profiles=profiles).generate()
        second = SyntheticOhioT1DM(train_days=1, test_days=1, seed=3, profiles=profiles).generate()
        np.testing.assert_allclose(first["A_5"].train.cgm, second["A_5"].train.cgm)

    def test_different_seeds_differ(self):
        profiles = [make_patient_profile(SUBSET_A, 5)]
        first = SyntheticOhioT1DM(train_days=1, test_days=1, seed=3, profiles=profiles).generate()
        second = SyntheticOhioT1DM(train_days=1, test_days=1, seed=4, profiles=profiles).generate()
        assert not np.allclose(first["A_5"].train.cgm, second["A_5"].train.cgm)

    def test_invalid_days_rejected(self):
        with pytest.raises(ValueError):
            SyntheticOhioT1DM(train_days=0, test_days=1)

    def test_well_controlled_patient_has_higher_normal_fraction(self, tiny_cohort):
        good = tiny_cohort["A_5"].cgm("train")
        bad = tiny_cohort["A_2"].cgm("train")
        good_normal = np.mean((good >= 70) & (good <= 180))
        bad_normal = np.mean((bad >= 70) & (bad <= 180))
        assert good_normal > bad_normal + 0.2


class TestForecastingDataset:
    def test_window_shapes(self, tiny_cohort):
        dataset = ForecastingDataset(history=12, horizon=6)
        windows, targets, indices = dataset.from_record(tiny_cohort["A_5"], "train")
        assert windows.shape[1:] == (12, 4)
        assert len(windows) == len(targets) == len(indices)

    def test_targets_match_future_cgm(self, tiny_cohort):
        record = tiny_cohort["A_5"]
        dataset = ForecastingDataset(history=12, horizon=6)
        windows, targets, indices = dataset.from_record(record, "train")
        features = record.features("train")
        np.testing.assert_allclose(targets[0], features[indices[0], CGM_COLUMN])
        assert indices[0] == 12 + 6 - 1

    def test_cohort_pooling(self, tiny_cohort):
        dataset = ForecastingDataset()
        windows, targets, labels = dataset.from_cohort(tiny_cohort, "train")
        assert len(windows) == len(labels)
        assert set(labels) == set(tiny_cohort.labels)

    def test_too_short_series_yields_empty(self):
        dataset = ForecastingDataset(history=12, horizon=6)
        windows, targets, indices = dataset.windows_from_features(np.zeros((10, 4)))
        assert len(windows) == 0

    def test_invalid_history_rejected(self):
        with pytest.raises(ValueError):
            ForecastingDataset(history=0)


class TestWindowScaler:
    def test_roundtrip_targets(self, rng):
        windows = rng.normal(100, 20, size=(50, 12, 4))
        scaler = WindowScaler().fit(windows)
        targets = rng.normal(100, 20, size=10)
        np.testing.assert_allclose(scaler.unscale_target(scaler.scale_target(targets)), targets)

    def test_transform_shape_preserved(self, rng):
        windows = rng.normal(size=(20, 12, 4))
        scaler = WindowScaler().fit(windows)
        assert scaler.transform(windows).shape == windows.shape

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            WindowScaler().transform(np.zeros((1, 2, 3)))


class TestDetectionHelpers:
    def test_flatten_windows(self):
        assert flatten_windows(np.zeros((5, 12, 4))).shape == (5, 48)

    def test_flatten_windows_keeps_each_window_time_major(self):
        windows = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        flat = flatten_windows(windows)
        np.testing.assert_array_equal(flat[1], windows[1].ravel())
        np.testing.assert_array_equal(flat[0, 4:8], windows[0, 1])

    def test_flatten_windows_rejects_non_3d(self):
        with pytest.raises(ValueError, match="3 dimensions"):
            flatten_windows(np.zeros((5, 48)))
