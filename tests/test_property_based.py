"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks import (
    GlucoseRangeConstraint,
    MaxModifiedSamplesConstraint,
    default_transformers,
)
from repro.detectors.knn import minkowski_distances
from repro.eval.metrics import confusion_matrix
from repro.glucose.states import (
    GlucoseState,
    Scenario,
    classify_glucose,
    hyperglycemia_threshold,
    transition_between,
)
from repro.nn import Tensor
from repro.risk import RiskQuantifier, SeverityMatrix, pairwise_euclidean, HierarchicalClustering
from repro.utils.timeseries import MinMaxScaler, StandardScaler, resample_series

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

small_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 5)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestScalerProperties:
    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_standard_scaler_roundtrip(self, matrix):
        scaler = StandardScaler().fit(matrix)
        recovered = scaler.inverse_transform(scaler.transform(matrix))
        np.testing.assert_allclose(recovered, matrix, atol=1e-6)

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_minmax_scaler_output_in_unit_interval(self, matrix):
        scaled = MinMaxScaler().fit_transform(matrix)
        assert scaled.min() >= -1e-9
        assert scaled.max() <= 1.0 + 1e-9


class TestWindowingProperties:
    @given(st.lists(finite_floats, min_size=2, max_size=50), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_resample_preserves_bounds(self, values, target_length):
        resampled = resample_series(np.array(values), target_length)
        assert len(resampled) == target_length
        assert resampled.min() >= min(values) - 1e-9
        assert resampled.max() <= max(values) + 1e-9


feature_windows = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.just(12), st.just(4)),
    elements=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)


class TestTransformerBatchProperties:
    """candidates_batch must be an exact stacked twin of per-window candidates."""

    @given(feature_windows)
    @settings(max_examples=25, deadline=None)
    def test_candidates_batch_matches_per_window(self, windows):
        for transformer in default_transformers():
            stacked, descriptions = transformer.candidates_batch(windows)
            assert stacked.shape[0] == len(windows)
            for index, window in enumerate(windows):
                edges = transformer.candidates(window)
                assert [edge.description for edge in edges] == descriptions
                np.testing.assert_array_equal(
                    stacked[index], np.stack([edge.window for edge in edges])
                )

    @given(st.integers(2, 24))
    @settings(max_examples=15, deadline=None)
    def test_candidates_batch_handles_short_histories(self, history):
        # Suffix lengths are clamped to the window history in both paths.
        windows = np.full((2, history, 4), 120.0)
        for transformer in default_transformers():
            stacked, descriptions = transformer.candidates_batch(windows)
            edges = transformer.candidates(windows[0])
            assert [edge.description for edge in edges] == descriptions
            np.testing.assert_array_equal(
                stacked[0], np.stack([edge.window for edge in edges])
            )


class TestConstraintBatchProperties:
    """Vectorized constraint checks must agree with the scalar reference."""

    @given(feature_windows, st.sampled_from([125.0, 180.0]))
    @settings(max_examples=25, deadline=None)
    def test_glucose_range_vectorized_matches_scalar(self, candidates, low):
        constraint = GlucoseRangeConstraint(low=low)
        original = candidates[0]
        projected = constraint.project_batch(candidates, original)
        mask = constraint.satisfied_mask(candidates, original)
        projected_mask = constraint.satisfied_mask(projected, original)
        for index, candidate in enumerate(candidates):
            np.testing.assert_array_equal(
                projected[index], constraint.project(candidate, original)
            )
            assert bool(mask[index]) == constraint.is_satisfied(candidate, original)
            assert bool(projected_mask[index]) == constraint.is_satisfied(
                projected[index], original
            )

    @given(feature_windows, st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_max_modified_mask_matches_scalar(self, candidates, max_modified):
        constraint = MaxModifiedSamplesConstraint(max_modified=max_modified)
        original = candidates[-1]
        mask = constraint.satisfied_mask(candidates, original)
        for index, candidate in enumerate(candidates):
            assert bool(mask[index]) == constraint.is_satisfied(candidate, original)

    @given(feature_windows, st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_max_modified_project_batch_matches_scalar(self, candidates, max_modified):
        constraint = MaxModifiedSamplesConstraint(max_modified=max_modified)
        original = candidates[-1]
        projected = constraint.project_batch(candidates, original)
        assert projected.shape == candidates.shape
        for index, candidate in enumerate(candidates):
            np.testing.assert_array_equal(
                projected[index], constraint.project(candidate, original)
            )
        # Projection always lands in the admissible set.
        assert constraint.satisfied_mask(projected, original).all()

    @given(feature_windows, st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_max_modified_project_batch_reverts_oldest_first(self, candidates, max_modified):
        constraint = MaxModifiedSamplesConstraint(max_modified=max_modified)
        original = candidates[-1]
        projected = constraint.project_batch(candidates, original)
        # Surviving modifications must be the *latest* ones: every modified
        # sample in the projection is at least as recent as any reverted one.
        for index, candidate in enumerate(candidates):
            before = np.where(
                np.abs(candidate[:, 0] - original[:, 0]) > constraint.tolerance
            )[0]
            after = np.where(
                np.abs(projected[index][:, 0] - original[:, 0]) > constraint.tolerance
            )[0]
            assert len(after) <= max_modified
            assert set(after) == set(before[len(before) - len(after) :])


class TestTensorProperties:
    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_addition_matches_numpy(self, matrix):
        result = (Tensor(matrix) + Tensor(matrix * 2.0)).numpy()
        np.testing.assert_allclose(result, matrix * 3.0, atol=1e-9)

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, matrix):
        tensor = Tensor(matrix, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(matrix))

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_tanh_output_bounded(self, matrix):
        values = Tensor(matrix).tanh().numpy()
        assert np.all(values <= 1.0)
        assert np.all(values >= -1.0)


class TestDistanceProperties:
    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero_and_symmetry(self, matrix):
        distances = pairwise_euclidean(matrix)
        # The squared-expansion formula loses a little precision for large,
        # nearly identical rows; a 1e-4 absolute tolerance is ample here.
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-4)
        np.testing.assert_allclose(distances, distances.T, atol=1e-9)

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_minkowski_non_negative(self, matrix):
        distances = minkowski_distances(matrix, matrix, p=2.0)
        assert np.all(distances >= 0.0)


class TestGlucoseStateProperties:
    @given(st.floats(min_value=20.0, max_value=499.0), st.sampled_from(list(Scenario)))
    @settings(max_examples=60, deadline=None)
    def test_classification_consistent_with_thresholds(self, value, scenario):
        state = classify_glucose(value, scenario)
        if value < 70.0:
            assert state == GlucoseState.HYPO
        elif value > hyperglycemia_threshold(scenario):
            assert state == GlucoseState.HYPER
        else:
            assert state == GlucoseState.NORMAL

    @given(
        st.floats(min_value=20.0, max_value=499.0),
        st.floats(min_value=20.0, max_value=499.0),
        st.sampled_from(list(Scenario)),
    )
    @settings(max_examples=60, deadline=None)
    def test_risk_non_negative_and_zero_iff_identical(self, benign, adversarial, scenario):
        risk = RiskQuantifier().risk_of(benign, adversarial, scenario)
        assert risk >= 0.0
        if benign == adversarial:
            assert risk == 0.0

    @given(
        st.floats(min_value=20.0, max_value=499.0),
        st.floats(min_value=20.0, max_value=499.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_severity_lookup_total(self, benign, adversarial):
        transition = transition_between(benign, adversarial)
        coefficient = SeverityMatrix().coefficient(transition)
        assert coefficient in {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}


class TestClusteringProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(3, 10), st.integers(1, 4)),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_cut_produces_requested_cluster_count(self, matrix, n_clusters):
        # Ensure rows are not all identical (degenerate but legal); clustering
        # must still partition them into the requested number of groups.
        n_clusters = min(n_clusters, matrix.shape[0])
        model = HierarchicalClustering(linkage="average").fit(matrix)
        labels = model.cut(n_clusters)
        assert len(labels) == matrix.shape[0]
        assert len(set(labels.tolist())) == n_clusters


class TestConfusionMatrixProperties:
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=60),
        st.lists(st.integers(0, 1), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_total(self, true_labels, predicted_labels):
        length = min(len(true_labels), len(predicted_labels))
        true_labels, predicted_labels = true_labels[:length], predicted_labels[:length]
        matrix = confusion_matrix(true_labels, predicted_labels)
        assert matrix.total == length
        assert 0.0 <= matrix.precision <= 1.0
        assert 0.0 <= matrix.recall <= 1.0
        assert 0.0 <= matrix.f1 <= 1.0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_perfect_prediction_has_perfect_scores(self, labels):
        matrix = confusion_matrix(labels, labels)
        if any(labels):
            assert matrix.recall == 1.0
            assert matrix.precision == 1.0
        assert matrix.false_positive_rate == 0.0
