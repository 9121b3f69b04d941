"""Tests for the risk profiling framework (severity, quantification, profiles,
clustering, selection, and the orchestrator)."""

import numpy as np
import pytest

from repro.glucose import GlucoseState, Scenario
from repro.risk import (
    ALL_STRATEGIES,
    HierarchicalClustering,
    PAPER_SEVERITY_TABLE,
    RiskProfile,
    RiskProfileBuilder,
    RiskProfilingFramework,
    RiskQuantifier,
    STRATEGY_ALL,
    STRATEGY_LESS_VULNERABLE,
    STRATEGY_MORE_VULNERABLE,
    STRATEGY_RANDOM,
    SelectionPlanner,
    SeverityMatrix,
    cluster_profiles,
    pairwise_euclidean,
    profile_matrix,
)
from repro.attacks import AttackCampaign


class TestSeverityMatrix:
    def test_paper_table_values(self):
        matrix = SeverityMatrix.paper_exponential()
        assert matrix.coefficient_for(GlucoseState.HYPO, GlucoseState.HYPER) == 64.0
        assert matrix.coefficient_for(GlucoseState.NORMAL, GlucoseState.HYPER) == 32.0
        assert matrix.coefficient_for(GlucoseState.HYPO, GlucoseState.NORMAL) == 16.0
        assert matrix.coefficient_for(GlucoseState.HYPER, GlucoseState.HYPO) == 8.0
        assert matrix.coefficient_for(GlucoseState.HYPER, GlucoseState.NORMAL) == 4.0
        assert matrix.coefficient_for(GlucoseState.NORMAL, GlucoseState.HYPO) == 2.0

    def test_same_state_severity(self):
        matrix = SeverityMatrix()
        assert matrix.coefficient_for(GlucoseState.NORMAL, GlucoseState.NORMAL) == 1.0

    def test_worst_transition_is_hypo_to_hyper(self):
        rows = SeverityMatrix().as_rows()
        assert rows[0] == ("hypo", "hyper", 64.0)

    def test_linear_and_uniform_variants(self):
        linear = SeverityMatrix.linear()
        uniform = SeverityMatrix.uniform()
        assert linear.coefficient_for(GlucoseState.HYPO, GlucoseState.HYPER) == 6.0
        assert uniform.coefficient_for(GlucoseState.HYPO, GlucoseState.HYPER) == 1.0

    def test_negative_severity_rejected(self):
        with pytest.raises(ValueError):
            SeverityMatrix(table={(GlucoseState.HYPO, GlucoseState.HYPER): -1.0})

    def test_paper_table_has_six_transitions(self):
        assert len(PAPER_SEVERITY_TABLE) == 6


class TestRiskQuantifier:
    def test_magnitude_is_squared_deviation(self):
        assert RiskQuantifier().magnitude(100.0, 130.0) == pytest.approx(900.0)

    def test_risk_formula_matches_equation_one(self):
        quantifier = RiskQuantifier()
        # normal -> hyper transition: S = 32, Z = (110 - 210)^2 = 10000.
        assert quantifier.risk_of(110.0, 210.0, Scenario.POSTPRANDIAL) == pytest.approx(320_000.0)

    def test_worst_case_transition_weighs_most(self):
        quantifier = RiskQuantifier()
        hypo_to_hyper = quantifier.risk_of(60.0, 210.0, Scenario.POSTPRANDIAL)
        normal_to_hyper = quantifier.risk_of(110.0, 260.0, Scenario.POSTPRANDIAL)
        # identical magnitude (150^2) but different severities: 64 vs 32.
        assert hypo_to_hyper == pytest.approx(2.0 * normal_to_hyper)

    def test_no_transition_uses_low_severity(self):
        quantifier = RiskQuantifier()
        assert quantifier.risk_of(100.0, 120.0, Scenario.POSTPRANDIAL) == pytest.approx(400.0)

    def test_campaign_records_sorted_by_time(self, tiny_train_campaign):
        quantifier = RiskQuantifier()
        records = tiny_train_campaign.for_patient("A_5")
        samples = quantifier.from_records(records)
        indices = [sample.target_index for sample in samples]
        assert indices == sorted(indices)

    def test_ineligible_records_have_zero_risk(self, tiny_train_campaign):
        quantifier = RiskQuantifier()
        for record in tiny_train_campaign.for_patient("A_2"):
            sample = quantifier.from_attack_result(record.result, record.target_index)
            if not record.result.eligible:
                assert sample.risk == 0.0


class TestRiskProfiles:
    def test_builder_creates_profile_per_patient(self, tiny_train_campaign):
        profiles = RiskProfileBuilder().from_campaign(tiny_train_campaign)
        assert set(profiles) == set(tiny_train_campaign.patient_labels)
        for profile in profiles.values():
            assert len(profile) > 0
            assert np.all(profile.risks >= 0.0)

    def test_less_vulnerable_patient_risk_differs_from_more_vulnerable(self, tiny_train_campaign):
        profiles = RiskProfileBuilder().from_campaign(tiny_train_campaign)
        assert profiles["A_5"].mean_risk != pytest.approx(profiles["A_2"].mean_risk)

    def test_profile_resampling_and_features(self):
        profile = RiskProfile("X", np.arange(10), np.linspace(0, 100, 10))
        assert len(profile.resampled(32)) == 32
        assert profile.feature_vector().shape == (6,)
        assert profile.peak_risk == 100.0

    def test_profile_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RiskProfile("X", np.arange(3), np.arange(4))

    def test_profile_matrix_shapes(self, tiny_train_campaign):
        profiles = RiskProfileBuilder().from_campaign(tiny_train_campaign)
        labels, matrix = profile_matrix(profiles, length=16)
        assert matrix.shape == (len(profiles), 16)
        assert labels == sorted(profiles)

    def test_profile_matrix_summary_representation(self, tiny_train_campaign):
        profiles = RiskProfileBuilder().from_campaign(tiny_train_campaign)
        _, matrix = profile_matrix(profiles, representation="summary")
        assert matrix.shape == (len(profiles), 6)

    def test_profile_matrix_invalid_representation(self, tiny_train_campaign):
        profiles = RiskProfileBuilder().from_campaign(tiny_train_campaign)
        with pytest.raises(ValueError):
            profile_matrix(profiles, representation="wavelet")


class TestHierarchicalClustering:
    def _two_blob_matrix(self):
        rng = np.random.default_rng(0)
        low = rng.normal(0.0, 0.3, size=(4, 3))
        high = rng.normal(8.0, 0.3, size=(3, 3))
        return np.vstack([low, high])

    def test_pairwise_euclidean_symmetric_zero_diagonal(self):
        matrix = self._two_blob_matrix()
        distances = pairwise_euclidean(matrix)
        np.testing.assert_allclose(distances, distances.T)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-12)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_two_clusters_recovered(self, linkage):
        matrix = self._two_blob_matrix()
        model = HierarchicalClustering(linkage=linkage).fit(matrix)
        labels = model.cut(2)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[-1]

    def test_largest_gap_cut_finds_two_blobs(self):
        model = HierarchicalClustering().fit(self._two_blob_matrix())
        labels = model.cut_by_largest_gap()
        assert len(set(labels.tolist())) == 2

    def test_merge_distances_monotone_for_average_linkage(self):
        model = HierarchicalClustering(linkage="average").fit(self._two_blob_matrix())
        distances = [merge.distance for merge in model.merges_]
        assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))

    def test_merges_build_one_tree_over_every_sample(self):
        matrix = self._two_blob_matrix()
        model = HierarchicalClustering().fit(matrix)
        assert len(model.merges_) == len(matrix) - 1
        assert model.merges_[-1].size == len(matrix)
        # Every cluster id (leaf or merge) is consumed at most once.
        consumed = [merge.left for merge in model.merges_] + [
            merge.right for merge in model.merges_
        ]
        assert len(consumed) == len(set(consumed))

    def test_cut_bounds_validated(self):
        model = HierarchicalClustering().fit(self._two_blob_matrix())
        with pytest.raises(ValueError):
            model.cut(0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalClustering(linkage="median")

    def test_requires_fit_before_cut(self):
        with pytest.raises(RuntimeError):
            HierarchicalClustering().cut(2)

    def test_dendrogram_render_contains_labels(self):
        matrix = self._two_blob_matrix()
        labels = [f"p{i}" for i in range(len(matrix))]
        outcome = cluster_profiles(labels, matrix, n_clusters=2)
        text = outcome.model.render_dendrogram(labels)
        for label in labels:
            assert label in text

    def test_cluster_profiles_outcome_members(self):
        matrix = self._two_blob_matrix()
        labels = [f"p{i}" for i in range(len(matrix))]
        outcome = cluster_profiles(labels, matrix, n_clusters=2)
        assert outcome.n_clusters == 2
        member_union = set(outcome.members(0)) | set(outcome.members(1))
        assert member_union == set(labels)


class TestSelectionPlanner:
    def _planner(self, **kwargs):
        labels = [f"A_{i}" for i in range(6)] + [f"B_{i}" for i in range(6)]
        return SelectionPlanner(labels, ["A_5", "B_1", "B_2"], random_runs=5, seed=0, **kwargs)

    def test_plan_contains_all_strategies(self):
        plan = self._planner().plan()
        assert set(plan) == set(ALL_STRATEGIES)

    def test_less_vulnerable_selection(self):
        selection = self._planner().plan()[STRATEGY_LESS_VULNERABLE]
        assert selection.runs == [["A_5", "B_1", "B_2"]]

    def test_more_vulnerable_is_complement(self):
        planner = self._planner()
        more = set(planner.plan()[STRATEGY_MORE_VULNERABLE].runs[0])
        assert more == set(planner.all_labels) - {"A_5", "B_1", "B_2"}

    def test_all_patients_selection(self):
        selection = self._planner().plan()[STRATEGY_ALL]
        assert len(selection.runs[0]) == 12

    def test_random_selection_runs_and_sizes(self):
        selection = self._planner().plan()[STRATEGY_RANDOM]
        assert selection.n_runs == 5
        for run in selection.runs:
            assert len(run) == 3
            assert len(set(run)) == 3

    def test_random_selection_reproducible(self):
        first = self._planner().random_selection().runs
        second = self._planner().random_selection().runs
        assert first == second

    def test_training_set_reduction_matches_paper(self):
        assert self._planner().training_set_reduction() == pytest.approx(0.75)

    def test_unknown_less_vulnerable_label_rejected(self):
        with pytest.raises(ValueError):
            SelectionPlanner(["A_0"], ["Z_9"])

    def test_all_less_vulnerable_rejected(self):
        with pytest.raises(ValueError):
            SelectionPlanner(["A_0", "A_1"], ["A_0", "A_1"])


class TestFrameworkEndToEnd:
    @pytest.fixture(scope="class")
    def assessment(self, tiny_zoo, tiny_cohort):
        framework = RiskProfilingFramework(
            tiny_zoo, campaign=AttackCampaign(tiny_zoo, stride=8), n_clusters=2
        )
        return framework.assess(tiny_cohort, split="train")

    def test_assessment_partitions_cohort(self, assessment, tiny_cohort):
        less = set(assessment.less_vulnerable)
        more = set(assessment.more_vulnerable)
        assert less | more == set(tiny_cohort.labels)
        assert not less & more
        assert less and more

    def test_less_vulnerable_cluster_has_lower_success_rate(self, assessment):
        rates = assessment.cluster_success_rates
        valid = {index: rate for index, rate in rates.items() if not np.isnan(rate)}
        if len(valid) == 2:
            less_cluster = assessment.cluster_of(assessment.less_vulnerable[0])
            other = next(index for index in valid if index != less_cluster)
            assert valid[less_cluster] <= valid[other]

    def test_profiles_exist_for_every_patient(self, assessment, tiny_cohort):
        assert set(assessment.profiles) == set(tiny_cohort.labels)

    def test_well_controlled_patient_in_less_vulnerable_group(self, assessment):
        assert ("A_5" in assessment.less_vulnerable) or ("B_2" in assessment.less_vulnerable)

    def test_selection_planner_from_assessment(self, assessment):
        planner = SelectionPlanner(
            all_labels=assessment.clustering.labels,
            less_vulnerable=assessment.less_vulnerable,
            random_runs=2,
            seed=1,
        )
        plan = planner.plan()
        assert set(plan) == set(ALL_STRATEGIES)
