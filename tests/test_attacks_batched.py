"""Tests for the batched attack engine: lockstep search, query accounting,
RNG de-correlation, and batched/per-window equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import (
    AttackCampaign,
    EvasionAttack,
    Explorer,
    GreedyExplorer,
    RandomExplorer,
    SuffixLevelTransformer,
    constraint_for_scenario,
    default_transformers,
)
from repro.data.cohort import CGM_COLUMN
from repro.glucose import Scenario


def benign_window(level: float = 110.0, history: int = 12) -> np.ndarray:
    window = np.zeros((history, 4))
    window[:, CGM_COLUMN] = level
    window[:, 1] = 0.5
    window[:, 3] = 70.0
    return window


class CountingPredictor:
    """Last-value stub that counts every window row scored by the model."""

    def __init__(self):
        self.rows_scored = 0

    def predict(self, windows):
        windows = np.asarray(windows, dtype=np.float64)
        self.rows_scored += len(windows)
        return windows[:, -1, CGM_COLUMN]

    def predict_one(self, window):
        return float(self.predict(np.asarray(window)[np.newaxis])[0])


def attack_each(attack, windows, scenarios):
    """The sequential reference: one :meth:`EvasionAttack.attack_window` per window."""
    return [attack.attack_window(window, scenario) for window, scenario in zip(windows, scenarios)]


def assert_results_equal(left, right):
    assert left.eligible == right.eligible
    assert left.success == right.success
    assert left.benign_state == right.benign_state
    assert left.adversarial_state == right.adversarial_state
    assert left.path == right.path
    assert left.queries == right.queries
    np.testing.assert_array_equal(left.benign_window, right.benign_window)
    np.testing.assert_array_equal(left.adversarial_window, right.adversarial_window)
    assert left.benign_prediction == pytest.approx(right.benign_prediction, abs=1e-10)
    assert left.adversarial_prediction == pytest.approx(right.adversarial_prediction, abs=1e-10)


class TestQueryAccounting:
    def test_reported_queries_match_actual_model_queries(self):
        predictor = CountingPredictor()
        attack = EvasionAttack(predictor)
        result = attack.attack_window(benign_window(110.0), Scenario.POSTPRANDIAL)
        assert result.eligible
        assert result.queries == predictor.rows_scored

    def test_ineligible_window_costs_one_query(self):
        predictor = CountingPredictor()
        attack = EvasionAttack(predictor)
        result = attack.attack_window(benign_window(250.0), Scenario.POSTPRANDIAL)
        assert not result.eligible
        assert result.queries == predictor.rows_scored == 1

    def test_batch_queries_match_actual_model_queries(self):
        predictor = CountingPredictor()
        attack = EvasionAttack(predictor)
        windows = np.stack([benign_window(level) for level in (95.0, 120.0, 240.0, 150.0)])
        results = attack.attack_batch(windows, [Scenario.POSTPRANDIAL] * 4)
        assert sum(result.queries for result in results) == predictor.rows_scored

    def test_explorer_skips_rescoring_when_given_initial_score(self):
        predictor = CountingPredictor()
        explorer = GreedyExplorer(max_depth=1)
        result = explorer.search(
            original=benign_window(110.0),
            transformers=[SuffixLevelTransformer(levels=(260.0,), suffix_lengths=(2,))],
            constraint=constraint_for_scenario(Scenario.POSTPRANDIAL),
            score_function=predictor.predict,
            goal_function=lambda window, score: score > 200.0,
            initial_score=110.0,
        )
        assert result.queries == predictor.rows_scored  # no benign re-score


class TestLockstepEquivalence:
    LEVELS = (90.0, 100.0, 110.0, 150.0, 175.0, 250.0, 400.0)

    def _compare(self, explorer_factory):
        windows = np.stack([benign_window(level) for level in self.LEVELS])
        scenarios = [
            Scenario.POSTPRANDIAL if index % 2 else Scenario.FASTING
            for index in range(len(self.LEVELS))
        ]
        batched = EvasionAttack(CountingPredictor(), explorer=explorer_factory()).attack_batch(
            windows, scenarios
        )
        sequential = attack_each(
            EvasionAttack(CountingPredictor(), explorer=explorer_factory()), windows, scenarios
        )
        assert len(batched) == len(sequential) == len(self.LEVELS)
        for left, right in zip(batched, sequential):
            assert_results_equal(left, right)

    def test_greedy_lockstep_reproduces_per_window_results(self):
        self._compare(lambda: GreedyExplorer(max_depth=3))

    def test_random_lockstep_reproduces_per_window_results(self):
        # The lockstep walk rounds must consume the persistent RNG exactly
        # like sequential per-window search calls (one child seed per window).
        self._compare(lambda: RandomExplorer(max_depth=2, n_walks=5, seed=3))

    def test_lockstep_with_real_predictor(self, tiny_zoo, tiny_cohort):
        predictor = tiny_zoo.model_for("A_5")
        record = next(r for r in tiny_cohort if r.label == "A_5")
        windows, _, _ = tiny_zoo.dataset.from_record(record, "test")
        windows = windows[::10][:6]
        scenarios = [Scenario.POSTPRANDIAL] * len(windows)
        batched = EvasionAttack(predictor).attack_batch(windows, scenarios)
        sequential = attack_each(EvasionAttack(predictor), windows, scenarios)
        for left, right in zip(batched, sequential):
            assert left.eligible == right.eligible
            assert left.success == right.success
            assert left.path == right.path
            assert left.queries == right.queries
            np.testing.assert_array_equal(left.adversarial_window, right.adversarial_window)
            assert left.benign_prediction == pytest.approx(right.benign_prediction, abs=1e-10)

    def test_empty_batch(self):
        attack = EvasionAttack(CountingPredictor())
        assert attack.attack_batch(np.empty((0, 12, 4)), []) == []

    def test_mismatched_lengths_rejected(self):
        attack = EvasionAttack(CountingPredictor())
        with pytest.raises(ValueError):
            attack.attack_batch(np.stack([benign_window()]), [])


class TestAliasingSafety:
    def test_attack_window_copies_caller_array(self):
        attack = EvasionAttack(CountingPredictor())
        window = benign_window(110.0)
        result = attack.attack_window(window, Scenario.POSTPRANDIAL)
        window[:, CGM_COLUMN] = -1.0  # caller mutates their buffer afterwards
        assert np.all(result.benign_window[:, CGM_COLUMN] == 110.0)

    def test_attack_batch_copies_caller_array(self):
        attack = EvasionAttack(CountingPredictor())
        windows = np.stack([benign_window(110.0), benign_window(250.0)])
        results = attack.attack_batch(windows, [Scenario.POSTPRANDIAL] * 2)
        windows[:] = -1.0
        assert np.all(results[0].benign_window[:, CGM_COLUMN] == 110.0)
        assert np.all(results[1].benign_window[:, CGM_COLUMN] == 250.0)


class TestRandomExplorerRNG:
    def _run_search(self, explorer, walk_log=None):
        def score(batch):
            batch = np.asarray(batch, dtype=np.float64)
            if walk_log is not None:
                walk_log.append(batch.copy())
            return batch[:, -1, CGM_COLUMN] * 0.0

        return explorer.search(
            original=benign_window(110.0),
            transformers=default_transformers(),
            constraint=constraint_for_scenario(Scenario.POSTPRANDIAL),
            score_function=score,
            goal_function=lambda window, score: False,  # unreachable: walk everywhere
            initial_score=0.0,
        )

    def test_consecutive_searches_are_decorrelated(self):
        explorer = RandomExplorer(max_depth=3, n_walks=3, seed=0)
        first_walks, second_walks = [], []
        self._run_search(explorer, first_walks)
        self._run_search(explorer, second_walks)
        # With the old fixed per-search seed every window got identical walks;
        # the shared stream must now produce different walk endpoints.
        assert not all(
            np.array_equal(left, right) for left, right in zip(first_walks, second_walks)
        )

    def test_same_seed_reproduces_the_sequence(self):
        results_a = [self._run_search(RandomExplorer(max_depth=2, n_walks=2, seed=42))]
        results_b = [self._run_search(RandomExplorer(max_depth=2, n_walks=2, seed=42))]
        for left, right in zip(results_a, results_b):
            np.testing.assert_array_equal(left.window, right.window)
            assert left.path == right.path

    def test_shared_rng_accepted(self):
        from repro.utils.rng import RandomState

        shared = RandomState(7)
        explorer = RandomExplorer(max_depth=2, n_walks=2, seed=shared)
        result = self._run_search(explorer)
        assert result.queries > 0


class TestRandomExplorerSeedDeterminism:
    """Batched campaigns with a random explorer replay exactly from a seed."""

    LEVELS = (95.0, 120.0, 240.0, 150.0, 105.0)

    def _run(self, batched: bool):
        windows = np.stack([benign_window(level) for level in self.LEVELS])
        scenarios = [Scenario.POSTPRANDIAL] * len(self.LEVELS)
        attack = EvasionAttack(
            CountingPredictor(), explorer=RandomExplorer(max_depth=2, n_walks=4, seed=17)
        )
        if batched:
            return attack.attack_batch(windows, scenarios)
        return attack_each(attack, windows, scenarios)

    def test_same_seed_reproduces_batched_campaign(self):
        first = self._run(batched=True)
        second = self._run(batched=True)
        for left, right in zip(first, second):
            assert_results_equal(left, right)

    def test_batched_replays_sequential_for_fixed_seed(self):
        batched = self._run(batched=True)
        sequential = self._run(batched=False)
        for left, right in zip(batched, sequential):
            assert_results_equal(left, right)


@pytest.fixture(scope="module")
def aggregate_zoo(tiny_cohort):
    """Every patient shares the aggregate model, so run_cohort merges them all."""
    from repro.glucose import GlucoseModelZoo

    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=1, hidden_size=8),
        train_personalized=False,
        seed=5,
    )
    zoo.fit(tiny_cohort)
    return zoo


def per_patient_records(campaign, cohort, split="test"):
    """The cohort merge's reference: a :meth:`AttackCampaign.run_patient` loop."""
    return [record for patient in cohort for record in campaign.run_patient(patient, split).records]


def assert_records_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.patient_label == b.patient_label
        assert a.split == b.split
        assert a.window_index == b.window_index
        assert a.target_index == b.target_index
        assert a.result.eligible == b.result.eligible
        assert a.result.success == b.result.success
        assert a.result.path == b.result.path
        assert a.result.queries == b.result.queries
        assert a.result.adversarial_window.tobytes() == b.result.adversarial_window.tobytes()


class TestCohortMergeProperty:
    """run_cohort's merged lockstep search equals the run_patient loop record for record."""

    @settings(max_examples=10, deadline=None)
    @given(
        stride=st.integers(min_value=6, max_value=40),
        labels=st.lists(st.sampled_from(["A_5", "B_2", "A_0", "A_2"]), min_size=1, unique=True),
        aggregate=st.booleans(),
        beam=st.booleans(),
    )
    def test_cohort_merge_matches_per_patient_loop(
        self, aggregate_zoo, tiny_zoo, tiny_cohort, stride, labels, aggregate, beam
    ):
        from repro.attacks import BeamExplorer

        zoo = aggregate_zoo if aggregate else tiny_zoo
        cohort = tiny_cohort.select(labels)

        def factory(predictor):
            explorer = BeamExplorer(beam_width=2, max_depth=2) if beam else GreedyExplorer()
            return EvasionAttack(predictor, explorer=explorer)

        campaign = AttackCampaign(zoo, stride=stride, attack_factory=factory)
        merged = campaign.run_cohort(cohort, "test")
        assert merged.patient_labels == [record.label for record in cohort]
        assert_records_equal(merged.records, per_patient_records(campaign, cohort))


class TestCohortBatchedCampaign:
    """Cross-patient batching: one lockstep search per shared model."""

    def test_cohort_batched_issues_fewer_model_calls(self, aggregate_zoo, tiny_cohort):
        calls = []
        predictor = aggregate_zoo.aggregate
        original_predict = predictor.predict

        def counting_predict(windows):
            calls.append(len(windows))
            return original_predict(windows)

        predictor.predict = counting_predict
        try:
            campaign = AttackCampaign(aggregate_zoo, stride=12)
            campaign.run_cohort(tiny_cohort, "test")
            merged_calls = len(calls)
            calls.clear()
            per_patient_records(campaign, tiny_cohort)
            per_patient_calls = len(calls)
        finally:
            predictor.predict = original_predict
        assert merged_calls < per_patient_calls

    def test_separately_loaded_copies_merge_into_one_group(self, aggregate_zoo, tiny_cohort):
        # A fresh predictor object loaded from the aggregate's checkpoint
        # (weights + scaler) must land in the same lockstep group: grouping is
        # by state_hash, not object identity.
        import copy

        from repro.glucose import GlucoseModelZoo
        from repro.glucose.predictor import GlucosePredictor

        aggregate = aggregate_zoo.aggregate
        clone = GlucosePredictor(hidden_size=8)
        clone.load_state_dict(aggregate.state_dict())
        clone.scaler = copy.deepcopy(aggregate.scaler)
        assert clone is not aggregate
        assert clone.state_hash() == aggregate.state_hash()

        zoo = GlucoseModelZoo(dataset=aggregate_zoo.dataset)
        zoo.models = dict(aggregate_zoo.models)
        first_label = next(iter(tiny_cohort)).label
        zoo.models[first_label] = clone  # this patient now uses the loaded copy

        factory_calls = []

        def counting_factory(predictor):
            factory_calls.append(predictor)
            return EvasionAttack(predictor)

        merged = AttackCampaign(zoo, stride=12, attack_factory=counting_factory).run_cohort(
            tiny_cohort, "test"
        )
        assert len(factory_calls) == 1  # one group despite two predictor objects
        assert_records_equal(
            merged.records, per_patient_records(AttackCampaign(zoo, stride=12), tiny_cohort)
        )

    def test_different_weights_stay_in_separate_groups(self, tiny_zoo, tiny_cohort):
        factory_calls = []

        def counting_factory(predictor):
            factory_calls.append(predictor)
            return EvasionAttack(predictor)

        AttackCampaign(tiny_zoo, stride=12, attack_factory=counting_factory).run_cohort(
            tiny_cohort, "test"
        )
        # Personalized zoo: every patient has its own weights, so no merging.
        assert len(factory_calls) == len(tiny_cohort)


class TestBatchedCampaign:
    def test_batched_campaign_matches_sequential(self, tiny_zoo, tiny_cohort):
        record = next(r for r in tiny_cohort if r.label == "A_5")
        batched = AttackCampaign(tiny_zoo, stride=12).run_patient(record, "test")
        assert len(batched.records) > 0
        attack = EvasionAttack(tiny_zoo.model_for(record.label))
        for left in batched.records:
            right = attack.attack_window(left.result.benign_window, left.result.scenario)
            assert_results_equal(left.result, right)


class MeanTailPredictor:
    """Stub predicting the mean of the last four CGM samples (counts rows)."""

    def __init__(self):
        self.rows_scored = 0

    def predict(self, windows):
        windows = np.asarray(windows, dtype=np.float64)
        self.rows_scored += len(windows)
        return windows[:, -4:, CGM_COLUMN].mean(axis=1)

    def predict_one(self, window):
        return float(self.predict(np.asarray(window)[np.newaxis])[0])


class TestSeedPathWarmStart:
    """attack_batch(seed_paths=...) replays a prior tick's surviving path:
    a surviving seed resolves the window in 2 queries; a failed or broken
    seed falls back to the normal search with exact query accounting."""

    def test_replay_transformation_path_matches_manual_application(self):
        from repro.attacks import replay_transformation_path

        window = benign_window(110.0)
        constraint = constraint_for_scenario(Scenario.POSTPRANDIAL)
        path = ["set_last_2_to_220", "set_last_4_to_185"]
        replayed = replay_transformation_path(
            window, path, default_transformers(), constraint
        )
        current = window
        for description in path:
            for transformer in default_transformers():
                matches = [
                    edge
                    for edge in transformer.candidates(current)
                    if edge.description == description
                ]
                if matches:
                    current = constraint.project(matches[0].window, window)
                    break
        np.testing.assert_array_equal(replayed, current)

    def test_replay_unknown_description_returns_none(self):
        from repro.attacks import replay_transformation_path

        replayed = replay_transformation_path(
            benign_window(110.0),
            ["no_such_edge"],
            default_transformers(),
            constraint_for_scenario(Scenario.POSTPRANDIAL),
        )
        assert replayed is None

    def test_surviving_seed_path_costs_two_queries(self):
        predictor = CountingPredictor()
        attack = EvasionAttack(predictor)
        results = attack.attack_batch(
            np.stack([benign_window(110.0)]),
            [Scenario.POSTPRANDIAL],
            seed_paths=[["set_last_2_to_220"]],
        )
        result = results[0]
        assert result.eligible and result.success and result.warm_started
        assert result.path == ["set_last_2_to_220"]
        assert result.queries == 2  # eligibility screen + warm endpoint
        assert predictor.rows_scored == 2
        assert result.adversarial_prediction == pytest.approx(220.0)

    def test_failed_seed_path_adds_exactly_one_query(self):
        window = benign_window(110.0)
        baseline = EvasionAttack(MeanTailPredictor()).attack_batch(
            np.stack([window]), [Scenario.POSTPRANDIAL]
        )[0]
        # set_last_2_to_185 replays admissibly but predicts (110+110+185+185)/4
        # = 147.5 < 180: the warm endpoint fails and the search runs anyway.
        seeded = EvasionAttack(MeanTailPredictor()).attack_batch(
            np.stack([window]),
            [Scenario.POSTPRANDIAL],
            seed_paths=[["set_last_2_to_185"]],
        )[0]
        assert not seeded.warm_started
        assert seeded.success == baseline.success
        assert seeded.path == baseline.path
        assert seeded.queries == baseline.queries + 1
        np.testing.assert_array_equal(
            seeded.adversarial_window, baseline.adversarial_window
        )

    def test_broken_seed_path_is_free(self):
        window = benign_window(110.0)
        baseline = EvasionAttack(CountingPredictor()).attack_batch(
            np.stack([window]), [Scenario.POSTPRANDIAL]
        )[0]
        seeded = EvasionAttack(CountingPredictor()).attack_batch(
            np.stack([window]),
            [Scenario.POSTPRANDIAL],
            seed_paths=[["no_such_edge"]],
        )[0]
        assert not seeded.warm_started
        assert seeded.queries == baseline.queries
        assert seeded.path == baseline.path

    def test_ineligible_window_ignores_seed(self):
        results = EvasionAttack(CountingPredictor()).attack_batch(
            np.stack([benign_window(300.0)]),
            [Scenario.POSTPRANDIAL],
            seed_paths=[["set_last_2_to_220"]],
        )
        assert not results[0].eligible
        assert results[0].queries == 1

    def test_seed_paths_must_align(self):
        with pytest.raises(ValueError, match="align"):
            EvasionAttack(CountingPredictor()).attack_batch(
                np.stack([benign_window(110.0)]),
                [Scenario.POSTPRANDIAL],
                seed_paths=[],
            )


class PassConstraint:
    """Admissibility stub: everything is allowed, projection is identity."""

    def is_satisfied(self, window, original):
        return True

    def project(self, window, original):
        return np.asarray(window, dtype=np.float64)

    def satisfied_mask(self, windows, original):
        return np.ones(len(windows), dtype=bool)

    def project_batch(self, windows, original):
        return np.asarray(windows, dtype=np.float64)


def toy_transformers():
    """Two edges per window: +10 or +20 on the last CGM sample."""
    from repro.attacks import SuffixOffsetTransformer

    return [SuffixOffsetTransformer(offsets=(10.0, 20.0), suffix_lengths=(1,))]


def last_value_score(batch):
    return np.asarray(batch)[:, -1, CGM_COLUMN]


def toy_search(explorer, threshold, originals=None, initial_scores=None, constraints=None):
    """Run ``explorer.search_batch`` on the toy graph (score = last CGM value)."""
    originals = [benign_window(100.0)] if originals is None else originals
    return explorer.search_batch(
        originals=originals,
        transformers=toy_transformers(),
        constraints=[PassConstraint()] * len(originals) if constraints is None else constraints,
        score_function=last_value_score,
        goal_functions=[lambda w, s: s > threshold] * len(originals),
        initial_scores=[100.0] * len(originals) if initial_scores is None else initial_scores,
    )


def toy_explorer(name):
    from repro.attacks import BeamExplorer

    return {
        "reference": lambda: Explorer(),
        "greedy": lambda: GreedyExplorer(max_depth=2),
        "beam": lambda: BeamExplorer(beam_width=2, max_depth=2),
        "random": lambda: RandomExplorer(max_depth=2, n_walks=3, seed=0),
    }[name]()


class TestToyGraphSearch:
    """Exact outcomes of the lockstep explorers on a graph small enough to enumerate."""

    def test_greedy_climbs_best_edge_per_depth(self):
        result = toy_search(GreedyExplorer(max_depth=4), threshold=165.0)[0]
        # 100 -> 120 -> 140 -> 160 -> 180: four depths of two edges each.
        assert result.success
        assert result.queries == 8
        assert result.path == ["offset_last_1_by_20"] * 4
        assert result.score == pytest.approx(180.0)

    def test_width_one_beam_keeps_only_the_best_edge(self):
        from repro.attacks import BeamExplorer

        result = toy_search(BeamExplorer(beam_width=1, max_depth=1), threshold=1e9)[0]
        assert not result.success
        assert result.queries == 2
        assert result.path == ["offset_last_1_by_20"]
        assert result.score == pytest.approx(120.0)

    @pytest.mark.parametrize("name", ["greedy", "beam", "random"])
    def test_reported_path_replays_to_reported_window(self, name):
        from repro.attacks import replay_transformation_path

        original = benign_window(100.0)
        result = toy_search(toy_explorer(name), threshold=1e9, originals=[original])[0]
        assert result.path  # every explorer improves on the start here
        replayed = replay_transformation_path(
            original, result.path, toy_transformers(), PassConstraint()
        )
        np.testing.assert_array_equal(replayed, result.window)
        assert result.score == pytest.approx(float(last_value_score(replayed[np.newaxis])[0]))


class TestSearchBatchAlignment:
    """Every search_batch, the reference loop included, rejects misaligned inputs."""

    @pytest.mark.parametrize("name", ["reference", "greedy", "beam", "random"])
    def test_constraints_must_align(self, name):
        with pytest.raises(ValueError, match="must align"):
            toy_search(
                toy_explorer(name),
                threshold=1e9,
                originals=[benign_window(100.0), benign_window(105.0)],
                constraints=[PassConstraint()],
            )

    @pytest.mark.parametrize("name", ["reference", "greedy", "beam", "random"])
    def test_initial_scores_must_align(self, name):
        with pytest.raises(ValueError, match="initial_scores must align"):
            toy_search(
                toy_explorer(name),
                threshold=1e9,
                originals=[benign_window(100.0), benign_window(105.0)],
                initial_scores=[100.0],
            )


class SearchOnlyExplorer(Explorer):
    """A caller-supplied explorer that implements ``search`` only, so
    ``attack_batch`` runs through the base class's reference loop."""

    def __init__(self):
        self.inner = GreedyExplorer()

    def search(self, *args, **kwargs):
        return self.inner.search(*args, **kwargs)


class TestWarmMissFallback:
    """A seed path that replays but misses the goal falls back to the search."""

    @staticmethod
    def _attack(explorer=None):
        from repro.attacks import SuffixOffsetTransformer

        return EvasionAttack(
            MeanTailPredictor(),
            transformers=[SuffixOffsetTransformer(offsets=(30.0,), suffix_lengths=(4,))],
            explorer=explorer,
        )

    # The replayed two-edge path lands at mean 170 < 180: a warm miss.
    SEED_PATHS = [["offset_last_4_by_30", "offset_last_4_by_30"]]

    def test_warm_miss_searches_from_the_benign_window(self):
        result = self._attack().attack_batch(
            np.stack([benign_window(110.0)]),
            [Scenario.POSTPRANDIAL],
            constraint=PassConstraint(),
            seed_paths=self.SEED_PATHS,
        )[0]
        assert result.success and not result.warm_started
        # screen(1) + warm endpoint(1) + 3 greedy depths of one edge each.
        assert result.queries == 5
        assert result.path == ["offset_last_4_by_30"] * 3
        assert result.adversarial_prediction == pytest.approx(200.0)

    def test_search_only_explorer_gets_the_same_fallback(self):
        windows = np.stack([benign_window(110.0)])
        lockstep = self._attack().attack_batch(
            windows, [Scenario.POSTPRANDIAL], constraint=PassConstraint(),
            seed_paths=self.SEED_PATHS,
        )[0]
        reference = self._attack(SearchOnlyExplorer()).attack_batch(
            windows, [Scenario.POSTPRANDIAL], constraint=PassConstraint(),
            seed_paths=self.SEED_PATHS,
        )[0]
        assert_results_equal(lockstep, reference)
        assert reference.warm_started == lockstep.warm_started

    def test_search_only_explorer_matches_per_window_attack(self):
        levels = [100.0, 110.0, 150.0, 300.0]
        windows = np.stack([benign_window(level) for level in levels])
        scenarios = [Scenario.POSTPRANDIAL, Scenario.FASTING] * 2
        batched = EvasionAttack(CountingPredictor(), explorer=SearchOnlyExplorer()).attack_batch(
            windows, scenarios
        )
        sequential = attack_each(EvasionAttack(CountingPredictor()), windows, scenarios)
        assert len(batched) == len(sequential) == len(levels)
        for left, right in zip(batched, sequential):
            assert_results_equal(left, right)


class TestCohortCampaignContract:
    def test_cohort_merge_emits_the_patient_loop_counters(self, aggregate_zoo, tiny_cohort):
        from repro.obs import Observer

        merged_obs, loop_obs = Observer(), Observer()
        AttackCampaign(aggregate_zoo, stride=12, obs=merged_obs).run_cohort(tiny_cohort, "test")
        per_patient_records(AttackCampaign(aggregate_zoo, stride=12, obs=loop_obs), tiny_cohort)
        snapshot = merged_obs.registry.snapshot()
        assert merged_obs.registry.counter_total("campaign.windows_attacked_total") > 0
        assert snapshot == loop_obs.registry.snapshot()

    def test_empty_cohort_yields_no_records(self, tiny_zoo):
        result = AttackCampaign(tiny_zoo, stride=12).run_cohort([], "test")
        assert result.records == []
        assert result.patient_labels == []

    def test_train_split_merge_matches_per_patient_loop(self, aggregate_zoo, tiny_cohort):
        campaign = AttackCampaign(aggregate_zoo, stride=16)
        merged = campaign.run_cohort(tiny_cohort, "train")
        assert {record.split for record in merged.records} == {"train"}
        assert_records_equal(merged.records, per_patient_records(campaign, tiny_cohort, "train"))
