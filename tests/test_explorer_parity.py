"""Attack-parity harness: every lockstep ``search_batch`` is pinned to the
sequential per-window ``search`` reference — same windows, same scores, same
query counts — across explorers, seeds, strides, expansion modes, and
eligibility mixes."""

import numpy as np
import pytest

from repro.attacks import (
    BeamExplorer,
    EvasionAttack,
    GreedyExplorer,
    RandomExplorer,
    constraint_for_scenario,
    default_transformers,
)
from repro.data.cohort import CGM_COLUMN
from repro.glucose import Scenario

SEEDS = (0, 7, 42)

EXPLORERS = {
    "greedy": lambda seed: GreedyExplorer(max_depth=3),
    "beam": lambda seed: BeamExplorer(beam_width=2, max_depth=2),
    "random": lambda seed: RandomExplorer(max_depth=2, n_walks=4, seed=seed),
}


def benign_window(level: float, history: int = 12) -> np.ndarray:
    window = np.zeros((history, 4))
    window[:, CGM_COLUMN] = level
    window[:, 1] = 0.5
    window[:, 3] = 70.0
    return window


def score_function(batch: np.ndarray) -> np.ndarray:
    """Deterministic stub: rewards a high CGM suffix with a mild tie-breaker."""
    batch = np.asarray(batch, dtype=np.float64)
    return batch[:, -1, CGM_COLUMN] - 0.01 * batch[:, -4, CGM_COLUMN]


def assert_explorations_equal(left, right):
    assert left.success == right.success
    assert left.queries == right.queries
    assert left.path == right.path
    assert left.score == right.score
    np.testing.assert_array_equal(left.window, right.window)


def assert_attack_results_equal(left, right):
    assert left.eligible == right.eligible
    assert left.success == right.success
    assert left.benign_state == right.benign_state
    assert left.adversarial_state == right.adversarial_state
    assert left.path == right.path
    assert left.queries == right.queries
    np.testing.assert_array_equal(left.benign_window, right.benign_window)
    np.testing.assert_array_equal(left.adversarial_window, right.adversarial_window)
    assert left.benign_prediction == pytest.approx(right.benign_prediction, abs=1e-10)
    assert left.adversarial_prediction == pytest.approx(
        right.adversarial_prediction, abs=1e-10
    )


def seeded_levels(seed: int, count: int = 7) -> list:
    """A seed-dependent spread of starting CGM levels (low, mid, near-goal)."""
    rng = np.random.default_rng(seed)
    return list(rng.uniform(60.0, 230.0, size=count))


class TestExplorerLevelParity:
    """search_batch vs per-window search, directly at the explorer interface."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per-edge"])
    def test_search_batch_matches_search(self, name, seed, vectorized):
        levels = seeded_levels(seed)
        windows = [benign_window(level) for level in levels]
        transformers = default_transformers()
        constraints = [
            constraint_for_scenario(Scenario.POSTPRANDIAL if index % 2 else Scenario.FASTING)
            for index in range(len(levels))
        ]
        goals = [
            (lambda window, score, threshold=200.0 + 15.0 * index: score > threshold)
            for index in range(len(levels))
        ]
        initial = [float(score_function(window[np.newaxis])[0]) for window in windows]

        sequential_explorer = EXPLORERS[name](seed)
        sequential = [
            sequential_explorer.search(
                windows[index],
                transformers,
                constraints[index],
                score_function,
                goals[index],
                initial_score=initial[index],
            )
            for index in range(len(windows))
        ]
        batched_explorer = EXPLORERS[name](seed)
        batched_explorer.use_batched_candidates = vectorized
        batched = batched_explorer.search_batch(
            windows, transformers, constraints, score_function, goals, initial_scores=initial
        )
        assert len(batched) == len(sequential)
        for left, right in zip(batched, sequential):
            assert_explorations_equal(left, right)

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_search_batch_without_initial_scores(self, name):
        windows = [benign_window(level) for level in (100.0, 150.0)]
        transformers = default_transformers()
        constraints = [constraint_for_scenario(Scenario.POSTPRANDIAL)] * 2
        goals = [lambda window, score: score > 240.0] * 2
        sequential_explorer = EXPLORERS[name](5)
        sequential = [
            sequential_explorer.search(
                window, transformers, constraints[0], score_function, goals[0]
            )
            for window in windows
        ]
        batched_explorer = EXPLORERS[name](5)
        batched = batched_explorer.search_batch(
            windows, transformers, constraints, score_function, goals
        )
        for left, right in zip(batched, sequential):
            assert_explorations_equal(left, right)

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_single_window_batch(self, name):
        window = benign_window(120.0)
        transformers = default_transformers()
        constraint = constraint_for_scenario(Scenario.POSTPRANDIAL)
        goal = lambda w, s: s > 230.0  # noqa: E731
        initial = float(score_function(window[np.newaxis])[0])
        sequential = EXPLORERS[name](1).search(
            window, transformers, constraint, score_function, goal, initial_score=initial
        )
        batched = EXPLORERS[name](1).search_batch(
            [window], transformers, [constraint], score_function, [goal],
            initial_scores=[initial],
        )
        assert len(batched) == 1
        assert_explorations_equal(batched[0], sequential)

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_empty_batch(self, name):
        assert (
            EXPLORERS[name](0).search_batch(
                [], default_transformers(), [], score_function, []
            )
            == []
        )

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_transformer_with_empty_edge_set(self, name):
        # A contract-compliant transformer may emit no edges for a window
        # shape; the vectorized expansion must match the per-edge reference
        # (which simply contributes nothing) instead of crashing.
        from repro.attacks import SuffixLevelTransformer, Transformer

        class EmptyTransformer(Transformer):
            def candidates(self, window):
                return []

        windows = [benign_window(level) for level in (100.0, 140.0)]
        transformers = [EmptyTransformer(), SuffixLevelTransformer(levels=(260.0,))]
        constraints = [constraint_for_scenario(Scenario.POSTPRANDIAL)] * 2
        goals = [lambda window, score: score > 230.0] * 2
        initial = [float(score_function(window[np.newaxis])[0]) for window in windows]
        sequential_explorer = EXPLORERS[name](4)
        sequential = [
            sequential_explorer.search(
                window, transformers, constraints[0], score_function, goals[0],
                initial_score=start,
            )
            for window, start in zip(windows, initial)
        ]
        batched = EXPLORERS[name](4).search_batch(
            windows, transformers, constraints, score_function, goals,
            initial_scores=initial,
        )
        for left, right in zip(batched, sequential):
            assert_explorations_equal(left, right)

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_batch_where_every_window_starts_at_goal(self, name):
        # All goals already satisfied: no model queries beyond the handed-over
        # initial scores, and one immediate success per window.
        windows = [benign_window(level) for level in (300.0, 400.0, 350.0)]
        initial = [float(score_function(window[np.newaxis])[0]) for window in windows]
        results = EXPLORERS[name](2).search_batch(
            windows,
            default_transformers(),
            [constraint_for_scenario(Scenario.POSTPRANDIAL)] * 3,
            score_function,
            [lambda window, score: score > 200.0] * 3,
            initial_scores=initial,
        )
        for result, window in zip(results, windows):
            assert result.success
            assert result.queries == 0
            assert result.path == []
            np.testing.assert_array_equal(result.window, window)


class TestAttackLevelParity:
    """attack_batch parity, including the eligibility screen, on stub scores."""

    class _LastValuePredictor:
        def predict(self, windows):
            return np.asarray(windows, dtype=np.float64)[:, -1, CGM_COLUMN]

        def predict_one(self, window):
            return float(self.predict(np.asarray(window)[np.newaxis])[0])

    def _compare(self, explorer_factory, levels):
        windows = np.stack([benign_window(level) for level in levels])
        scenarios = [
            Scenario.POSTPRANDIAL if index % 2 else Scenario.FASTING
            for index in range(len(levels))
        ]
        batched = EvasionAttack(
            self._LastValuePredictor(), explorer=explorer_factory()
        ).attack_batch(windows, scenarios)
        attack = EvasionAttack(self._LastValuePredictor(), explorer=explorer_factory())
        sequential = [attack.attack_window(w, s) for w, s in zip(windows, scenarios)]
        assert len(batched) == len(sequential) == len(levels)
        for left, right in zip(batched, sequential):
            assert_attack_results_equal(left, right)
        return batched

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_mixed_eligibility_batch(self, name, seed):
        # Even indices run the fasting scenario (hyper above 125), odd indices
        # postprandial (hyper above 180): 250/400/150 start hyperglycemic
        # (ineligible), the rest are attackable.
        levels = (95.0, 250.0, 110.0, 400.0, 150.0, 175.0)
        results = self._compare(lambda: EXPLORERS[name](seed), levels)
        assert [result.eligible for result in results] == [
            True, False, True, False, False, True,
        ]

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_all_ineligible_batch(self, name):
        levels = (260.0, 400.0, 310.0)
        results = self._compare(lambda: EXPLORERS[name](0), levels)
        assert all(not result.eligible for result in results)
        assert all(result.queries == 1 for result in results)


class TestRealPredictorParity:
    """Parity through the trained forecaster, across strides."""

    @pytest.mark.parametrize("stride", [5, 9])
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_strided_windows_match(self, name, stride, tiny_zoo, tiny_cohort):
        record = next(r for r in tiny_cohort if r.label == "A_0")
        predictor = tiny_zoo.model_for(record.label)
        windows, _, _ = tiny_zoo.dataset.from_record(record, "test")
        windows = windows[::stride][:6]
        scenarios = [Scenario.POSTPRANDIAL] * len(windows)
        batched = EvasionAttack(predictor, explorer=EXPLORERS[name](3)).attack_batch(
            windows, scenarios
        )
        attack = EvasionAttack(predictor, explorer=EXPLORERS[name](3))
        sequential = [attack.attack_window(w, s) for w, s in zip(windows, scenarios)]
        for left, right in zip(batched, sequential):
            assert_attack_results_equal(left, right)


class TestCheckParityScript:
    """Wire scripts/check_parity.py into the tier-1 flow."""

    def test_run_checks_passes_on_trained_zoo(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_checks(tiny_zoo, tiny_cohort, seeds=(0, 1, 2), stride=12)
        assert report["max_prediction_gap"] <= check_parity.PREDICTION_TOLERANCE
        for name in ("greedy", "beam", "random"):
            assert set(report[name]) == {0, 1, 2}
