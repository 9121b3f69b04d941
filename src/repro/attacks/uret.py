"""The evasion attack engine (URET-style).

The adversary's goal, following the paper's threat model, is to make the
glucose forecaster predict hyperglycemia while the patient's true state is
normal or hypoglycemic, by manipulating only the CGM measurements and keeping
them within a plausible hyperglycemic range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.constraints import Constraint, constraint_for_scenario
from repro.attacks.explorers import Explorer, GreedyExplorer
from repro.attacks.transformers import Transformer, default_transformers
from repro.glucose.predictor import GlucosePredictor
from repro.glucose.states import (
    GlucoseState,
    Scenario,
    classify_glucose,
    hyperglycemia_threshold,
)


@dataclass
class AttackResult:
    """Outcome of attacking a single input window.

    ``queries`` counts every model query spent on this window, including the
    initial benign/eligibility screen (so an ineligible window costs exactly
    one query).  ``benign_window`` and ``adversarial_window`` are independent
    copies — never views into the caller's trace arrays — so downstream
    consumers can stash them without aliasing hazards.  ``warm_started`` is
    True when the window was resolved by replaying a caller-provided seed
    path (see :meth:`EvasionAttack.attack_batch`) instead of a fresh search.
    """

    eligible: bool
    success: bool
    scenario: Scenario
    benign_window: np.ndarray
    adversarial_window: np.ndarray
    benign_prediction: float
    adversarial_prediction: float
    benign_state: GlucoseState
    adversarial_state: GlucoseState
    queries: int = 0
    path: List[str] = field(default_factory=list)
    warm_started: bool = False

    @property
    def perturbation_norm(self) -> float:
        """L2 norm of the CGM perturbation (mg/dL)."""
        return float(np.linalg.norm(self.adversarial_window - self.benign_window))


def replay_transformation_path(
    window: np.ndarray,
    path: Sequence[str],
    transformers: Sequence[Transformer],
    constraint: Constraint,
) -> Optional[np.ndarray]:
    """Re-apply a recorded transformation path to a (possibly new) window.

    Follows the explorers' expand → project → admissibility discipline edge
    by edge, matching each step of ``path`` against the current window's
    candidate descriptions.  No model queries are issued.  Returns the
    resulting window, or None when any step no longer applies (its
    description is absent or the constraint rejects the projected edge) —
    the caller should fall back to a cold search.

    This is the engine behind attack warm-starting: an online attacker's
    consecutive context windows overlap in all but one sample, so the path
    that succeeded at tick ``t`` usually still reaches the goal at
    ``t + 1``; replaying it costs one model query instead of a search.
    """
    original = np.asarray(window, dtype=np.float64)
    current = original
    for description in path:
        advanced: Optional[np.ndarray] = None
        for transformer in transformers:
            matched = False
            for edge in transformer.candidates(current):
                if edge.description == description:
                    matched = True
                    projected = constraint.project(edge.window, original)
                    if constraint.is_satisfied(projected, original):
                        advanced = projected
                    break
            if matched:
                break
        if advanced is None:
            return None
        current = advanced
    return current


class EvasionAttack:
    """Search-based evasion attack against a glucose forecaster.

    Parameters
    ----------
    predictor:
        The target model (personalized or aggregate forecaster).
    transformers:
        Transformation set defining the search graph; defaults to the paper's
        CGM-only manipulation set.
    explorer:
        Search strategy (greedy by default).
    """

    def __init__(
        self,
        predictor: GlucosePredictor,
        transformers: Optional[Sequence[Transformer]] = None,
        explorer: Optional[Explorer] = None,
    ):
        self.predictor = predictor
        self.transformers = list(transformers) if transformers is not None else default_transformers()
        self.explorer = explorer or GreedyExplorer()

    # ------------------------------------------------------------------ helpers
    def _score_function(self):
        def score(batch: np.ndarray) -> np.ndarray:
            return self.predictor.predict(batch)

        return score

    def _goal_function(self, scenario: Scenario):
        threshold = hyperglycemia_threshold(scenario)

        def goal(window: np.ndarray, score: float) -> bool:
            return score > threshold

        return goal

    # ------------------------------------------------------------------- attack
    def attack_window(
        self,
        window: np.ndarray,
        scenario: Scenario = Scenario.POSTPRANDIAL,
        constraint: Optional[Constraint] = None,
    ) -> AttackResult:
        """Attack one ``(history, n_features)`` window.

        A window is *eligible* when the benign prediction is not already
        hyperglycemic — attacking an already-hyper prediction would not change
        the diagnosis.  Ineligible windows are returned unmodified with
        ``eligible=False``.

        The benign prediction is passed to the explorer as ``initial_score``,
        so the starting window is scored exactly once and ``queries`` equals
        the actual number of model queries.
        """
        window = np.array(window, dtype=np.float64, copy=True)
        constraint = constraint or constraint_for_scenario(scenario)
        benign_prediction = self.predictor.predict_one(window)
        benign_state = classify_glucose(benign_prediction, scenario)

        if benign_state == GlucoseState.HYPER:
            return AttackResult(
                eligible=False,
                success=False,
                scenario=scenario,
                benign_window=window,
                adversarial_window=window.copy(),
                benign_prediction=benign_prediction,
                adversarial_prediction=benign_prediction,
                benign_state=benign_state,
                adversarial_state=benign_state,
                queries=1,
            )

        result = self.explorer.search(
            original=window,
            transformers=self.transformers,
            constraint=constraint,
            score_function=self._score_function(),
            goal_function=self._goal_function(scenario),
            initial_score=benign_prediction,
        )
        return self._result_from_exploration(
            window, scenario, benign_prediction, benign_state, result
        )

    def _result_from_exploration(
        self,
        window: np.ndarray,
        scenario: Scenario,
        benign_prediction: float,
        benign_state: GlucoseState,
        result,
    ) -> AttackResult:
        """Assemble an :class:`AttackResult` for one explored (eligible) window."""
        adversarial_state = classify_glucose(result.score, scenario)
        return AttackResult(
            eligible=True,
            success=bool(result.success),
            scenario=scenario,
            benign_window=window,
            adversarial_window=result.window,
            benign_prediction=benign_prediction,
            adversarial_prediction=float(result.score),
            benign_state=benign_state,
            adversarial_state=adversarial_state,
            # +1 for the eligibility screen the explorer did not repeat.
            queries=result.queries + 1,
            path=list(result.path),
        )

    def attack_batch(
        self,
        windows: np.ndarray,
        scenarios: Sequence[Scenario],
        constraint: Optional[Constraint] = None,
        seed_paths: Optional[Sequence[Optional[Sequence[str]]]] = None,
    ) -> List[AttackResult]:
        """Attack a batch of windows, one scenario per window.

        The whole batch runs through the batched inference engine:
        eligibility screening is ONE model call over all windows, and the
        explorer's lockstep mode advances every still-active window
        together, issuing one large model query per search depth instead of
        one small query per window.  Every shipped explorer (greedy, beam,
        random) has a true lockstep mode pinned to its sequential reference
        by ``tests/test_explorer_parity.py``.  The sequential reference is
        :meth:`attack_window` called per window (identical results, many
        more model calls).

        ``seed_paths`` (one optional transformation path per window, aligned
        by position) warm-starts the search: each eligible window's seed
        path is replayed on the window
        (:func:`replay_transformation_path`, no model queries) and all
        surviving endpoints are scored in one extra batched call.  Endpoints
        that reach the goal resolve their window immediately —
        ``queries == 2`` (screen + endpoint), ``warm_started=True`` — and
        skip the explorer; the rest fall back to the normal search with the
        one warm query added to their count, so query accounting stays
        exact.  This is how :class:`repro.serving.OnlineAttacker` reuses the
        previous tick's surviving path instead of re-searching every tick.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if len(windows) != len(scenarios):
            raise ValueError("windows and scenarios must have the same length")
        if seed_paths is not None and len(seed_paths) != len(windows):
            raise ValueError("seed_paths must align with windows")
        if len(windows) == 0:
            return []

        # One batched query screens every window for eligibility.
        benign_predictions = self.predictor.predict(windows)
        results: List[Optional[AttackResult]] = [None] * len(windows)
        eligible_indices: List[int] = []
        for index, scenario in enumerate(scenarios):
            benign_prediction = float(benign_predictions[index])
            benign_state = classify_glucose(benign_prediction, scenario)
            if benign_state == GlucoseState.HYPER:
                window = windows[index].copy()
                results[index] = AttackResult(
                    eligible=False,
                    success=False,
                    scenario=scenario,
                    benign_window=window,
                    adversarial_window=window.copy(),
                    benign_prediction=benign_prediction,
                    adversarial_prediction=benign_prediction,
                    benign_state=benign_state,
                    adversarial_state=benign_state,
                    queries=1,
                )
            else:
                eligible_indices.append(index)

        # Warm start: replay seed paths (no model queries), score all surviving
        # endpoints in one batched call, and resolve the ones that reach the
        # goal without ever entering the explorer.
        warm_failures: List[int] = []
        if seed_paths is not None and eligible_indices:
            replayed: List[Tuple[int, np.ndarray]] = []
            for index in eligible_indices:
                path = seed_paths[index]
                if not path:
                    continue
                endpoint = replay_transformation_path(
                    windows[index],
                    path,
                    self.transformers,
                    constraint or constraint_for_scenario(scenarios[index]),
                )
                if endpoint is not None:
                    replayed.append((index, endpoint))
            if replayed:
                warm_scores = self.predictor.predict(
                    np.stack([endpoint for _, endpoint in replayed])
                )
                resolved = set()
                for (index, endpoint), warm_score in zip(replayed, warm_scores):
                    warm_score = float(warm_score)
                    scenario = scenarios[index]
                    if not self._goal_function(scenario)(endpoint, warm_score):
                        warm_failures.append(index)
                        continue
                    benign_prediction = float(benign_predictions[index])
                    results[index] = AttackResult(
                        eligible=True,
                        success=True,
                        scenario=scenario,
                        benign_window=windows[index].copy(),
                        adversarial_window=endpoint.copy(),
                        benign_prediction=benign_prediction,
                        adversarial_prediction=warm_score,
                        benign_state=classify_glucose(benign_prediction, scenario),
                        adversarial_state=classify_glucose(warm_score, scenario),
                        queries=2,  # eligibility screen + warm endpoint
                        path=list(seed_paths[index]),
                        warm_started=True,
                    )
                    resolved.add(index)
                if resolved:
                    eligible_indices = [
                        index for index in eligible_indices if index not in resolved
                    ]

        if eligible_indices:
            explorations = self.explorer.search_batch(
                originals=[windows[index] for index in eligible_indices],
                transformers=self.transformers,
                constraints=[
                    constraint or constraint_for_scenario(scenarios[index])
                    for index in eligible_indices
                ],
                score_function=self._score_function(),
                goal_functions=[
                    self._goal_function(scenarios[index]) for index in eligible_indices
                ],
                initial_scores=[float(benign_predictions[index]) for index in eligible_indices],
            )
            for index, exploration in zip(eligible_indices, explorations):
                benign_prediction = float(benign_predictions[index])
                results[index] = self._result_from_exploration(
                    windows[index].copy(),
                    scenarios[index],
                    benign_prediction,
                    classify_glucose(benign_prediction, scenarios[index]),
                    exploration,
                )
        for index in warm_failures:
            # The failed warm-endpoint evaluation was a real model query.
            results[index].queries += 1
        return results  # type: ignore[return-value]
