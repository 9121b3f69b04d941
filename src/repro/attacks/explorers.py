"""Search strategies over the transformation graph (URET "explorers")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.constraints import Constraint
from repro.attacks.transformers import TransformationEdge, Transformer
from repro.utils.rng import RandomState, SeedLike, as_random_state

#: Scores a batch of candidate windows; larger is better for the adversary.
ScoreFunction = Callable[[np.ndarray], np.ndarray]

#: Decides whether a (window, score) pair reaches the adversarial goal.
GoalFunction = Callable[[np.ndarray, float], bool]


@dataclass
class ExplorationResult:
    """Outcome of an explorer search."""

    success: bool
    window: np.ndarray
    score: float
    path: List[str] = field(default_factory=list)
    queries: int = 0


def _expand(
    window: np.ndarray,
    original: np.ndarray,
    transformers: Sequence[Transformer],
    constraint: Constraint,
) -> List[TransformationEdge]:
    """Generate all admissible candidate edges from ``window``."""
    edges: List[TransformationEdge] = []
    for transformer in transformers:
        for edge in transformer.candidates(window):
            projected = constraint.project(edge.window, original)
            if constraint.is_satisfied(projected, original):
                edges.append(TransformationEdge(projected, edge.description))
    return edges


def _edges_as_arrays(edges: List[TransformationEdge]) -> Tuple[np.ndarray, List[str]]:
    """Convert a per-edge list into the (candidates, descriptions) batch form."""
    if not edges:
        return np.empty((0, 0, 0)), []
    return (
        np.stack([edge.window for edge in edges]),
        [edge.description for edge in edges],
    )


def _expand_many(
    windows: Sequence[np.ndarray],
    originals: Sequence[np.ndarray],
    transformers: Sequence[Transformer],
    constraints: Sequence[Constraint],
) -> List[Tuple[np.ndarray, List[str]]]:
    """Vectorized :func:`_expand` over many (window, original, constraint) triples.

    One ``candidates_batch`` call per transformer builds every raw candidate of
    every window at once, and each window's constraint runs one vectorized
    project + admissibility pass over its whole candidate stack — no per-edge
    Python objects anywhere.  Returns, per input window, the admissible
    candidate array ``(n_admissible, history, features)`` and the matching
    descriptions, in exactly the order :func:`_expand` would produce them.
    """
    stacked_windows = np.stack([np.asarray(window, dtype=np.float64) for window in windows])
    candidate_blocks: List[np.ndarray] = []
    descriptions: List[str] = []
    for transformer in transformers:
        block, block_descriptions = transformer.candidates_batch(stacked_windows)
        candidate_blocks.append(block)
        descriptions.extend(block_descriptions)
    if not candidate_blocks:
        return [(np.empty((0,) + stacked_windows.shape[1:]), []) for _ in windows]
    raw = (
        candidate_blocks[0]
        if len(candidate_blocks) == 1
        else np.concatenate(candidate_blocks, axis=1)
    )

    results: List[Tuple[np.ndarray, List[str]]] = []
    for index in range(len(windows)):
        constraint = constraints[index]
        projected = constraint.project_batch(raw[index], originals[index])
        mask = constraint.satisfied_mask(projected, originals[index])
        kept = projected[mask]
        kept_descriptions = [
            description for description, keep in zip(descriptions, mask) if keep
        ]
        results.append((kept, kept_descriptions))
    return results


def _check_batch_alignment(originals, constraints, goal_functions, initial_scores) -> None:
    """Validate that every per-window sequence of a batch search lines up."""
    if not (len(originals) == len(constraints) == len(goal_functions)):
        raise ValueError("originals, constraints, and goal_functions must align")
    if initial_scores is not None and len(initial_scores) != len(originals):
        raise ValueError("initial_scores must align with originals")


class Explorer:
    """Interface for transformation-graph search strategies.

    ``initial_score`` lets the caller hand over an already-computed model
    score for ``original`` (e.g. the eligibility screen of
    :class:`~repro.attacks.uret.EvasionAttack`).  When provided, the explorer
    does not re-query the model for the starting window and its ``queries``
    counter covers only the queries the search itself issued — so reported
    query counts match actual model queries.

    ``use_batched_candidates`` selects how lockstep ``search_batch`` modes
    expand the transformation graph: vectorized ``candidates_batch`` +
    batched constraint passes (the default), or the per-edge reference
    expansion (kept for benchmarking and for pinning parity — see
    ``tests/test_explorer_parity.py``).  Both produce identical searches.
    """

    #: Lockstep search modes use vectorized candidate generation by default;
    #: set False on an instance to force the per-edge reference expansion.
    use_batched_candidates: bool = True

    def _expand_active(
        self,
        windows: Sequence[np.ndarray],
        originals: Sequence[np.ndarray],
        transformers: Sequence[Transformer],
        constraints: Sequence[Constraint],
    ) -> List[Tuple[np.ndarray, List[str]]]:
        """Expand many windows, honoring :attr:`use_batched_candidates`."""
        if self.use_batched_candidates:
            return _expand_many(windows, originals, transformers, constraints)
        return [
            _edges_as_arrays(_expand(window, original, transformers, constraint))
            for window, original, constraint in zip(windows, originals, constraints)
        ]

    def search(
        self,
        original: np.ndarray,
        transformers: Sequence[Transformer],
        constraint: Constraint,
        score_function: ScoreFunction,
        goal_function: GoalFunction,
        initial_score: Optional[float] = None,
    ) -> ExplorationResult:
        raise NotImplementedError

    def search_batch(
        self,
        originals: Sequence[np.ndarray],
        transformers: Sequence[Transformer],
        constraints: Sequence[Constraint],
        score_function: ScoreFunction,
        goal_functions: Sequence[GoalFunction],
        initial_scores: Optional[Sequence[float]] = None,
    ) -> List[ExplorationResult]:
        """Search many windows; one constraint and goal function per window.

        The base implementation loops :meth:`search` and serves as the
        *reference semantics* for batching: every shipped explorer (greedy,
        beam, random) overrides it with a true lockstep mode that issues one
        model query per search depth across all windows, and the parity suite
        (``tests/test_explorer_parity.py``) pins each override to this loop —
        same windows, same scores, same per-window query counts.
        """
        _check_batch_alignment(originals, constraints, goal_functions, initial_scores)
        results: List[ExplorationResult] = []
        for index, original in enumerate(originals):
            initial = None if initial_scores is None else float(initial_scores[index])
            results.append(
                self.search(
                    original,
                    transformers,
                    constraints[index],
                    score_function,
                    goal_functions[index],
                    initial_score=initial,
                )
            )
        return results

    def _score_original(
        self,
        original: np.ndarray,
        score_function: ScoreFunction,
        initial_score: Optional[float],
    ) -> Tuple[float, int]:
        """Resolve the starting score and how many queries it cost."""
        if initial_score is not None:
            return float(initial_score), 0
        return float(score_function(original[np.newaxis])[0]), 1

    def _start_lockstep(
        self,
        originals: Sequence[np.ndarray],
        constraints: Sequence[Constraint],
        goal_functions: Sequence[GoalFunction],
        score_function: ScoreFunction,
        initial_scores: Optional[Sequence[float]],
    ) -> Tuple[List[np.ndarray], Optional[np.ndarray], int]:
        """Shared lockstep prologue: alignment check, coercion, start scores.

        Returns ``(originals, start_scores, base_queries)``; ``start_scores``
        is None only for an empty batch.  ``base_queries`` mirrors what each
        sequential :meth:`search` call would have spent on its starting
        window (1 without handed-over scores, 0 with them).
        """
        _check_batch_alignment(originals, constraints, goal_functions, initial_scores)
        originals = [np.asarray(window, dtype=np.float64) for window in originals]
        if not originals:
            return originals, None, 0
        if initial_scores is None:
            return originals, score_function(np.stack(originals)), 1
        return originals, np.asarray(initial_scores, dtype=np.float64), 0

    def _init_best_tracking(
        self,
        originals: List[np.ndarray],
        start_scores: np.ndarray,
        base_queries: int,
        goal_functions: Sequence[GoalFunction],
    ):
        """Per-window (window, score, path) best tracking for lockstep modes.

        Returns ``(queries, results, best, active, finalize)``: windows whose
        goal already holds are finalized as immediate successes, the rest are
        active.  ``finalize(index, success=None)`` freezes a window's current
        best into its :class:`ExplorationResult` (evaluating the goal when
        ``success`` is not forced), exactly like the tail of a sequential
        :meth:`search`.
        """
        n_windows = len(originals)
        queries = [base_queries] * n_windows
        results: List[Optional[ExplorationResult]] = [None] * n_windows
        best: List[Tuple[np.ndarray, float, List[str]]] = [
            (originals[index].copy(), float(start_scores[index]), [])
            for index in range(n_windows)
        ]

        def finalize(index: int, success: Optional[bool] = None) -> None:
            window, score, path = best[index]
            reached = goal_functions[index](window, score) if success is None else success
            results[index] = ExplorationResult(reached, window, score, path, queries[index])

        active: List[int] = []
        for index in range(n_windows):
            window, score, path = best[index]
            if goal_functions[index](window, score):
                finalize(index, success=True)
            else:
                active.append(index)
        return queries, results, best, active, finalize


@dataclass
class GreedyExplorer(Explorer):
    """Follow the single best-scoring edge at every depth."""

    max_depth: int = 3

    def search(
        self,
        original: np.ndarray,
        transformers: Sequence[Transformer],
        constraint: Constraint,
        score_function: ScoreFunction,
        goal_function: GoalFunction,
        initial_score: Optional[float] = None,
    ) -> ExplorationResult:
        original = np.asarray(original, dtype=np.float64)
        current = original.copy()
        current_score, queries = self._score_original(original, score_function, initial_score)
        path: List[str] = []

        if goal_function(current, current_score):
            return ExplorationResult(True, current, current_score, path, queries)

        for _ in range(self.max_depth):
            edges = _expand(current, original, transformers, constraint)
            if not edges:
                break
            batch = np.stack([edge.window for edge in edges])
            scores = score_function(batch)
            queries += len(edges)
            best_index = int(np.argmax(scores))
            best_score = float(scores[best_index])
            if best_score <= current_score:
                break  # no edge improves the adversarial objective
            current = edges[best_index].window
            current_score = best_score
            path.append(edges[best_index].description)
            if goal_function(current, current_score):
                return ExplorationResult(True, current, current_score, path, queries)
        return ExplorationResult(
            goal_function(current, current_score), current, current_score, path, queries
        )

    def search_batch(
        self,
        originals: Sequence[np.ndarray],
        transformers: Sequence[Transformer],
        constraints: Sequence[Constraint],
        score_function: ScoreFunction,
        goal_functions: Sequence[GoalFunction],
        initial_scores: Optional[Sequence[float]] = None,
    ) -> List[ExplorationResult]:
        """Lockstep greedy search: all still-active windows advance together.

        Each search depth issues **one** model query covering every candidate
        edge of every active window, instead of one query per window.  Window
        decisions (edge choice, stopping, per-window query accounting) are
        identical to running :meth:`search` per window; only the batching of
        model calls differs.
        """
        originals, start_scores, base_queries = self._start_lockstep(
            originals, constraints, goal_functions, score_function, initial_scores
        )
        if not originals:
            return []
        # Greedy's current window is always its best: it only moves on strict
        # improvement, so the shared best tracking is the whole search state.
        queries, results, best, active, finalize = self._init_best_tracking(
            originals, start_scores, base_queries, goal_functions
        )

        for _ in range(self.max_depth):
            if not active:
                break
            expansions = self._expand_active(
                [best[index][0] for index in active],
                [originals[index] for index in active],
                transformers,
                [constraints[index] for index in active],
            )
            edge_lists = {}
            expandable: List[int] = []
            for index, (candidates, descriptions) in zip(active, expansions):
                if len(candidates):
                    edge_lists[index] = (candidates, descriptions)
                    expandable.append(index)
                else:
                    finalize(index)
            if not expandable:
                active = []
                break

            # ONE model query for every candidate of every active window.
            batch = np.concatenate([edge_lists[index][0] for index in expandable], axis=0)
            batch_scores = score_function(batch)

            offset = 0
            still_active: List[int] = []
            for index in expandable:
                candidates, descriptions = edge_lists[index]
                scores = batch_scores[offset : offset + len(candidates)]
                offset += len(candidates)
                queries[index] += len(candidates)
                best_index = int(np.argmax(scores))
                best_score = float(scores[best_index])
                if best_score <= best[index][1]:
                    finalize(index)
                    continue
                best[index] = (
                    candidates[best_index],
                    best_score,
                    best[index][2] + [descriptions[best_index]],
                )
                if goal_functions[index](best[index][0], best[index][1]):
                    finalize(index, success=True)
                else:
                    still_active.append(index)
            active = still_active

        for index in active:
            finalize(index)
        return results  # type: ignore[return-value]


@dataclass
class BeamExplorer(Explorer):
    """Keep the ``beam_width`` best windows at every depth."""

    beam_width: int = 3
    max_depth: int = 3

    def search(
        self,
        original: np.ndarray,
        transformers: Sequence[Transformer],
        constraint: Constraint,
        score_function: ScoreFunction,
        goal_function: GoalFunction,
        initial_score: Optional[float] = None,
    ) -> ExplorationResult:
        original = np.asarray(original, dtype=np.float64)
        start_score, queries = self._score_original(original, score_function, initial_score)
        if goal_function(original, start_score):
            return ExplorationResult(True, original.copy(), start_score, [], queries)

        beam: List[Tuple[np.ndarray, float, List[str]]] = [(original.copy(), start_score, [])]
        best_window, best_score, best_path = original.copy(), start_score, []

        for _ in range(self.max_depth):
            candidates: List[Tuple[np.ndarray, float, List[str]]] = []
            for window, _, path in beam:
                edges = _expand(window, original, transformers, constraint)
                if not edges:
                    continue
                batch = np.stack([edge.window for edge in edges])
                scores = score_function(batch)
                queries += len(edges)
                for edge, score in zip(edges, scores):
                    candidates.append((edge.window, float(score), path + [edge.description]))
            if not candidates:
                break
            candidates.sort(key=lambda item: item[1], reverse=True)
            beam = candidates[: self.beam_width]
            if beam[0][1] > best_score:
                best_window, best_score, best_path = beam[0]
            if goal_function(best_window, best_score):
                return ExplorationResult(True, best_window, best_score, best_path, queries)
        return ExplorationResult(
            goal_function(best_window, best_score), best_window, best_score, best_path, queries
        )

    def search_batch(
        self,
        originals: Sequence[np.ndarray],
        transformers: Sequence[Transformer],
        constraints: Sequence[Constraint],
        score_function: ScoreFunction,
        goal_functions: Sequence[GoalFunction],
        initial_scores: Optional[Sequence[float]] = None,
    ) -> List[ExplorationResult]:
        """Lockstep beam search: one model query per depth for the union of beams.

        Every still-active window's beam items are expanded together and all
        their candidates are scored in a single model call per depth.  Beam
        updates (candidate ordering, stable sort, best tracking, per-window
        query accounting) replicate :meth:`search` exactly.
        """
        originals, start_scores, base_queries = self._start_lockstep(
            originals, constraints, goal_functions, score_function, initial_scores
        )
        if not originals:
            return []
        queries, results, best, active, finalize = self._init_best_tracking(
            originals, start_scores, base_queries, goal_functions
        )
        # Per active window: (window, score, path) triples, exactly as in `search`.
        beams = {
            index: [(originals[index].copy(), float(start_scores[index]), [])]
            for index in active
        }

        for _ in range(self.max_depth):
            if not active:
                break
            # Flatten every beam item of every active window for one expansion.
            entry_windows: List[np.ndarray] = []
            entry_originals: List[np.ndarray] = []
            entry_constraints: List[Constraint] = []
            entry_owners: List[int] = []
            entry_paths: List[List[str]] = []
            for index in active:
                for window, _, path in beams[index]:
                    entry_windows.append(window)
                    entry_originals.append(originals[index])
                    entry_constraints.append(constraints[index])
                    entry_owners.append(index)
                    entry_paths.append(path)
            expansions = self._expand_active(
                entry_windows, entry_originals, transformers, entry_constraints
            )
            chunks = {index: [] for index in active}
            for (candidates, descriptions), owner, path in zip(
                expansions, entry_owners, entry_paths
            ):
                if len(candidates):
                    chunks[owner].append((candidates, descriptions, path))

            scorable = [index for index in active if chunks[index]]
            if not scorable:
                for index in active:
                    finalize(index)
                active = []
                break

            # ONE model query for every candidate of every beam of every window.
            batch = np.concatenate(
                [candidates for index in scorable for candidates, _, _ in chunks[index]],
                axis=0,
            )
            batch_scores = score_function(batch)

            offset = 0
            still_active: List[int] = []
            for index in active:
                if not chunks[index]:
                    # No admissible edge anywhere in the beam: `search` breaks.
                    finalize(index)
                    continue
                candidates_with_scores: List[Tuple[np.ndarray, float, List[str]]] = []
                for candidates, descriptions, path in chunks[index]:
                    count = len(candidates)
                    scores = batch_scores[offset : offset + count]
                    offset += count
                    queries[index] += count
                    for edge_index in range(count):
                        candidates_with_scores.append(
                            (
                                candidates[edge_index],
                                float(scores[edge_index]),
                                path + [descriptions[edge_index]],
                            )
                        )
                candidates_with_scores.sort(key=lambda item: item[1], reverse=True)
                beams[index] = candidates_with_scores[: self.beam_width]
                if beams[index][0][1] > best[index][1]:
                    best[index] = beams[index][0]
                if goal_functions[index](best[index][0], best[index][1]):
                    finalize(index, success=True)
                else:
                    still_active.append(index)
            active = still_active

        for index in active:
            finalize(index)
        return results  # type: ignore[return-value]


@dataclass
class RandomExplorer(Explorer):
    """Uniform random walks through the transformation graph (baseline).

    The explorer keeps one persistent random stream across ``search`` calls,
    so consecutive windows draw *different* walks (a fixed per-search seed
    would correlate the baseline).  Each search consumes exactly **one** draw
    from that persistent stream — a seed for a per-search child stream that
    drives every walk of that search.  Because :meth:`search_batch` draws the
    same one-seed-per-window sequence (in window order) before running its
    lockstep rounds, batched campaigns consume the persistent RNG in exactly
    the same order as sequential ``search`` calls: for a fixed ``seed`` the
    two modes produce identical walks, windows, scores, and query counts,
    regardless of how windows are batched or when individual searches stop.

    ``seed`` accepts an integer for a reproducible stream or a shared
    :class:`~repro.utils.rng.RandomState` to interleave with other components.
    """

    max_depth: int = 3
    n_walks: int = 10
    seed: SeedLike = 0

    def __post_init__(self):
        self._rng = as_random_state(self.seed)

    def _spawn_walk_rng(self) -> RandomState:
        """One persistent-stream draw → an independent per-search walk stream."""
        return RandomState(int(self._rng.integers(0, 2**63 - 1)))

    def search(
        self,
        original: np.ndarray,
        transformers: Sequence[Transformer],
        constraint: Constraint,
        score_function: ScoreFunction,
        goal_function: GoalFunction,
        initial_score: Optional[float] = None,
    ) -> ExplorationResult:
        rng = self._spawn_walk_rng()
        original = np.asarray(original, dtype=np.float64)
        best_window = original.copy()
        best_score, queries = self._score_original(original, score_function, initial_score)
        best_path: List[str] = []
        if goal_function(best_window, best_score):
            return ExplorationResult(True, best_window, best_score, best_path, queries)

        for _ in range(self.n_walks):
            current = original.copy()
            path: List[str] = []
            for _ in range(self.max_depth):
                edges = _expand(current, original, transformers, constraint)
                if not edges:
                    break
                edge = edges[int(rng.integers(0, len(edges)))]
                current = edge.window
                path.append(edge.description)
            score = float(score_function(current[np.newaxis])[0])
            queries += 1
            if score > best_score:
                best_window, best_score, best_path = current, score, path
            if goal_function(best_window, best_score):
                return ExplorationResult(True, best_window, best_score, best_path, queries)
        return ExplorationResult(
            goal_function(best_window, best_score), best_window, best_score, best_path, queries
        )

    def search_batch(
        self,
        originals: Sequence[np.ndarray],
        transformers: Sequence[Transformer],
        constraints: Sequence[Constraint],
        score_function: ScoreFunction,
        goal_functions: Sequence[GoalFunction],
        initial_scores: Optional[Sequence[float]] = None,
    ) -> List[ExplorationResult]:
        """Lockstep random walks: one model query per walk round.

        Walk proposals are generated round-by-round — round ``r`` advances
        walk ``r`` of every still-active window step by step through one
        vectorized expansion per depth, then scores every round endpoint in a
        single model call.  Each window draws from its own per-search child
        stream (seeded in window order from the persistent RNG, exactly like
        sequential :meth:`search` calls), so walks, stopping decisions, and
        query counts are identical to the per-window loop.
        """
        originals, start_scores, base_queries = self._start_lockstep(
            originals, constraints, goal_functions, score_function, initial_scores
        )
        if not originals:
            return []

        # Window-major seed draws: identical persistent-RNG consumption to
        # n sequential `search` calls (which draw before any goal check).
        walk_rngs = [self._spawn_walk_rng() for _ in originals]

        queries, results, best, active, finalize = self._init_best_tracking(
            originals, start_scores, base_queries, goal_functions
        )

        for _ in range(self.n_walks):
            if not active:
                break
            current = {index: originals[index].copy() for index in active}
            walk_paths = {index: [] for index in active}
            walking = list(active)
            for _ in range(self.max_depth):
                if not walking:
                    break
                expansions = self._expand_active(
                    [current[index] for index in walking],
                    [originals[index] for index in walking],
                    transformers,
                    [constraints[index] for index in walking],
                )
                still_walking: List[int] = []
                for index, (candidates, descriptions) in zip(walking, expansions):
                    if not len(candidates):
                        continue  # this window's walk ends early
                    choice = int(walk_rngs[index].integers(0, len(candidates)))
                    current[index] = candidates[choice]
                    walk_paths[index].append(descriptions[choice])
                    still_walking.append(index)
                walking = still_walking

            # ONE model query for every round endpoint.
            endpoints = np.stack([current[index] for index in active])
            round_scores = score_function(endpoints)

            still_active: List[int] = []
            for index, score in zip(active, round_scores):
                queries[index] += 1
                score = float(score)
                if score > best[index][1]:
                    best[index] = (current[index], score, walk_paths[index])
                if goal_functions[index](best[index][0], best[index][1]):
                    finalize(index, success=True)
                else:
                    still_active.append(index)
            active = still_active

        for index in active:
            finalize(index)
        return results  # type: ignore[return-value]
