"""Input transformations available to the evasion adversary.

URET models evasion as a search over a graph of input transformations.  Each
transformer proposes candidate edges (modified copies of the current window);
the explorer picks which edge to follow based on the target model's response.

All transformers here only touch the CGM channel of the feature window, in
line with the paper's threat model (the adversary compromises the Bluetooth
link between the CGM sensor and the smartphone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.cohort import CGM_COLUMN


@dataclass(frozen=True)
class TransformationEdge:
    """One candidate transformation: the resulting window plus a description."""

    window: np.ndarray
    description: str

    def __post_init__(self):
        object.__setattr__(self, "window", np.asarray(self.window, dtype=np.float64))


class Transformer:
    """Interface: propose candidate transformed windows.

    Implementations must define :meth:`candidates`.  The batched attack engine
    additionally calls :meth:`candidates_batch`, whose default stacks per-window
    :meth:`candidates` output; transformers on the hot path override it with a
    fully vectorized edit (see :class:`SuffixLevelTransformer` and friends).

    Contract for batching: the *edge set* (count, order, and descriptions) may
    depend only on the window's shape, never on its values, so every window of
    an equally-shaped batch yields the same edges.  All built-in transformers
    satisfy this; ``tests/test_property_based.py`` pins batch output to the
    per-window reference for each of them.
    """

    def candidates(self, window: np.ndarray) -> List[TransformationEdge]:
        raise NotImplementedError

    def candidates_batch(self, windows: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        """Vectorized candidates for a stack of equally-shaped windows.

        Parameters
        ----------
        windows:
            Array ``(n_windows, history, n_features)``.

        Returns
        -------
        candidates:
            Array ``(n_windows, n_edges, history, n_features)`` where
            ``candidates[i, j]`` equals ``self.candidates(windows[i])[j].window``.
        descriptions:
            The ``n_edges`` edge descriptions (shared across the batch).
        """
        windows = np.asarray(windows, dtype=np.float64)
        per_window = [self.candidates(window) for window in windows]
        if not per_window:
            raise ValueError("candidates_batch requires at least one window")
        descriptions = [edge.description for edge in per_window[0]]
        for edges in per_window[1:]:
            if [edge.description for edge in edges] != descriptions:
                raise ValueError(
                    f"{type(self).__name__} emits window-dependent edge sets; "
                    "candidates_batch requires a fixed edge set per window shape"
                )
        if not descriptions:
            # An empty edge set for this window shape is contract-compliant
            # (the per-edge reference path simply contributes no edges).
            return np.empty((len(windows), 0) + windows.shape[1:]), []
        stacked = np.stack(
            [np.stack([edge.window for edge in edges]) for edges in per_window]
        )
        return stacked, descriptions

    def _tile_for_edits(self, windows: np.ndarray, n_edges: int) -> np.ndarray:
        """Replicate each window once per edge: ``(n, E, history, features)``."""
        windows = np.asarray(windows, dtype=np.float64)
        return np.repeat(windows[:, np.newaxis], n_edges, axis=1)


@dataclass
class SuffixLevelTransformer(Transformer):
    """Overwrite the last ``k`` CGM samples with a constant plausible level.

    This is the workhorse transformation: the adversary replaces the most
    recent glucose readings (the ones that dominate the forecaster's output)
    with a chosen hyperglycemic level.
    """

    levels: Sequence[float] = (185.0, 220.0, 260.0, 320.0, 400.0)
    suffix_lengths: Sequence[int] = (2, 4, 6, 12)
    feature_column: int = CGM_COLUMN

    def candidates(self, window: np.ndarray) -> List[TransformationEdge]:
        window = np.asarray(window, dtype=np.float64)
        edges: List[TransformationEdge] = []
        history = window.shape[0]
        for suffix in self.suffix_lengths:
            length = min(suffix, history)
            for level in self.levels:
                candidate = window.copy()
                candidate[history - length :, self.feature_column] = level
                edges.append(
                    TransformationEdge(candidate, f"set_last_{length}_to_{level:g}")
                )
        return edges

    def candidates_batch(self, windows: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        windows = np.asarray(windows, dtype=np.float64)
        history = windows.shape[1]
        edits = [
            (min(suffix, history), level)
            for suffix in self.suffix_lengths
            for level in self.levels
        ]
        stacked = self._tile_for_edits(windows, len(edits))
        for index, (length, level) in enumerate(edits):
            stacked[:, index, history - length :, self.feature_column] = level
        descriptions = [f"set_last_{length}_to_{level:g}" for length, level in edits]
        return stacked, descriptions


@dataclass
class SuffixOffsetTransformer(Transformer):
    """Add a constant offset to the last ``k`` CGM samples."""

    offsets: Sequence[float] = (20.0, 40.0, 80.0, 120.0)
    suffix_lengths: Sequence[int] = (3, 6, 12)
    feature_column: int = CGM_COLUMN

    def candidates(self, window: np.ndarray) -> List[TransformationEdge]:
        window = np.asarray(window, dtype=np.float64)
        edges: List[TransformationEdge] = []
        history = window.shape[0]
        for suffix in self.suffix_lengths:
            length = min(suffix, history)
            for offset in self.offsets:
                candidate = window.copy()
                candidate[history - length :, self.feature_column] += offset
                edges.append(
                    TransformationEdge(candidate, f"offset_last_{length}_by_{offset:g}")
                )
        return edges

    def candidates_batch(self, windows: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        windows = np.asarray(windows, dtype=np.float64)
        history = windows.shape[1]
        edits = [
            (min(suffix, history), offset)
            for suffix in self.suffix_lengths
            for offset in self.offsets
        ]
        stacked = self._tile_for_edits(windows, len(edits))
        for index, (length, offset) in enumerate(edits):
            stacked[:, index, history - length :, self.feature_column] += offset
        descriptions = [f"offset_last_{length}_by_{offset:g}" for length, offset in edits]
        return stacked, descriptions


@dataclass
class RampTransformer(Transformer):
    """Add a linearly increasing ramp to the CGM suffix.

    A ramp mimics a rapidly rising glucose trend, which forecasting models
    extrapolate upward; it is often stealthier than a flat overwrite because
    the early samples stay close to the benign trace.
    """

    final_offsets: Sequence[float] = (60.0, 120.0, 200.0)
    suffix_lengths: Sequence[int] = (6, 12)
    feature_column: int = CGM_COLUMN

    def candidates(self, window: np.ndarray) -> List[TransformationEdge]:
        window = np.asarray(window, dtype=np.float64)
        edges: List[TransformationEdge] = []
        history = window.shape[0]
        for suffix in self.suffix_lengths:
            length = min(suffix, history)
            ramp_base = np.linspace(0.0, 1.0, num=length)
            for final_offset in self.final_offsets:
                candidate = window.copy()
                candidate[history - length :, self.feature_column] += ramp_base * final_offset
                edges.append(
                    TransformationEdge(candidate, f"ramp_last_{length}_to_{final_offset:g}")
                )
        return edges

    def candidates_batch(self, windows: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        windows = np.asarray(windows, dtype=np.float64)
        history = windows.shape[1]
        edits = [
            (min(suffix, history), final_offset)
            for suffix in self.suffix_lengths
            for final_offset in self.final_offsets
        ]
        stacked = self._tile_for_edits(windows, len(edits))
        for index, (length, final_offset) in enumerate(edits):
            ramp = np.linspace(0.0, 1.0, num=length) * final_offset
            stacked[:, index, history - length :, self.feature_column] += ramp
        descriptions = [
            f"ramp_last_{length}_to_{final_offset:g}" for length, final_offset in edits
        ]
        return stacked, descriptions


@dataclass
class ScaleTransformer(Transformer):
    """Multiply the CGM suffix by a factor greater than one."""

    factors: Sequence[float] = (1.2, 1.5, 2.0)
    suffix_lengths: Sequence[int] = (6, 12)
    feature_column: int = CGM_COLUMN

    def candidates(self, window: np.ndarray) -> List[TransformationEdge]:
        window = np.asarray(window, dtype=np.float64)
        edges: List[TransformationEdge] = []
        history = window.shape[0]
        for suffix in self.suffix_lengths:
            length = min(suffix, history)
            for factor in self.factors:
                candidate = window.copy()
                candidate[history - length :, self.feature_column] *= factor
                edges.append(
                    TransformationEdge(candidate, f"scale_last_{length}_by_{factor:g}")
                )
        return edges

    def candidates_batch(self, windows: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        windows = np.asarray(windows, dtype=np.float64)
        history = windows.shape[1]
        edits = [
            (min(suffix, history), factor)
            for suffix in self.suffix_lengths
            for factor in self.factors
        ]
        stacked = self._tile_for_edits(windows, len(edits))
        for index, (length, factor) in enumerate(edits):
            stacked[:, index, history - length :, self.feature_column] *= factor
        descriptions = [f"scale_last_{length}_by_{factor:g}" for length, factor in edits]
        return stacked, descriptions


def default_transformers() -> List[Transformer]:
    """The default transformation set used by the attack campaigns."""
    return [
        SuffixLevelTransformer(),
        SuffixOffsetTransformer(),
        RampTransformer(),
        ScaleTransformer(),
    ]
