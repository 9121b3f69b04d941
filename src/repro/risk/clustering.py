"""Step 4 of the framework: hierarchical clustering of risk profiles.

Implements agglomerative clustering from scratch (no scipy dependency): a
distance-matrix-based Lance–Williams update supporting single, complete,
average, and Ward linkage, a scipy-compatible linkage matrix, flat-cluster
extraction by cluster count or by the largest merge-distance gap, and a plain
text dendrogram rendering (the library has no plotting dependency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_array

LINKAGES = ("single", "complete", "average", "ward")


def pairwise_euclidean(matrix: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances between rows."""
    matrix = check_array(matrix, "matrix", ndim=2, min_samples=1)
    norms = np.sum(matrix**2, axis=1)
    squared = norms[:, np.newaxis] + norms[np.newaxis, :] - 2.0 * matrix @ matrix.T
    return np.sqrt(np.maximum(squared, 0.0))


@dataclass
class MergeStep:
    """One merge of the agglomeration: which clusters merged and at what distance."""

    left: int
    right: int
    distance: float
    size: int


@dataclass
class DendrogramNode:
    """A node of the dendrogram tree."""

    cluster_id: int
    distance: float = 0.0
    members: List[int] = field(default_factory=list)
    left: Optional["DendrogramNode"] = None
    right: Optional["DendrogramNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class HierarchicalClustering:
    """Agglomerative hierarchical clustering over row vectors.

    Parameters
    ----------
    linkage:
        ``single``, ``complete``, ``average``, or ``ward``.
    """

    def __init__(self, linkage: str = "average"):
        if linkage not in LINKAGES:
            raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
        self.linkage = linkage
        self.merges_: Optional[List[MergeStep]] = None
        self.n_samples_: Optional[int] = None

    # ------------------------------------------------------------------ fitting
    def fit(self, matrix: np.ndarray) -> "HierarchicalClustering":
        matrix = check_array(matrix, "matrix", ndim=2, min_samples=2)
        n_samples = matrix.shape[0]
        distances = pairwise_euclidean(matrix)
        if self.linkage == "ward":
            # Ward operates on squared Euclidean distances internally.
            distances = distances**2

        active = {index: [index] for index in range(n_samples)}
        cluster_ids = {index: index for index in range(n_samples)}
        current_distance = {  # condensed view as a dict of dicts
            (i, j): distances[i, j] for i in range(n_samples) for j in range(i + 1, n_samples)
        }
        merges: List[MergeStep] = []
        next_id = n_samples

        while len(active) > 1:
            (best_i, best_j), best_distance = min(
                current_distance.items(), key=lambda item: item[1]
            )
            members_i, members_j = active[best_i], active[best_j]
            merged_members = members_i + members_j
            reported = np.sqrt(best_distance) if self.linkage == "ward" else best_distance
            merges.append(
                MergeStep(
                    left=cluster_ids[best_i],
                    right=cluster_ids[best_j],
                    distance=float(reported),
                    size=len(merged_members),
                )
            )

            # Lance-Williams update of distances from the merged cluster to others.
            new_distances = {}
            for other in active:
                if other in (best_i, best_j):
                    continue
                d_io = current_distance[tuple(sorted((best_i, other)))]
                d_jo = current_distance[tuple(sorted((best_j, other)))]
                if self.linkage == "single":
                    distance = min(d_io, d_jo)
                elif self.linkage == "complete":
                    distance = max(d_io, d_jo)
                elif self.linkage == "average":
                    size_i, size_j = len(members_i), len(members_j)
                    distance = (size_i * d_io + size_j * d_jo) / (size_i + size_j)
                else:  # ward
                    size_i, size_j = len(members_i), len(members_j)
                    size_o = len(active[other])
                    d_ij = best_distance
                    total = size_i + size_j + size_o
                    distance = (
                        (size_i + size_o) * d_io + (size_j + size_o) * d_jo - size_o * d_ij
                    ) / total
                new_distances[other] = distance

            # Remove the two merged clusters and register the new one.
            del active[best_j]
            del active[best_i]
            for key in list(current_distance):
                if best_i in key or best_j in key:
                    del current_distance[key]
            new_key = best_i  # reuse the smaller slot index for the merged cluster
            active[new_key] = merged_members
            cluster_ids[new_key] = next_id
            next_id += 1
            for other, distance in new_distances.items():
                current_distance[tuple(sorted((new_key, other)))] = distance

        self.merges_ = merges
        self.n_samples_ = n_samples
        return self

    # ------------------------------------------------------------------ outputs
    def _check_fitted(self) -> None:
        if self.merges_ is None:
            raise RuntimeError("HierarchicalClustering is not fitted")

    def _members_by_cluster_id(self) -> Dict[int, List[int]]:
        members: Dict[int, List[int]] = {index: [index] for index in range(self.n_samples_)}
        for offset, merge in enumerate(self.merges_):
            members[self.n_samples_ + offset] = members[merge.left] + members[merge.right]
        return members

    def cut(self, n_clusters: int) -> np.ndarray:
        """Flat cluster labels for a requested number of clusters."""
        self._check_fitted()
        if not 1 <= n_clusters <= self.n_samples_:
            raise ValueError(f"n_clusters must be in [1, {self.n_samples_}], got {n_clusters}")
        members = self._members_by_cluster_id()
        # Undo the last (n_clusters - 1) merges.
        surviving = set(range(self.n_samples_)) | {
            self.n_samples_ + offset for offset in range(len(self.merges_))
        }
        consumed = set()
        for offset, merge in enumerate(self.merges_):
            consumed.add(merge.left)
            consumed.add(merge.right)
        roots = sorted(surviving - consumed)
        # Start from the tree root(s) and split until we reach n_clusters.
        clusters = list(roots)
        merge_by_id = {
            self.n_samples_ + offset: merge for offset, merge in enumerate(self.merges_)
        }
        while len(clusters) < n_clusters:
            # Split the cluster whose merge distance is largest.
            splittable = [cid for cid in clusters if cid in merge_by_id]
            if not splittable:
                break
            to_split = max(splittable, key=lambda cid: merge_by_id[cid].distance)
            clusters.remove(to_split)
            clusters.extend([merge_by_id[to_split].left, merge_by_id[to_split].right])
        labels = np.empty(self.n_samples_, dtype=int)
        for cluster_index, cluster_id in enumerate(sorted(clusters)):
            for member in members[cluster_id]:
                labels[member] = cluster_index
        return labels

    def cut_by_largest_gap(self, max_clusters: int = 4) -> np.ndarray:
        """Choose the cluster count at the largest gap between merge distances.

        Mirrors the paper's procedure of pruning the dendrogram "based on the
        maximum distance between clusters".
        """
        self._check_fitted()
        distances = np.array([merge.distance for merge in self.merges_])
        if len(distances) == 1:
            return self.cut(2)
        gaps = np.diff(distances)
        # Gap after merge k implies cutting into (n_merges - k) clusters.
        candidate_counts = len(self.merges_) - np.arange(len(gaps))
        valid = candidate_counts <= max_clusters
        if not np.any(valid):
            return self.cut(2)
        best_gap_index = int(np.argmax(np.where(valid, gaps, -np.inf)))
        n_clusters = int(candidate_counts[best_gap_index])
        n_clusters = max(2, min(n_clusters, max_clusters))
        return self.cut(n_clusters)

    # --------------------------------------------------------------- dendrogram
    def dendrogram_tree(self) -> DendrogramNode:
        """Root node of the dendrogram tree."""
        self._check_fitted()
        nodes: Dict[int, DendrogramNode] = {
            index: DendrogramNode(cluster_id=index, members=[index])
            for index in range(self.n_samples_)
        }
        for offset, merge in enumerate(self.merges_):
            node_id = self.n_samples_ + offset
            left, right = nodes[merge.left], nodes[merge.right]
            nodes[node_id] = DendrogramNode(
                cluster_id=node_id,
                distance=merge.distance,
                members=left.members + right.members,
                left=left,
                right=right,
            )
        return nodes[self.n_samples_ + len(self.merges_) - 1]

    def render_dendrogram(self, labels: Optional[Sequence[str]] = None) -> str:
        """ASCII rendering of the dendrogram (merge order and distances)."""
        self._check_fitted()
        if labels is None:
            labels = [f"item_{index}" for index in range(self.n_samples_)]
        if len(labels) != self.n_samples_:
            raise ValueError("labels length must match the number of clustered items")

        def describe(node: DendrogramNode, indent: int = 0) -> List[str]:
            prefix = "  " * indent
            if node.is_leaf:
                return [f"{prefix}- {labels[node.cluster_id]}"]
            lines = [f"{prefix}+ merge @ {node.distance:.2f}"]
            lines.extend(describe(node.left, indent + 1))
            lines.extend(describe(node.right, indent + 1))
            return lines

        return "\n".join(describe(self.dendrogram_tree()))


@dataclass
class ClusteringOutcome:
    """Flat clustering of labelled items plus the fitted model."""

    labels: List[str]
    assignments: np.ndarray
    model: HierarchicalClustering

    def members(self, cluster_index: int) -> List[str]:
        return [
            label
            for label, assignment in zip(self.labels, self.assignments)
            if assignment == cluster_index
        ]

    @property
    def n_clusters(self) -> int:
        return int(len(np.unique(self.assignments)))

    def as_dict(self) -> Dict[str, int]:
        return {label: int(assignment) for label, assignment in zip(self.labels, self.assignments)}


def cluster_profiles(
    labels: Sequence[str],
    matrix: np.ndarray,
    linkage: str = "average",
    n_clusters: Optional[int] = 2,
    max_clusters: int = 4,
) -> ClusteringOutcome:
    """Cluster profile row-vectors and return labelled assignments.

    Setting ``n_clusters=None`` selects the count via the largest-gap rule.
    """
    matrix = check_array(matrix, "matrix", ndim=2, min_samples=2)
    if len(labels) != matrix.shape[0]:
        raise ValueError("labels length must match matrix rows")
    model = HierarchicalClustering(linkage=linkage).fit(matrix)
    if n_clusters is None:
        assignments = model.cut_by_largest_gap(max_clusters=max_clusters)
    else:
        assignments = model.cut(n_clusters)
    return ClusteringOutcome(labels=list(labels), assignments=assignments, model=model)
