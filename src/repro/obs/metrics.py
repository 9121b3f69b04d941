"""Deterministic metrics: counters, gauges, histograms with order-invariant merge.

The registry is the parity-safe half of the telemetry spine: every value it
holds is derived from *deterministic* quantities (event counts, batch sizes,
tick indices) — never from the wall clock — so the full non-timing snapshot
of a sharded run must equal the single-process snapshot bitwise
(``scripts/check_parity.py`` / ``tests/test_obs.py`` gate it).  Wall-clock
measurements go through a separate *timing channel*
(:meth:`MetricsRegistry.observe_seconds`) that is explicitly excluded from
:meth:`MetricsRegistry.snapshot` and therefore from every bitwise
comparison.

Merge semantics (:meth:`MetricsRegistry.merge` / :meth:`MetricsRegistry.absorb`)
are permutation-invariant by construction:

* **counters** add,
* **gauges** add (use them only for additive quantities — per-shard open
  sessions sum to the fleet value),
* **histograms** add bucket counts elementwise (fixed edges per series name,
  so two shards can never disagree on the bucket layout).

Histogram observations should be integral (batch sizes, tick latencies in
ticks): integer-valued float sums are exact, which is what keeps the merged
``sum`` field bitwise layout-independent.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: (series name, sorted (label key, label value) pairs) — the identity of one
#: time series.  Tuples are hashable, picklable, and totally ordered, which
#: is what makes snapshots deterministic and cheap to ship over a shard pipe.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper edges (powers of two): right for the
#: quantities the serving fabric observes — batch sizes, latencies in ticks.
DEFAULT_BUCKET_EDGES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


def series_key(name: str, labels: Mapping[str, object]) -> SeriesKey:
    """Canonical (name, sorted labels) identity of one series."""
    return (str(name), tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def render_key(key: SeriesKey) -> str:
    """Human/JSONL rendering: ``name{k=v,k2=v2}`` (sorted label keys)."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """Counters, gauges, fixed-edge histograms, and a separate timing channel.

    One registry per process: the single-process scheduler owns one, each
    shard worker owns its own, and the parent folds worker snapshots in with
    :meth:`absorb` (shipped with every tick reply; see
    :class:`repro.serving.shard.ShardedScheduler`).
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_edges", "_timings", "_keys")

    def __init__(self):
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        # key -> [edges tuple, bucket counts list (len(edges)+1), sum, count]
        self._histograms: Dict[SeriesKey, list] = {}
        self._edges: Dict[str, Tuple[float, ...]] = {}
        # key -> {"count", "total", "best", "last"} — wall-clock channel,
        # excluded from snapshot() and every bitwise comparison.
        self._timings: Dict[SeriesKey, Dict[str, float]] = {}
        # (name, *label items) -> series_key(name, labels), for string labels
        self._keys: Dict[tuple, SeriesKey] = {}

    def _key(self, name: str, labels: Mapping[str, object]) -> SeriesKey:
        """:func:`series_key`, memoized per call signature.

        Only all-string labels are memoized: ``True``, ``1`` and ``1.0``
        are equal dict keys but render as different label values.
        """
        memo = (name, *labels.items())
        try:
            key = self._keys.get(memo)
        except TypeError:  # an unhashable label value
            return series_key(name, labels)
        if key is None:
            key = series_key(name, labels)
            if all(type(value) is str for value in labels.values()):
                self._keys[memo] = key
        return key

    # ----------------------------------------------------------------- writing
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series."""
        key = self._key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series (merge semantics: gauges ADD across shards)."""
        self._gauges[self._key(name, labels)] = float(value)

    def declare_histogram(self, name: str, edges: Sequence[float]) -> None:
        """Pin the bucket upper edges for every series under ``name``.

        Must be called before the first ``observe`` of that name (or not at
        all — :data:`DEFAULT_BUCKET_EDGES` applies).  Edges are per *name*,
        not per labeled series, so shards can never disagree on the layout.
        """
        edges = tuple(float(edge) for edge in edges)
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram edges must be strictly increasing")
        if not edges:
            raise ValueError("histogram edges must be non-empty")
        existing = self._edges.get(name)
        if existing is not None and existing != edges:
            raise ValueError(f"histogram {name!r} already declared with different edges")
        self._edges[name] = edges

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a fixed-edge histogram series.

        Observations should be deterministic, integral quantities (batch
        sizes, latencies in ticks) — the ``sum`` field must stay exact under
        any merge order.
        """
        key = self._key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            edges = self._edges.setdefault(name, DEFAULT_BUCKET_EDGES)
            hist = self._histograms[key] = [edges, [0] * (len(edges) + 1), 0.0, 0]
        value = float(value)
        hist[1][bisect.bisect_left(hist[0], value)] += 1
        hist[2] += value
        hist[3] += 1

    def observe_seconds(self, name: str, seconds: float, **labels) -> None:
        """Record a wall-clock measurement into the timing channel.

        Timings never appear in :meth:`snapshot` and are excluded from all
        bitwise comparisons; read them back with :meth:`timings`.
        """
        key = self._key(name, labels)
        entry = self._timings.get(key)
        if entry is None:
            entry = self._timings[key] = {"count": 0, "total": 0.0, "best": float("inf"), "last": 0.0}
        seconds = float(seconds)
        entry["count"] += 1
        entry["total"] += seconds
        entry["best"] = min(entry["best"], seconds)
        entry["last"] = seconds

    # ----------------------------------------------------------------- reading
    def snapshot(self) -> Dict[str, dict]:
        """Deterministic (sorted) snapshot of every **non-timing** series.

        The returned structure is plain data (tuples/dicts/floats): safe to
        pickle across a shard pipe, to compare with ``==`` in parity gates,
        and to feed back into :meth:`absorb`.
        """
        return {
            "counters": {key: self._counters[key] for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key] for key in sorted(self._gauges)},
            "histograms": {
                key: {
                    "edges": tuple(hist[0]),
                    "counts": tuple(hist[1]),
                    "sum": hist[2],
                    "count": hist[3],
                }
                for key, hist in sorted(self._histograms.items())
            },
        }

    def timings(self) -> Dict[SeriesKey, Dict[str, float]]:
        """Sorted copy of the wall-clock channel (never merged bitwise)."""
        return {key: dict(self._timings[key]) for key in sorted(self._timings)}

    # ----------------------------------------------------------------- merging
    def absorb(self, snapshot: Mapping[str, dict]) -> None:
        """Fold one :meth:`snapshot` into this registry (addition, commutative)."""
        for key, value in snapshot.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        for key, value in snapshot.get("gauges", {}).items():
            self._gauges[key] = self._gauges.get(key, 0.0) + value
        for key, payload in snapshot.get("histograms", {}).items():
            edges = tuple(payload["edges"])
            declared = self._edges.setdefault(key[0], edges)
            if declared != edges:
                raise ValueError(f"histogram {key[0]!r} merged with mismatched edges")
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = [edges, [0] * (len(edges) + 1), 0.0, 0]
            for index, count in enumerate(payload["counts"]):
                hist[1][index] += count
            hist[2] += payload["sum"]
            hist[3] += payload["count"]

    @classmethod
    def merge(cls, snapshots: Iterable[Mapping[str, dict]]) -> Dict[str, dict]:
        """Merge snapshots into one; permutation-invariant (sums + sorted keys)."""
        merged = cls()
        for snapshot in snapshots:
            merged.absorb(snapshot)
        return merged.snapshot()

    # ------------------------------------------------------------------ lookup
    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(series_key(name, labels), 0.0)

    def counter_total(self, name: str, **fixed_labels) -> float:
        """Sum of a counter over every label combination matching ``fixed_labels``."""
        wanted = {str(k): str(v) for k, v in fixed_labels.items()}
        total = 0.0
        for (series_name, labels), value in self._counters.items():
            if series_name != name:
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in wanted.items()):
                total += value
        return total
