"""Trace spans, structured events, and the :class:`Observer` bundle.

A :class:`Span` is one timed stage of a scheduler tick (``ingress`` →
``lane_gather`` → ``lane_step`` → ``detector_batch`` → ``health`` →
``merge``) carrying session/lane/tick identity; an :class:`ObsEvent` is one
structured occurrence (a health transition, a lane failure, a worker death).
Span *identity and detail fields* are deterministic; only the ``seconds``
field touches the wall clock, and it is excluded from every bitwise
comparison (mirroring the registry's timing channel).

The :class:`Observer` bundles one :class:`~repro.obs.metrics.MetricsRegistry`
with the span/event logs and the JSONL exporter.  Passing an Observer into
:class:`~repro.serving.scheduler.StreamScheduler`,
:class:`~repro.serving.shard.ShardedScheduler`, or
:class:`~repro.serving.replay.StreamReplayer` turns instrumentation on;
``None`` (everywhere the default) is the bitwise-inert null config — no
counter, span, or event is ever recorded and behavior is byte-for-byte the
uninstrumented fabric (``scripts/check_parity.py`` gates this).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, render_key
from repro.utils.jsonio import dumps_strict

#: Spans kept in memory before new ones are dropped (and counted — the drop
#: is recorded in ``obs.spans_dropped_total``, never silent).
DEFAULT_MAX_SPANS = 250_000


@dataclass
class Span:
    """One timed stage of a scheduler tick (or a coarser phase).

    ``tick`` is the device-clock slot (the replayer's global tick) when the
    caller threads one through, else None; ``seconds`` is wall-clock and
    excluded from parity.  ``shard`` is stamped by the parent fabric when a
    worker's spans are ingested.
    """

    stage: str
    tick: Optional[int] = None
    lane: Optional[str] = None
    sessions: Tuple[str, ...] = ()
    detail: Dict[str, object] = field(default_factory=dict)
    seconds: Optional[float] = None
    shard: Optional[int] = None


@dataclass
class ObsEvent:
    """One structured occurrence (health transition, failure, worker death)."""

    kind: str
    fields: Dict[str, object] = field(default_factory=dict)
    shard: Optional[int] = None


class Observer:
    """Metrics registry + span/event logs + JSONL export, as one handle.

    Parameters
    ----------
    trace:
        When False, ``emit_span``/``span`` become no-ops (metrics and events
        still record) — for long fleet runs where per-tick spans would
        dominate memory.
    max_spans:
        In-memory span cap; overflow increments the
        ``obs.spans_dropped_total`` counter instead of growing unboundedly.
    """

    def __init__(self, trace: bool = True, max_spans: int = DEFAULT_MAX_SPANS):
        self.registry = MetricsRegistry()
        self.trace = bool(trace)
        self.max_spans = int(max_spans)
        self.spans: List[Span] = []
        self.events: List[ObsEvent] = []

    # ------------------------------------------------------------------- spans
    def emit_span(
        self,
        stage: str,
        started: Optional[float] = None,
        tick: Optional[int] = None,
        lane: Optional[str] = None,
        sessions: Sequence[str] = (),
        **detail,
    ) -> None:
        """Record one span; ``started`` is a ``time.perf_counter()`` origin.

        The hot-path form: callers grab ``perf_counter()`` themselves (one
        call, no context-manager frame) and hand it in; ``seconds`` is
        computed here.  ``started=None`` records an instant/aggregate span
        with ``seconds=None``.
        """
        if not self.trace:
            return
        if len(self.spans) >= self.max_spans:
            self.registry.inc("obs.spans_dropped_total")
            return
        self.spans.append(
            Span(
                stage=stage,
                tick=tick,
                lane=lane,
                sessions=tuple(sessions),
                detail=detail,
                seconds=None if started is None else time.perf_counter() - started,
            )
        )

    @contextmanager
    def span(self, stage: str, tick: Optional[int] = None, lane: Optional[str] = None, sessions: Sequence[str] = (), **detail):
        """Context-manager form of :meth:`emit_span` for coarse phases."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.emit_span(stage, started, tick=tick, lane=lane, sessions=sessions, **detail)

    # ------------------------------------------------------------------ events
    def event(self, kind: str, **fields) -> None:
        """Record one structured event."""
        self.events.append(ObsEvent(kind=kind, fields=fields))

    # ---------------------------------------------------------- shard shipping
    def drain(self) -> dict:
        """Ship-ready payload: cumulative series snapshot + spans/events since
        the last drain (the trace logs are cleared so worker memory stays
        bounded; the registry is cumulative and never cleared)."""
        spans, self.spans = self.spans, []
        events, self.events = self.events, []
        return {"series": self.registry.snapshot(), "spans": spans, "events": events}

    def ingest_trace(self, spans: Sequence[Span], events: Sequence[ObsEvent], shard: Optional[int] = None) -> None:
        """Parent-side: append a worker's drained spans/events, stamped with
        the shard index.  Series snapshots are NOT absorbed here — the fabric
        folds each worker's cumulative snapshot in exactly once (see
        :meth:`repro.serving.shard.ShardedScheduler.shutdown`)."""
        for span in spans:
            span.shard = shard
            if len(self.spans) >= self.max_spans:
                self.registry.inc("obs.spans_dropped_total")
                continue
            self.spans.append(span)
        for event in events:
            event.shard = shard
            self.events.append(event)

    # ------------------------------------------------------------------ export
    def export_jsonl(self, path: str, meta: Optional[dict] = None) -> int:
        """Write the run's telemetry as JSON Lines; returns the line count.

        Line types: ``meta`` (one, first), ``counter``/``gauge``/``histogram``
        (the deterministic series), ``timing`` (the wall-clock channel),
        ``span``, and ``event``.  ``scripts/obs_report.py`` renders this
        format back into the chaos-harness rollup shape.  Every line is
        strict JSON (:func:`repro.utils.jsonio.dumps_strict`): a non-finite
        float is written as ``null``, never as a bare ``NaN`` token.
        """
        snapshot = self.registry.snapshot()
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            def write(record: dict) -> None:
                nonlocal lines
                handle.write(dumps_strict(record, sort_keys=True, default=str) + "\n")
                lines += 1

            write({"type": "meta", **(meta or {})})
            for kind in ("counters", "gauges"):
                for key, value in snapshot[kind].items():
                    write(
                        {
                            "type": kind[:-1],
                            "name": key[0],
                            "labels": dict(key[1]),
                            "series": render_key(key),
                            "value": value,
                        }
                    )
            for key, hist in snapshot["histograms"].items():
                write(
                    {
                        "type": "histogram",
                        "name": key[0],
                        "labels": dict(key[1]),
                        "series": render_key(key),
                        "edges": list(hist["edges"]),
                        "counts": list(hist["counts"]),
                        "sum": hist["sum"],
                        "count": hist["count"],
                    }
                )
            for key, timing in self.registry.timings().items():
                write(
                    {
                        "type": "timing",
                        "name": key[0],
                        "labels": dict(key[1]),
                        "series": render_key(key),
                        **timing,
                    }
                )
            for span in self.spans:
                write(
                    {
                        "type": "span",
                        "stage": span.stage,
                        "tick": span.tick,
                        "lane": span.lane,
                        "sessions": list(span.sessions),
                        "detail": span.detail,
                        "seconds": span.seconds,
                        "shard": span.shard,
                    }
                )
            for event in self.events:
                write({"type": "event", "kind": event.kind, "shard": event.shard, **event.fields})
        return lines
