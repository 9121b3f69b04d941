"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the ``repro`` layers from outside the
package: nothing under ``src/`` knows it exists.  Each wrapped call records a
span ``(id, parent, metric, start, end, stage)`` in memory; the spans are
written out when the run ends.  A span's *self time* is its duration minus
the durations of its direct children, so the self times of every span in a
phase add up to the time the phase spent inside wrapped calls, and the rest
of the phase's wall time is reported as unexplained.

Metric names follow ``<layer>.<what>_s`` for self-time buckets and plain
names for counts.  Several functions may share one bucket (for example every
``Transformer.candidates_batch`` override lands in ``attacks.expand_s``).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _rows(args, kwargs) -> int:
    """Row count of the first array argument after ``self``."""
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


def layer_table():
    """``[(owner, attribute, self-time metric, count metric, count fn)]``.

    Imported lazily so the table names the classes the run actually loaded.
    """
    from repro.attacks import campaign, constraints, transformers
    from repro.data import cohort, dataset
    from repro.detectors import hmm, knn, lstm_vae, madgan, ocsvm
    from repro.eval import experiments, reporting
    from repro.glucose import models, predictor
    from repro.nn import fused, optim, recurrent
    from repro.obs import metrics
    from repro.risk import framework, selection
    from repro.serving import attacker, health, replay, scheduler

    table = [
        (cohort.SyntheticOhioT1DM, "generate", "data.cohort_s", None, None),
        (dataset.ForecastingDataset, "from_cohort", "data.windows_s", None, None),
        (dataset.ForecastingDataset, "from_record", "data.windows_s", None, None),
        (fused.FusedTrainer, "step", "nn.train_step_s", "nn.train_steps", _one),
        (optim.Adam, "step", "nn.optimizer_s", None, None),
        (recurrent.BiLSTM, "step", "nn.bilstm_step_s", None, None),
        (recurrent.BiLSTM, "step_one", "nn.bilstm_step_s", None, None),
        (models.GlucoseModelZoo, "fit", "glucose.zoo_fit_s", None, None),
        (predictor.GlucosePredictor, "fit", "glucose.zoo_fit_s", None, None),
        (predictor.GlucosePredictor, "step_stream", "glucose.step_stream_s",
         "glucose.step_stream_rows", _rows),
        (predictor.GlucosePredictor, "step_one", "glucose.step_stream_s",
         "glucose.step_stream_rows", _one),
        (predictor.GlucosePredictor, "predict", "glucose.predict_s",
         "glucose.predict_rows", _rows),
        (campaign.AttackCampaign, "run_cohort", "attacks.campaign_self_s", None, None),
        (attacker.OnlineAttacker, "intercept", "attacks.online_s", None, None),
        (framework.RiskProfilingFramework, "assess", "risk.profile_cluster_s", None, None),
        (framework.RiskProfilingFramework, "build_profiles", "risk.profile_cluster_s", None, None),
        (framework.RiskProfilingFramework, "cluster", "risk.profile_cluster_s", None, None),
        (framework.RiskProfilingFramework, "label_clusters", "risk.profile_cluster_s", None, None),
        (selection.SelectionPlanner, "plan", "risk.profile_cluster_s", None, None),
        (experiments.SelectiveTrainingExperiment, "__init__", "eval.self_s", None, None),
        (experiments.SelectiveTrainingExperiment, "run", "eval.self_s", None, None),
        (experiments.SelectiveTrainingExperiment, "run_strategy", "eval.self_s", None, None),
        (experiments.SelectiveTrainingExperiment, "evaluate_detector", "eval.self_s", None, None),
        (scheduler.StreamScheduler, "tick", "serving.tick_self_s", None, None),
        (scheduler.StreamScheduler, "open_session", "serving.lifecycle_s",
         "serving.sessions_opened", _one),
        (scheduler.StreamScheduler, "close_session", "serving.lifecycle_s", None, None),
        (health.IngressConfig, "validate", "serving.ingress_s", None, None),
        (replay.StreamReplayer, "replay", "serving.replay_self_s", None, None),
    ]
    for name in ("record_error", "record_clean", "admit", "quarantine_now"):
        table.append((health.SessionHealth, name, "serving.health_s", None, None))
    for name in ("inc", "observe", "observe_seconds", "set_gauge"):
        table.append((metrics.MetricsRegistry, name, "obs.registry_s", "obs.registry_calls", _one))
    for name in dir(reporting):
        if name.startswith("render_"):
            table.append((reporting, name, "eval.self_s", None, None))

    detector_classes = {
        "knn": (knn.KNNClassifierDetector, knn.KNNDistanceDetector),
        "ocsvm": (ocsvm.OneClassSVMDetector,),
        "madgan": (madgan.MADGANDetector,),
        "vae": (lstm_vae.LSTMVAEDetector,),
        "hmm": (hmm.GaussianHMMDetector,),
    }
    stream_methods = (
        "scores_incremental",
        "predict_incremental",
        "begin_scores_incremental",
        "invert_cold",
        "finish_scores_incremental",
        "finish_predict_incremental",
    )
    for family, classes in detector_classes.items():
        for cls in classes:
            # The serving fabric queries the distance kNN once per tick, so
            # its offline calls are the sample monitor's streaming cost.
            score_bucket = "stream" if cls is knn.KNNDistanceDetector else "score"
            table.append((cls, "fit", f"detectors.{family}.fit_s", None, None))
            for name in ("scores", "predict", "decision_function"):
                if name in vars(cls):
                    table.append((cls, name, f"detectors.{family}.{score_bucket}_s", None, None))
            for name in stream_methods:
                if name in vars(cls):
                    table.append((cls, name, f"detectors.{family}.stream_s", None, None))

    for base, names, metric in (
        (transformers.Transformer, ("candidates_batch",), "attacks.expand_s"),
        (constraints.Constraint, ("project_batch", "satisfied_mask"), "attacks.project_s"),
    ):
        for cls in [base] + _subclasses(base):
            for name in names:
                if name in vars(cls):
                    table.append((cls, name, metric, None, None))
    return table


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class _Frame:
    """An open span: its id and the time its finished children took."""

    __slots__ = ("span_id", "child")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Wrap layer entry points, keep spans in memory, sum self times.

    ``stage`` is a free-form label the workload loop sets (setup, unit index,
    tick index); every span records the stage it started in.
    """

    def __init__(self):
        self.spans: List[Tuple[int, Optional[int], str, float, float, str]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.stage = "setup"
        self._stack: List[_Frame] = []
        self._ids = itertools.count()
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for owner, attribute, metric, count_metric, count_fn in layer_table():
            self._wrap(owner, attribute, metric, count_metric, count_fn)
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, owner, attribute: str, metric: str, count_metric, count_fn: Optional[Callable]):
        original = vars(owner)[attribute]
        function = original
        wrapper_type = None
        if isinstance(original, (staticmethod, classmethod)):
            wrapper_type = type(original)
            function = original.__func__
        stack = self._stack
        spans = self.spans
        self_time = self.self_time
        counts = self.counts
        ids = self._ids
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = _Frame(next(ids))
            parent = stack[-1].span_id if stack else None
            stack.append(frame)
            stage = tracer.stage
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1].child += duration
                self_time[metric] += duration - frame.child
                spans.append((frame.span_id, parent, metric, started, ended, stage))
                if count_metric is not None:
                    counts[count_metric] += count_fn(args, kwargs)

        setattr(owner, attribute, wrapper_type(traced) if wrapper_type else traced)
        self._restore.append((owner, attribute, original))

    def mark(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Copy of the running totals, for per-phase differences."""
        return dict(self.self_time), dict(self.counts)

    def since(self, mark) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self times and counts accumulated after ``mark``."""
        times, counts = mark
        return (
            {key: value - times.get(key, 0.0) for key, value in self.self_time.items()},
            {
                key: value - counts.get(key, 0)
                for key, value in self.counts.items()
                if value != counts.get(key, 0)
            },
        )

    def write(self, path) -> int:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, parent, metric, started, ended, stage in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": metric,
                            "start": started,
                            "end": ended,
                            "stage": stage,
                        }
                    )
                )
                handle.write("\n")
        return len(self.spans)
