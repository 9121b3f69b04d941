"""Personalized and aggregate glucose prediction models.

Rubin-Falcone et al. (the paper's target model) train two kinds of
forecasters:

* a *personalized* model per patient, fit only on that patient's data, and
* an *aggregate* model fit on the pooled data of all patients.

The paper's attack simulation (its Appendix A, Figures 9 and 10) evaluates
the evasion attack against both kinds.  :class:`GlucoseModelZoo` manages this
collection for a cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.data.cohort import Cohort
from repro.data.dataset import ForecastingDataset
from repro.glucose.predictor import GlucosePredictor
from repro.utils.rng import as_random_state
from repro.utils.workers import map_in_workers

#: Key under which the aggregate (all-patients) model is stored.
AGGREGATE_KEY = "all_patients"


@dataclass
class ZooEvaluation:
    """Held-out accuracy of every model in the zoo."""

    rmse: Dict[str, float] = field(default_factory=dict)
    mae: Dict[str, float] = field(default_factory=dict)


class GlucoseModelZoo:
    """Train and serve personalized + aggregate glucose forecasters.

    Parameters
    ----------
    dataset:
        Windowing configuration shared by every model.
    predictor_kwargs:
        Keyword arguments forwarded to each :class:`GlucosePredictor`.
    train_personalized:
        When False only the aggregate model is trained (cheaper; useful for
        quick experiments and tests).
    seed:
        Root seed; each model derives an independent stream.
    """

    def __init__(
        self,
        dataset: Optional[ForecastingDataset] = None,
        predictor_kwargs: Optional[dict] = None,
        train_personalized: bool = True,
        seed=0,
    ):
        self.dataset = dataset or ForecastingDataset()
        self.predictor_kwargs = dict(predictor_kwargs or {})
        self.train_personalized = bool(train_personalized)
        self._rng = as_random_state(seed)
        self.models: Dict[str, GlucosePredictor] = {}

    # ------------------------------------------------------------------ training
    def _new_predictor(self, tag: str) -> GlucosePredictor:
        kwargs = dict(self.predictor_kwargs)
        kwargs.setdefault("history", self.dataset.history)
        kwargs.setdefault("horizon", self.dataset.horizon)
        kwargs["seed"] = self._rng.derive(tag)
        return GlucosePredictor(**kwargs)

    def fit(self, cohort: Cohort) -> "GlucoseModelZoo":
        """Train the aggregate model and (optionally) one model per patient.

        Every predictor is created here, in the caller, in a fixed order
        (aggregate, then cohort order), so each draws its seed from the
        zoo's stream exactly as a sequential fit would.  The fits share
        nothing and run through :func:`~repro.utils.workers.map_in_workers`
        with their window counts as costs; each comes back fitted with its
        own RNG state.  The new models replace the old ones only once every
        fit has succeeded, so a refit on a smaller cohort drops the models
        of patients that left it, and a failed fit leaves the zoo as it was.
        """
        windows, targets, _ = self.dataset.from_cohort(cohort, split="train")
        if len(windows) == 0:
            raise ValueError("cohort produced no training windows")
        jobs = {AGGREGATE_KEY: (self._new_predictor(AGGREGATE_KEY), None)}
        costs = [len(windows)]
        if self.train_personalized:
            for record in cohort:
                count = self.dataset.window_count(len(record.cgm("train")))
                if count:
                    jobs[record.label] = (self._new_predictor(record.label), record)
                    costs.append(count)

        def fit_one(job) -> GlucosePredictor:
            # A patient's windows are built where its model is fitted, so no
            # process holds every patient's windows at once.
            predictor, record = job
            if record is None:
                return predictor.fit(windows, targets)
            patient_windows, patient_targets, _ = self.dataset.from_record(record, "train")
            return predictor.fit(patient_windows, patient_targets)

        self.models = dict(zip(jobs, map_in_workers(fit_one, list(jobs.values()), costs)))
        return self

    # ----------------------------------------------------------------- retrieval
    @property
    def aggregate(self) -> GlucosePredictor:
        """The all-patients aggregate model."""
        if AGGREGATE_KEY not in self.models:
            raise RuntimeError("the zoo has not been fitted")
        return self.models[AGGREGATE_KEY]

    def model_for(self, patient_label: str) -> GlucosePredictor:
        """The personalized model for a patient, falling back to the aggregate."""
        if patient_label in self.models:
            return self.models[patient_label]
        return self.aggregate

    def available_models(self) -> List[str]:
        return sorted(self.models)

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, cohort: Cohort, split: str = "test") -> ZooEvaluation:
        """Evaluate every model on its own patient's held-out data."""
        evaluation = ZooEvaluation()
        for record in cohort:
            windows, targets, _ = self.dataset.from_record(record, split)
            if len(windows) == 0:
                continue
            model = self.model_for(record.label)
            metrics = model.evaluate(windows, targets)
            evaluation.rmse[record.label] = metrics["rmse"]
            evaluation.mae[record.label] = metrics["mae"]
        aggregate_windows, aggregate_targets, _ = self.dataset.from_cohort(cohort, split)
        if len(aggregate_windows):
            metrics = self.aggregate.evaluate(aggregate_windows, aggregate_targets)
            evaluation.rmse[AGGREGATE_KEY] = metrics["rmse"]
            evaluation.mae[AGGREGATE_KEY] = metrics["mae"]
        return evaluation
