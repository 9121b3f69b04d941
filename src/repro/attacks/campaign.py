"""Attack campaigns: run the evasion attack across patients and splits.

A campaign attacks (a subsample of) every eligible window of a patient trace
and collects per-window :class:`~repro.attacks.uret.AttackResult` objects.
Campaign results feed three downstream consumers:

* attack success-rate figures (paper Appendix A, Figures 9 and 10),
* the risk profiling framework (step 1: attack simulation), and
* labeled benign/malicious window sets for training and evaluating the
  anomaly detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.uret import AttackResult, EvasionAttack
from repro.data.cohort import Cohort, PatientRecord
from repro.data.dataset import ForecastingDataset
from repro.glucose.models import GlucoseModelZoo
from repro.glucose.states import GlucoseState, scenario_for_samples


@dataclass
class WindowAttackRecord:
    """An attack result annotated with its provenance inside the trace."""

    patient_label: str
    split: str
    window_index: int
    target_index: int
    result: AttackResult


@dataclass
class CampaignSummary:
    """Aggregate statistics of one campaign run for one patient/split."""

    patient_label: str
    split: str
    n_windows: int
    n_eligible: int
    n_success: int
    success_rate: float
    normal_to_hyper_rate: float
    hypo_to_hyper_rate: float
    n_normal_eligible: int
    n_hypo_eligible: int
    mean_queries: float


@dataclass
class CampaignResult:
    """All attack records of a campaign plus per-patient summaries."""

    records: List[WindowAttackRecord] = field(default_factory=list)

    def for_patient(self, patient_label: str) -> List[WindowAttackRecord]:
        return [record for record in self.records if record.patient_label == patient_label]

    @property
    def patient_labels(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.patient_label not in seen:
                seen.append(record.patient_label)
        return seen

    def summary(self, patient_label: str) -> CampaignSummary:
        """Success-rate summary for one patient."""
        records = self.for_patient(patient_label)
        if not records:
            raise KeyError(f"no campaign records for patient {patient_label!r}")
        results = [record.result for record in records]
        eligible = [result for result in results if result.eligible]
        successes = [result for result in eligible if result.success]

        normal_eligible = [r for r in eligible if r.benign_state == GlucoseState.NORMAL]
        hypo_eligible = [r for r in eligible if r.benign_state == GlucoseState.HYPO]
        normal_success = [r for r in normal_eligible if r.success]
        hypo_success = [r for r in hypo_eligible if r.success]

        def rate(successes_list, eligible_list) -> float:
            return len(successes_list) / len(eligible_list) if eligible_list else float("nan")

        return CampaignSummary(
            patient_label=patient_label,
            split=records[0].split,
            n_windows=len(results),
            n_eligible=len(eligible),
            n_success=len(successes),
            success_rate=rate(successes, eligible),
            normal_to_hyper_rate=rate(normal_success, normal_eligible),
            hypo_to_hyper_rate=rate(hypo_success, hypo_eligible),
            n_normal_eligible=len(normal_eligible),
            n_hypo_eligible=len(hypo_eligible),
            mean_queries=float(np.mean([result.queries for result in results])) if results else 0.0,
        )

    def summaries(self) -> Dict[str, CampaignSummary]:
        return {label: self.summary(label) for label in self.patient_labels}

    # --------------------------------------------------------- detector datasets
    def _dataset_rows(
        self, patient_labels: Optional[Sequence[str]], include_failed: bool
    ) -> Iterator[Tuple[np.ndarray, int, str]]:
        """``(window, label, patient)`` per dataset row, in record order.

        Each selected record gives its benign window (label 0), then its
        adversarial window (label 1) when the attack was eligible and
        succeeded, or failed with ``include_failed``.
        """
        if patient_labels is None:
            patient_labels = self.patient_labels
        for record in self.records:
            if record.patient_label not in patient_labels:
                continue
            result = record.result
            yield result.benign_window, 0, record.patient_label
            if result.eligible and (result.success or include_failed):
                yield result.adversarial_window, 1, record.patient_label

    def detection_dataset(
        self,
        patient_labels: Optional[Sequence[str]] = None,
        include_failed: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Assemble a labeled window dataset for anomaly detectors.

        Returns
        -------
        windows:
            Array ``(n, history, features)`` of benign and adversarial windows.
        labels:
            1 for adversarial (manipulated) windows, 0 for benign windows.
        provenance:
            Patient label per window.
        """
        rows = list(self._dataset_rows(patient_labels, include_failed))
        if not rows:
            return np.empty((0, 0, 0)), np.empty((0,), dtype=int), []
        windows, labels, provenance = zip(*rows)
        return np.stack(windows), np.asarray(labels, dtype=int), list(provenance)

    def sample_dataset(
        self,
        patient_labels: Optional[Sequence[str]] = None,
        include_failed: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Assemble a labeled per-sample dataset for point anomaly detectors.

        The paper's kNN and OneClassSVM detectors inspect individual glucose
        measurements (the sample transmitted at time ``t``) rather than whole
        windows; this view exposes the final row of each benign window as a
        benign sample and the final row of each (successful) adversarial
        window as a malicious sample.

        Returns
        -------
        samples:
            Array ``(n, 1, features)`` — single-timestep windows, so the same
            detector interface applies to both views.
        labels:
            1 for manipulated measurements, 0 for benign measurements.
        provenance:
            Patient label per sample.
        """
        rows = list(self._dataset_rows(patient_labels, include_failed))
        if not rows:
            return np.empty((0, 1, 0)), np.empty((0,), dtype=int), []
        windows, labels, provenance = zip(*rows)
        samples = [window[-1:] for window in windows]
        return np.stack(samples), np.asarray(labels, dtype=int), list(provenance)

    def dataset_size(
        self, patient_labels: Optional[Sequence[str]] = None, include_failed: bool = False
    ) -> int:
        """Rows of :meth:`detection_dataset` (and :meth:`sample_dataset`), counted
        from the records without building either."""
        return sum(1 for _ in self._dataset_rows(patient_labels, include_failed))


class AttackCampaign:
    """Run the evasion attack over patient traces.

    Parameters
    ----------
    zoo:
        Trained model zoo; each patient is attacked through the model the
        deployment would use for them (personalized if available, otherwise
        the aggregate model).
    dataset:
        Windowing configuration (must match the zoo's).
    stride:
        Attack every ``stride``-th window of the trace (1 = every window).
    attack_factory:
        Callable building an :class:`EvasionAttack` from a predictor; lets the
        caller swap explorers or transformation sets.
    obs:
        Optional :class:`~repro.obs.Observer`.  Each run folds its record
        totals into ``campaign.windows_attacked_total`` (labeled eligible /
        success) and ``campaign.model_queries_total`` — per-record event
        counts, so the series are the same whether windows are attacked per
        patient or cohort-merged.  None (the default) records nothing.

    Every run goes through :meth:`EvasionAttack.attack_batch`: a single model
    call screens every window for eligibility and the explorer advances all
    windows in lockstep.  :meth:`run_cohort` further merges the windows of
    every patient sharing a target model into one search, and
    :meth:`run_patient` is its per-patient reference.
    """

    def __init__(
        self,
        zoo: GlucoseModelZoo,
        dataset: Optional[ForecastingDataset] = None,
        stride: int = 1,
        attack_factory=None,
        obs=None,
    ):
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.zoo = zoo
        self.dataset = dataset or zoo.dataset
        self.stride = int(stride)
        self.attack_factory = attack_factory or (lambda predictor: EvasionAttack(predictor))
        self.obs = obs

    def _emit_records(self, records: Sequence[WindowAttackRecord]) -> None:
        """Fold one run's per-window outcomes into the campaign counters."""
        if self.obs is None:
            return
        registry = self.obs.registry
        for record in records:
            result = record.result
            registry.inc(
                "campaign.windows_attacked_total",
                eligible="yes" if result.eligible else "no",
                success="yes" if result.success else "no",
            )
            registry.inc("campaign.model_queries_total", int(result.queries))

    def _prepare_patient(self, record: PatientRecord, split: str):
        """Strided windows + scenarios for one patient, or None if the trace is empty."""
        windows, _, target_indices = self.dataset.from_record(record, split)
        if len(windows) == 0:
            return None
        carbs = record.features(split)[:, 2]
        scenarios = scenario_for_samples(carbs)
        window_indices = list(range(0, len(windows), self.stride))
        window_scenarios = [scenarios[target_indices[index]] for index in window_indices]
        return windows[window_indices], window_indices, target_indices, window_scenarios

    def _records_for(
        self,
        record: PatientRecord,
        split: str,
        window_indices: Sequence[int],
        target_indices: Sequence[int],
        attack_results,
    ) -> List[WindowAttackRecord]:
        return [
            WindowAttackRecord(
                patient_label=record.label,
                split=split,
                window_index=window_index,
                target_index=target_indices[window_index],
                result=attack_result,
            )
            for window_index, attack_result in zip(window_indices, attack_results)
        ]

    def run_patient(self, record: PatientRecord, split: str = "test") -> CampaignResult:
        """Attack one patient's trace."""
        result = CampaignResult()
        prepared = self._prepare_patient(record, split)
        if prepared is None:
            return result
        windows, window_indices, target_indices, window_scenarios = prepared
        attack = self.attack_factory(self.zoo.model_for(record.label))
        attack_results = attack.attack_batch(windows, window_scenarios)
        result.records.extend(
            self._records_for(record, split, window_indices, target_indices, attack_results)
        )
        self._emit_records(result.records)
        return result

    def run_cohort(self, cohort: Cohort, split: str = "test") -> CampaignResult:
        """Attack every patient in a cohort and merge the records.

        Patients that share a target model are attacked through ONE merged
        lockstep search: a single eligibility screen covers every patient's
        windows and each search depth issues one model query for the whole
        group, instead of one batch per patient.  Sharing is decided by
        :meth:`GlucosePredictor.state_hash` — weights plus scaler, not object
        identity — so separately loaded copies of one checkpoint also merge.
        Records keep per-patient attribution and are ordered exactly as the
        per-patient loop would order them (cohort order, then trace order).
        With deterministic explorers (greedy, beam) the records equal a
        :meth:`run_patient` loop's record for record; stochastic explorers
        allocate their RNG stream across the merged batch (still
        reproducible for a fixed seed).
        """
        prepared_by_label: Dict[str, tuple] = {}
        groups: Dict[str, List[PatientRecord]] = {}
        predictors: Dict[str, object] = {}
        # state_hash digests every weight tensor; hash each distinct object
        # once per run (the zoo keeps predictors alive, so ids are stable).
        hash_by_id: Dict[int, str] = {}
        for record in cohort:
            prepared = self._prepare_patient(record, split)
            if prepared is None:
                continue
            predictor = self.zoo.model_for(record.label)
            key = hash_by_id.get(id(predictor))
            if key is None:
                key = hash_by_id[id(predictor)] = predictor.state_hash()
            prepared_by_label[record.label] = prepared
            predictors[key] = predictor
            groups.setdefault(key, []).append(record)

        records_by_label: Dict[str, List[WindowAttackRecord]] = {}
        for key, group in groups.items():
            merged_windows = np.concatenate(
                [prepared_by_label[record.label][0] for record in group]
            )
            merged_scenarios = [
                scenario
                for record in group
                for scenario in prepared_by_label[record.label][3]
            ]
            attack = self.attack_factory(predictors[key])
            attack_results = attack.attack_batch(merged_windows, merged_scenarios)
            offset = 0
            for record in group:
                _, window_indices, target_indices, _ = prepared_by_label[record.label]
                count = len(window_indices)
                records_by_label[record.label] = self._records_for(
                    record,
                    split,
                    window_indices,
                    target_indices,
                    attack_results[offset : offset + count],
                )
                offset += count

        merged = CampaignResult()
        for record in cohort:  # preserve the per-patient record ordering
            merged.records.extend(records_by_label.get(record.label, []))
        self._emit_records(merged.records)
        return merged
