"""Glucose–insulin physiology simulator.

This module provides the data substrate that replaces the (licensed, not
redistributable) OhioT1DM dataset.  It implements an extended Bergman minimal
model of glucose–insulin dynamics for a Type-1 diabetes patient:

* plasma glucose ``G`` with endogenous production and insulin-dependent uptake,
* remote insulin action ``X``,
* plasma insulin ``I`` driven by basal and bolus delivery,
* two-compartment gut absorption of carbohydrate meals,
* a circadian modulation of insulin sensitivity (dawn phenomenon),
* exercise-induced sensitivity boosts, and
* CGM sensor noise and drift.

The model is integrated with a fixed-step Euler scheme at one-minute
resolution and sampled every five minutes to mimic CGM cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, as_random_state
from repro.utils.validation import check_positive

#: Number of minutes between consecutive CGM samples (OhioT1DM cadence).
CGM_SAMPLE_MINUTES = 5

#: Physiological ceiling reported in the OhioT1DM dataset (mg/dL).
MAX_SENSOR_GLUCOSE = 499.0

#: Physiological floor for CGM sensors (mg/dL).
MIN_SENSOR_GLUCOSE = 20.0


@dataclass
class PhysiologyParameters:
    """Parameters of the extended Bergman minimal model for one patient.

    Attributes
    ----------
    basal_glucose:
        Steady-state plasma glucose in mg/dL in the absence of meals.
    insulin_sensitivity:
        Scale on the insulin-dependent glucose uptake (``p3`` pathway); larger
        values mean insulin lowers glucose faster.
    glucose_effectiveness:
        ``p1`` — insulin-independent glucose clearance rate (1/min).
    insulin_action_decay:
        ``p2`` — decay rate of remote insulin action (1/min).
    insulin_clearance:
        ``n`` — plasma insulin clearance rate (1/min).
    insulin_potency:
        Conversion from excess plasma insulin to remote insulin action; together
        with ``insulin_sensitivity`` this sets how far one unit of insulin
        lowers glucose (roughly the clinical correction factor).
    carb_bioavailability:
        Fraction of ingested carbohydrate reaching plasma.
    gut_absorption_rate:
        Rate constant of gut-to-plasma glucose absorption (1/min).
    distribution_volume:
        Glucose distribution volume (dL) used to convert absorbed carbs to a
        concentration increment.
    basal_insulin_rate:
        Steady-state basal insulin infusion (units/hour).
    dawn_amplitude:
        Amplitude of the circadian increase of glucose production (mg/dL/min).
    sensor_noise_std:
        Standard deviation of additive CGM noise (mg/dL).
    sensor_drift_std:
        Standard deviation of the slow sensor drift random walk.
    variability:
        Day-to-day multiplicative variability of insulin sensitivity.
    """

    basal_glucose: float = 120.0
    insulin_sensitivity: float = 1.0
    glucose_effectiveness: float = 0.01
    insulin_action_decay: float = 0.02
    insulin_clearance: float = 0.03
    insulin_potency: float = 0.009
    carb_bioavailability: float = 0.8
    gut_absorption_rate: float = 0.03
    distribution_volume: float = 160.0
    basal_insulin_rate: float = 1.0
    dawn_amplitude: float = 0.25
    sensor_noise_std: float = 4.0
    sensor_drift_std: float = 0.4
    variability: float = 0.08

    def validate(self) -> "PhysiologyParameters":
        """Raise ``ValueError`` for non-physiological parameter values."""
        check_positive(self.basal_glucose, "basal_glucose")
        check_positive(self.insulin_sensitivity, "insulin_sensitivity")
        check_positive(self.glucose_effectiveness, "glucose_effectiveness")
        check_positive(self.insulin_action_decay, "insulin_action_decay")
        check_positive(self.insulin_clearance, "insulin_clearance")
        check_positive(self.insulin_potency, "insulin_potency")
        check_positive(self.distribution_volume, "distribution_volume")
        check_positive(self.gut_absorption_rate, "gut_absorption_rate")
        if not 0.0 < self.carb_bioavailability <= 1.0:
            raise ValueError("carb_bioavailability must be in (0, 1]")
        if self.sensor_noise_std < 0 or self.sensor_drift_std < 0:
            raise ValueError("sensor noise parameters must be non-negative")
        return self


@dataclass
class SimulationInputs:
    """Minute-resolution exogenous inputs driving a simulation.

    All arrays share the same length ``T`` (total minutes simulated).

    Attributes
    ----------
    carbs:
        Grams of carbohydrate ingested at each minute (impulse per meal).
    bolus:
        Bolus insulin delivered at each minute (units, impulse).
    basal:
        Basal insulin rate at each minute (units/hour).
    exercise:
        Exercise intensity in [0, 1] at each minute.
    """

    carbs: np.ndarray
    bolus: np.ndarray
    basal: np.ndarray
    exercise: np.ndarray

    def __post_init__(self):
        lengths = {len(self.carbs), len(self.bolus), len(self.basal), len(self.exercise)}
        if len(lengths) != 1:
            raise ValueError(f"all input arrays must share a length, got {sorted(lengths)}")

    @property
    def minutes(self) -> int:
        return len(self.carbs)


@dataclass
class SimulationResult:
    """Output of a physiological simulation sampled at CGM cadence."""

    minutes: np.ndarray
    cgm: np.ndarray
    plasma_glucose: np.ndarray
    plasma_insulin: np.ndarray
    carbs: np.ndarray
    bolus: np.ndarray
    basal: np.ndarray
    heart_rate: np.ndarray
    exercise: np.ndarray
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.cgm)


class GlucoseInsulinSimulator:
    """Simulate CGM traces for a Type-1 diabetes patient.

    Parameters
    ----------
    parameters:
        Physiological parameters for the simulated patient.
    seed:
        Seed (or :class:`RandomState`) controlling sensor noise, circadian
        phase jitter, and day-to-day variability.
    """

    def __init__(self, parameters: PhysiologyParameters, seed=None):
        self.parameters = parameters.validate()
        self._rng = as_random_state(seed)

    # ------------------------------------------------------------------ dynamics
    def _endogenous_production(self, minute_of_day: float, dawn_phase: float) -> float:
        """Circadian (dawn-phenomenon) endogenous glucose production in mg/dL/min."""
        params = self.parameters
        angle = 2.0 * np.pi * (minute_of_day / 1440.0) + dawn_phase
        return params.dawn_amplitude * max(0.0, np.sin(angle)) ** 2

    def simulate(self, inputs: SimulationInputs) -> SimulationResult:
        """Run the minute-resolution simulation and sample it at CGM cadence."""
        params = self.parameters
        rng = self._rng
        total_minutes = inputs.minutes

        basal_insulin_concentration = (
            params.basal_insulin_rate / 60.0 / params.insulin_clearance
        )

        glucose = params.basal_glucose
        remote_insulin = 0.0
        plasma_insulin = basal_insulin_concentration
        gut_compartment_1 = 0.0
        gut_compartment_2 = 0.0
        sensor_drift = 0.0
        dawn_phase = float(rng.uniform(-0.3, 0.3))
        sensitivity_factor = 1.0

        glucose_trace = np.empty(total_minutes)
        insulin_trace = np.empty(total_minutes)

        for minute in range(total_minutes):
            minute_of_day = minute % 1440
            if minute_of_day == 0:
                # Resample day-level insulin sensitivity variability each midnight.
                sensitivity_factor = float(
                    min(max(rng.normal(1.0, params.variability), 0.6), 1.4)
                )

            carbs_in = inputs.carbs[minute]
            bolus_in = inputs.bolus[minute]
            basal_rate = inputs.basal[minute]
            exercise_level = inputs.exercise[minute]

            # Gut absorption: two linear compartments.
            gut_compartment_1 += carbs_in * 1000.0 * params.carb_bioavailability
            absorbed_1 = params.gut_absorption_rate * gut_compartment_1
            gut_compartment_1 -= absorbed_1
            gut_compartment_2 += absorbed_1
            rate_of_appearance = params.gut_absorption_rate * gut_compartment_2
            gut_compartment_2 -= rate_of_appearance

            # Insulin kinetics: basal + bolus impulse, first-order clearance.
            insulin_input = basal_rate / 60.0 + bolus_in
            plasma_insulin += (
                -params.insulin_clearance * (plasma_insulin - 0.0) + insulin_input
            )
            plasma_insulin = max(plasma_insulin, 0.0)

            # Remote insulin action.
            effective_sensitivity = (
                params.insulin_sensitivity * sensitivity_factor * (1.0 + 0.5 * exercise_level)
            )
            remote_insulin += (
                -params.insulin_action_decay * remote_insulin
                + params.insulin_action_decay
                * params.insulin_potency
                * effective_sensitivity
                * (plasma_insulin - basal_insulin_concentration)
            )

            # Glucose dynamics.
            production = self._endogenous_production(minute_of_day, dawn_phase)
            uptake = params.glucose_effectiveness * (glucose - params.basal_glucose)
            insulin_effect = remote_insulin * glucose
            meal_effect = rate_of_appearance / params.distribution_volume
            exercise_uptake = 0.5 * exercise_level
            glucose += production - uptake - insulin_effect + meal_effect - exercise_uptake
            glucose = float(min(max(glucose, 30.0), 600.0))

            glucose_trace[minute] = glucose
            insulin_trace[minute] = plasma_insulin

        # Sample at CGM cadence and add sensor noise / drift.
        sample_indices = np.arange(0, total_minutes, CGM_SAMPLE_MINUTES)
        cgm = np.empty(len(sample_indices))
        for position, index in enumerate(sample_indices):
            sensor_drift += rng.normal(0.0, params.sensor_drift_std)
            sensor_drift *= 0.98
            noise = rng.normal(0.0, params.sensor_noise_std)
            cgm[position] = min(
                max(glucose_trace[index] + sensor_drift + noise, MIN_SENSOR_GLUCOSE),
                MAX_SENSOR_GLUCOSE,
            )

        heart_rate = self._heart_rate(inputs, sample_indices)
        carbs_sampled = _sum_bins(inputs.carbs, sample_indices, CGM_SAMPLE_MINUTES)
        bolus_sampled = _sum_bins(inputs.bolus, sample_indices, CGM_SAMPLE_MINUTES)
        basal_sampled = inputs.basal[sample_indices]
        exercise_sampled = inputs.exercise[sample_indices]

        return SimulationResult(
            minutes=sample_indices.astype(np.float64),
            cgm=cgm,
            plasma_glucose=glucose_trace[sample_indices],
            plasma_insulin=insulin_trace[sample_indices],
            carbs=carbs_sampled,
            bolus=bolus_sampled,
            basal=basal_sampled,
            heart_rate=heart_rate,
            exercise=exercise_sampled,
            meta={"dawn_phase": dawn_phase},
        )

    def _heart_rate(self, inputs: SimulationInputs, sample_indices: np.ndarray) -> np.ndarray:
        """Derive a plausible heart-rate trace from exercise and circadian rhythm."""
        rng = self._rng
        base = 62.0 + rng.normal(0.0, 3.0)
        heart_rate = np.empty(len(sample_indices))
        for position, index in enumerate(sample_indices):
            minute_of_day = index % 1440
            circadian = 8.0 * np.sin(2.0 * np.pi * (minute_of_day - 300.0) / 1440.0)
            exercise_component = 55.0 * inputs.exercise[index]
            noise = rng.normal(0.0, 2.5)
            heart_rate[position] = min(max(base + circadian + exercise_component + noise, 40), 190)
        return heart_rate


def _sum_bins(values: np.ndarray, sample_indices: np.ndarray, width: int) -> np.ndarray:
    """Aggregate minute-level impulses into per-sample bins."""
    result = np.zeros(len(sample_indices))
    for position, index in enumerate(sample_indices):
        result[position] = values[index : index + width].sum()
    return result


def steady_state_glucose(parameters: PhysiologyParameters) -> float:
    """Return the no-meal steady-state glucose implied by the parameters."""
    return parameters.basal_glucose
