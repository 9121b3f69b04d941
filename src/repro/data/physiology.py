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

:func:`simulate_lockstep` is the one kernel: it advances any number of
simulations (lanes) at once, one minute at a time, with each lane's state
held as one entry of ``(lanes,)`` vectors.  Each simulator's random draws
are taken ahead, in the order a minute-by-minute loop would take them (the
dawn phase, one sensitivity factor per day, the CGM drift/noise pairs, then
heart rate), and the endogenous production becomes a 1440-entry table per
lane.  Only IEEE elementwise operations (``+ - * /``, min/max) run across
lanes, so every lane's result is bitwise what simulating it alone gives.
:meth:`GlucoseInsulinSimulator.simulate` is the one-lane call and
:meth:`~repro.data.cohort.SyntheticOhioT1DM.generate` the whole-cohort call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.utils.rng import as_random_state
from repro.utils.validation import check_positive

#: Number of minutes between consecutive CGM samples (OhioT1DM cadence).
CGM_SAMPLE_MINUTES = 5

#: Physiological ceiling reported in the OhioT1DM dataset (mg/dL).
MAX_SENSOR_GLUCOSE = 499.0

#: Physiological floor for CGM sensors (mg/dL).
MIN_SENSOR_GLUCOSE = 20.0

#: Minutes the lockstep kernel gathers inputs for at a time.  It divides a
#: day, so a chunk has one sensitivity factor, and the CGM cadence, so each
#: chunk starts on a sample; it bounds the kernel's input buffers.
_CHUNK_MINUTES = 240

#: The sampled series of a :class:`SimulationResult`, in field order.
_SERIES = (
    "minutes", "cgm", "plasma_glucose", "plasma_insulin", "carbs", "bolus", "basal",
    "heart_rate", "exercise",
)


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

    def simulate(self, inputs: SimulationInputs) -> SimulationResult:
        """Run the minute-resolution simulation and sample it at CGM cadence.

        The one-lane call of :func:`simulate_lockstep`.
        """
        return simulate_lockstep([self], [inputs])[0]

    def _draw(self, total_minutes: int) -> "_Draws":
        """Take every random draw of one ``total_minutes`` simulation, in order."""
        params = self.parameters
        rng = self._rng
        n_samples = -(-total_minutes // CGM_SAMPLE_MINUTES)
        dawn_phase = float(rng.uniform(-0.3, 0.3))
        # Day-level insulin sensitivity variability, resampled each midnight.
        sensitivity = np.minimum(
            np.maximum(rng.normal(1.0, params.variability, size=-(-total_minutes // 1440)), 0.6),
            1.4,
        )
        # One (drift step, noise) pair per CGM sample, drawn interleaved.
        sensor = rng.normal(
            0.0,
            np.array([params.sensor_drift_std, params.sensor_noise_std]),
            size=(n_samples, 2),
        )
        heart_base = 62.0 + rng.normal(0.0, 3.0)
        heart_noise = rng.normal(0.0, 2.5, size=n_samples)
        return _Draws(dawn_phase, sensitivity, sensor, heart_base, heart_noise)


class _Draws(NamedTuple):
    """One simulation's random draws, taken ahead of the lockstep kernel."""

    dawn_phase: float
    #: ``(days,)`` clipped sensitivity factors, one per started day.
    sensitivity: np.ndarray
    #: ``(samples, 2)`` sensor drift step and noise per CGM sample.
    sensor: np.ndarray
    heart_base: float
    #: ``(samples,)`` heart-rate noise per CGM sample.
    heart_noise: np.ndarray


def simulate_lockstep(
    simulators: Sequence[GlucoseInsulinSimulator], inputs: Sequence[SimulationInputs]
) -> List[SimulationResult]:
    """Simulate lane ``i`` as ``simulators[i].simulate(inputs[i])``, all lanes at once.

    Each simulator takes its draws first, lane by lane (a simulator listed
    twice draws for its first lane first), so every generator ends where
    the one-lane calls in lane order leave it.  The Euler loop then runs
    once for every lane; lanes may have different lengths.  Returns one
    :class:`SimulationResult` per lane, bitwise equal to the one-lane call,
    with float64 series.

    Every lane's series are rows of one ``(series, lanes, samples)`` block,
    allocated before any scratch buffer, so the arrays that outlive the
    call sit together and the freed scratch leaves no holes between them.
    Allocating them lane by lane after the scratch moved where a process's
    later large arrays land, and how many transparent huge pages back them,
    enough to slow the ``paper`` benchmark's units by ~5%.
    """
    simulators = list(simulators)
    inputs = list(inputs)
    if len(simulators) != len(inputs):
        raise ValueError("simulate_lockstep needs one SimulationInputs per simulator")
    n_samples = [-(-lane_inputs.minutes // CGM_SAMPLE_MINUTES) for lane_inputs in inputs]
    n_max = max(n_samples, default=0)
    series = dict(zip(_SERIES, np.zeros((len(_SERIES), len(inputs), n_max))))
    draws = [
        simulator._draw(lane_inputs.minutes) for simulator, lane_inputs in zip(simulators, inputs)
    ]
    parameters = [simulator.parameters for simulator in simulators]
    _integrate(parameters, inputs, draws, series["plasma_glucose"], series["plasma_insulin"])

    drift_steps = np.zeros((n_max, len(inputs)))
    noise = np.zeros((2, len(inputs), n_max))  # CGM noise, heart-rate noise
    for lane, (lane_inputs, lane_draws, count) in enumerate(zip(inputs, draws, n_samples)):
        series["carbs"][lane, :count] = _sum_bins(lane_inputs.carbs, count)
        series["bolus"][lane, :count] = _sum_bins(lane_inputs.bolus, count)
        series["basal"][lane, :count] = lane_inputs.basal[::CGM_SAMPLE_MINUTES]
        series["exercise"][lane, :count] = lane_inputs.exercise[::CGM_SAMPLE_MINUTES]
        drift_steps[:count, lane] = lane_draws.sensor[:, 0]
        noise[0, lane, :count] = lane_draws.sensor[:, 1]
        noise[1, lane, :count] = lane_draws.heart_noise
    sample_minutes = np.arange(0, n_max * CGM_SAMPLE_MINUTES, CGM_SAMPLE_MINUTES)
    series["minutes"][:] = sample_minutes

    cgm = series["cgm"]
    np.add(series["plasma_glucose"], _sensor_drift(drift_steps).T, out=cgm)
    cgm += noise[0]
    np.maximum(cgm, MIN_SENSOR_GLUCOSE, out=cgm)
    np.minimum(cgm, MAX_SENSOR_GLUCOSE, out=cgm)
    # Derive a plausible heart-rate trace from exercise and circadian rhythm.
    heart_rate = series["heart_rate"]
    circadian = 8.0 * np.sin(2.0 * np.pi * (sample_minutes % 1440 - 300.0) / 1440.0)
    heart_base = np.array([lane_draws.heart_base for lane_draws in draws])
    np.add(heart_base[:, np.newaxis], circadian, out=heart_rate)
    heart_rate += 55.0 * series["exercise"]
    heart_rate += noise[1]
    np.maximum(heart_rate, 40.0, out=heart_rate)
    np.minimum(heart_rate, 190.0, out=heart_rate)
    return [
        SimulationResult(
            **{name: values[lane, :count] for name, values in series.items()},
            meta={"dawn_phase": lane_draws.dawn_phase},
        )
        for lane, (lane_draws, count) in enumerate(zip(draws, n_samples))
    ]


def _production_table(amplitude: float, dawn_phase: float, minutes: int) -> np.ndarray:
    """Circadian (dawn-phenomenon) endogenous glucose production in mg/dL/min.

    One entry per minute of the day (the first ``minutes`` of them):
    ``amplitude * max(0, sin(2π·m/1440 + phase)) ** 2``.  The square is
    libm ``pow`` on each float, as a scalar ``x ** 2`` computes it; it
    differs from ``x * x`` in the last bit for about one ``x`` in 1,400.
    """
    wave = np.sin(2.0 * np.pi * (np.arange(minutes) / 1440.0) + dawn_phase)
    square = np.zeros(minutes)
    rising = wave > 0.0
    square[rising] = [value**2 for value in wave[rising].tolist()]
    return amplitude * square


def _integrate(
    parameters: Sequence[PhysiologyParameters],
    inputs: Sequence[SimulationInputs],
    draws: Sequence[_Draws],
    glucose_samples: np.ndarray,
    insulin_samples: np.ndarray,
) -> None:
    """The Euler loop of every lane, writing the ``(lanes, samples)`` glucose and insulin.

    Minutes run in chunks of :data:`_CHUNK_MINUTES`.  Each chunk's inputs
    are gathered into ``(minutes, lanes)`` blocks of that chunk only, lanes
    that have ended are dropped, and a lane ending inside a chunk runs on
    zero inputs until the chunk's end; those samples are never read.  Per
    minute every update is one elementwise operation over the live lanes,
    in the scalar model's order of evaluation.
    """
    lengths = np.array([lane_inputs.minutes for lane_inputs in inputs], dtype=int)
    total = int(lengths.max(initial=0))
    n_lanes = len(inputs)
    if total == 0:
        return

    def column(name: str) -> np.ndarray:
        return np.array([getattr(params, name) for params in parameters], dtype=np.float64)

    clearance = column("insulin_clearance")
    action_decay = column("insulin_action_decay")
    basal_concentration = column("basal_insulin_rate") / 60.0 / clearance
    constants = np.stack(
        [
            column("carb_bioavailability"),
            column("gut_absorption_rate"),
            -clearance,
            -action_decay,
            action_decay * column("insulin_potency"),
            column("insulin_sensitivity"),
            column("glucose_effectiveness"),
            column("basal_glucose"),
            column("distribution_volume"),
            basal_concentration,
        ]
    )
    # gut compartments 1 and 2, plasma insulin, remote insulin, glucose
    state = np.stack(
        [
            np.zeros(n_lanes),
            np.zeros(n_lanes),
            basal_concentration,
            np.zeros(n_lanes),
            column("basal_glucose"),
        ]
    )
    production = np.empty((min(total, 1440), n_lanes))
    for lane, (params, lane_draws) in enumerate(zip(parameters, draws)):
        production[:, lane] = _production_table(
            params.dawn_amplitude, lane_draws.dawn_phase, len(production)
        )
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    maximum, minimum = np.maximum, np.minimum
    lanes = np.arange(n_lanes)
    for start in range(0, total, _CHUNK_MINUTES):
        live = lengths[lanes] > start
        if not live.all():
            lanes, constants, state = lanes[live], constants[:, live], state[:, live]
            production = production[:, live]
        stop = min(start + _CHUNK_MINUTES, total)
        width = stop - start
        block = np.zeros((4, width, len(lanes)))
        for position, lane in enumerate(lanes):
            lane_inputs = inputs[lane]
            end = min(stop, lane_inputs.minutes)
            for row, values in enumerate(
                (lane_inputs.carbs, lane_inputs.bolus, lane_inputs.basal, lane_inputs.exercise)
            ):
                block[row, : end - start, position] = values[start:end]
        carbs, bolus, basal, exercise = block
        (
            bioavailability, absorption, neg_clearance, neg_decay, coupling,
            sensitivity, effectiveness, basal_glucose, volume, concentration,
        ) = constants
        day_sensitivity = np.array([draws[lane].sensitivity[start // 1440] for lane in lanes])
        day_minute = start % 1440
        meal_inputs = carbs * 1000.0 * bioavailability
        insulin_inputs = basal / 60.0 + bolus
        couplings = coupling * (sensitivity * day_sensitivity * (1.0 + 0.5 * exercise))
        exercise_uptakes = 0.5 * exercise
        gut_1, gut_2, plasma, remote, glucose = state
        absorbed, appearance, scratch, update = np.empty((4, len(lanes)))
        # Clamp bounds as arrays: a scalar bound costs a conversion every call.
        floor, low, high = (np.full(len(lanes), bound) for bound in (0.0, 30.0, 600.0))
        recorded = np.empty((2, -(-width // CGM_SAMPLE_MINUTES), len(lanes)))
        for minute, (meal, insulin_input, coupling_now, exercise_uptake, produced) in enumerate(
            zip(meal_inputs, insulin_inputs, couplings, exercise_uptakes, production[day_minute:])
        ):
            # Gut absorption: two linear compartments.
            gut_1 += meal
            multiply(absorption, gut_1, out=absorbed)
            gut_1 -= absorbed
            gut_2 += absorbed
            multiply(absorption, gut_2, out=appearance)
            gut_2 -= appearance
            # Insulin kinetics: basal + bolus impulse, first-order clearance.
            multiply(neg_clearance, plasma, out=update)
            update += insulin_input
            plasma += update
            maximum(plasma, floor, out=plasma)
            # Remote insulin action.
            subtract(plasma, concentration, out=scratch)
            scratch *= coupling_now
            multiply(neg_decay, remote, out=update)
            update += scratch
            remote += update
            # Glucose: production - uptake - insulin effect + meal - exercise.
            subtract(glucose, basal_glucose, out=scratch)
            scratch *= effectiveness
            subtract(produced, scratch, out=update)
            multiply(remote, glucose, out=scratch)
            update -= scratch
            divide(appearance, volume, out=scratch)
            update += scratch
            update -= exercise_uptake
            glucose += update
            maximum(glucose, low, out=glucose)
            minimum(glucose, high, out=glucose)
            if minute % CGM_SAMPLE_MINUTES == 0:
                recorded[0, minute // CGM_SAMPLE_MINUTES] = glucose
                recorded[1, minute // CGM_SAMPLE_MINUTES] = plasma
        first = start // CGM_SAMPLE_MINUTES
        window = slice(first, first + recorded.shape[1])
        glucose_samples[lanes, window] = recorded[0].T
        insulin_samples[lanes, window] = recorded[1].T


def _sensor_drift(steps: np.ndarray) -> np.ndarray:
    """Slow CGM sensor drift, a damped random walk per lane, from ``(samples, lanes)`` steps.

    Overwrites ``steps`` with the drift after each step and returns it.
    """
    drift = np.zeros(steps.shape[1])
    for step in steps:
        drift += step
        drift *= 0.98
        step[:] = drift
    return steps


def _sum_bins(values: np.ndarray, n_samples: int) -> np.ndarray:
    """Aggregate minute-level impulses into per-sample bins.

    Bin ``i`` is ``values[5i:5i+5].sum()``; numpy adds fewer than eight
    elements left to right from 0.0, and so does this, one bin column at a
    time (the zeros padding a short last bin change no sum).
    """
    padded = np.zeros(n_samples * CGM_SAMPLE_MINUTES)
    padded[: len(values)] = values
    total = np.zeros(n_samples)
    for column in padded.reshape(n_samples, CGM_SAMPLE_MINUTES).T:
        total += column
    return total

