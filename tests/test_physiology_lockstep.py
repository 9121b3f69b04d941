"""The lockstep physiology kernel against a per-simulation reference loop.

``reference_simulate`` is the minute-by-minute scalar simulator the kernel
replaced, kept here verbatim as the oracle: one Python loop per simulation,
drawing from the simulator's RNG as it goes.  The properties compare every
:class:`SimulationResult` field byte for byte, the ``meta`` dict, and each
simulator's RNG state after the call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    CGM_SAMPLE_MINUTES,
    MAX_SENSOR_GLUCOSE,
    MIN_SENSOR_GLUCOSE,
    GlucoseInsulinSimulator,
    PhysiologyParameters,
    SimulationInputs,
    SimulationResult,
    SyntheticOhioT1DM,
    build_cohort_profiles,
)
from repro.data.cohort import PatientRecord
from repro.data.events import DailyScheduleGenerator
from repro.data.physiology import simulate_lockstep
from repro.utils.rng import RandomState

RESULT_FIELDS = (
    "minutes", "cgm", "plasma_glucose", "plasma_insulin", "carbs", "bolus", "basal",
    "heart_rate", "exercise",
)
PROFILES = build_cohort_profiles()


# ------------------------------------------------------------ reference loop
def reference_simulate(simulator: GlucoseInsulinSimulator, inputs: SimulationInputs):
    """One simulation as a scalar per-minute loop (the kernel's oracle)."""
    params = simulator.parameters
    rng = simulator._rng
    total_minutes = inputs.minutes

    basal_insulin_concentration = params.basal_insulin_rate / 60.0 / params.insulin_clearance

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
            sensitivity_factor = float(min(max(rng.normal(1.0, params.variability), 0.6), 1.4))

        carbs_in = inputs.carbs[minute]
        bolus_in = inputs.bolus[minute]
        basal_rate = inputs.basal[minute]
        exercise_level = inputs.exercise[minute]

        gut_compartment_1 += carbs_in * 1000.0 * params.carb_bioavailability
        absorbed_1 = params.gut_absorption_rate * gut_compartment_1
        gut_compartment_1 -= absorbed_1
        gut_compartment_2 += absorbed_1
        rate_of_appearance = params.gut_absorption_rate * gut_compartment_2
        gut_compartment_2 -= rate_of_appearance

        insulin_input = basal_rate / 60.0 + bolus_in
        plasma_insulin += -params.insulin_clearance * (plasma_insulin - 0.0) + insulin_input
        plasma_insulin = max(plasma_insulin, 0.0)

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

        angle = 2.0 * np.pi * (minute_of_day / 1440.0) + dawn_phase
        production = params.dawn_amplitude * max(0.0, np.sin(angle)) ** 2
        uptake = params.glucose_effectiveness * (glucose - params.basal_glucose)
        insulin_effect = remote_insulin * glucose
        meal_effect = rate_of_appearance / params.distribution_volume
        exercise_uptake = 0.5 * exercise_level
        glucose += production - uptake - insulin_effect + meal_effect - exercise_uptake
        glucose = float(min(max(glucose, 30.0), 600.0))

        glucose_trace[minute] = glucose
        insulin_trace[minute] = plasma_insulin

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

    base = 62.0 + rng.normal(0.0, 3.0)
    heart_rate = np.empty(len(sample_indices))
    for position, index in enumerate(sample_indices):
        minute_of_day = index % 1440
        circadian = 8.0 * np.sin(2.0 * np.pi * (minute_of_day - 300.0) / 1440.0)
        exercise_component = 55.0 * inputs.exercise[index]
        noise = rng.normal(0.0, 2.5)
        heart_rate[position] = min(max(base + circadian + exercise_component + noise, 40), 190)

    def sum_bins(values):
        result = np.zeros(len(sample_indices))
        for position, index in enumerate(sample_indices):
            result[position] = values[index : index + CGM_SAMPLE_MINUTES].sum()
        return result

    return SimulationResult(
        minutes=sample_indices.astype(np.float64),
        cgm=cgm,
        plasma_glucose=glucose_trace[sample_indices],
        plasma_insulin=insulin_trace[sample_indices],
        carbs=sum_bins(inputs.carbs),
        bolus=sum_bins(inputs.bolus),
        basal=inputs.basal[sample_indices],
        heart_rate=heart_rate,
        exercise=inputs.exercise[sample_indices],
        meta={"dawn_phase": dawn_phase},
    )


def reference_patient(generator: SyntheticOhioT1DM, profile) -> PatientRecord:
    """One patient as the per-patient generator built it: two reference loops."""
    patient_rng = generator._root_rng.derive(f"patient-{profile.label}")
    train_inputs = DailyScheduleGenerator(
        profile.behaviour, seed=patient_rng.derive("behaviour-train")
    ).generate(generator.train_days)
    test_inputs = DailyScheduleGenerator(
        profile.behaviour, seed=patient_rng.derive("behaviour-test")
    ).generate(generator.test_days)
    train = reference_simulate(
        GlucoseInsulinSimulator(profile.physiology, seed=patient_rng.derive("physiology-train")),
        train_inputs,
    )
    test = reference_simulate(
        GlucoseInsulinSimulator(profile.physiology, seed=patient_rng.derive("physiology-test")),
        test_inputs,
    )
    return PatientRecord(profile=profile, train=train, test=test)


def assert_results_identical(got: SimulationResult, expected: SimulationResult) -> None:
    for name in RESULT_FIELDS:
        left, right = getattr(got, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), f"{name} differs"
    assert got.meta == expected.meta
    assert np.float64(got.meta["dawn_phase"]).tobytes() == np.float64(
        expected.meta["dawn_phase"]
    ).tobytes()


def rng_state(simulator: GlucoseInsulinSimulator) -> dict:
    return simulator._rng.generator.bit_generator.state


# ------------------------------------------------------------ strategies
@st.composite
def raw_inputs(draw):
    """Schedules of any length (partial last CGM bin and day included)."""
    minutes = draw(st.integers(1, 3200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    carbs, bolus, exercise = np.zeros(minutes), np.zeros(minutes), np.zeros(minutes)
    n_meals, n_boluses, n_sessions = (draw(st.integers(0, 6)) for _ in range(3))
    carbs[rng.integers(0, minutes, n_meals)] = rng.uniform(5.0, 90.0, n_meals)
    bolus[rng.integers(0, minutes, n_boluses)] = rng.uniform(0.2, 8.0, n_boluses)
    for start in rng.integers(0, minutes, n_sessions):
        exercise[start : start + int(rng.integers(5, 90))] = rng.uniform(0.1, 1.0)
    basal = np.full(minutes, draw(st.sampled_from([0.0, 0.6, 0.9, 1.2])))
    if draw(st.booleans()):
        # A dense stretch puts several impulses into one CGM bin.
        stretch = slice(0, min(minutes, 23))
        carbs[stretch] = rng.uniform(0.0, 3.0, len(carbs[stretch]))
        bolus[stretch] = rng.uniform(0.0, 0.4, len(bolus[stretch]))
    return SimulationInputs(carbs=carbs, bolus=bolus, basal=basal, exercise=exercise)


parameters_strategy = st.one_of(
    st.sampled_from([profile.physiology for profile in PROFILES]),
    st.builds(
        PhysiologyParameters,
        basal_glucose=st.floats(80.0, 200.0),
        insulin_sensitivity=st.floats(0.3, 2.0),
        dawn_amplitude=st.floats(0.0, 0.6),
        sensor_noise_std=st.floats(0.0, 8.0),
        sensor_drift_std=st.floats(0.0, 1.0),
        variability=st.floats(0.0, 0.3),
        gut_absorption_rate=st.floats(0.01, 0.06),
    ),
)


# ------------------------------------------------------------ properties
class TestLockstepKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(parameters_strategy, raw_inputs(), st.integers(0, 2**31 - 1)),
            min_size=1,
            max_size=5,
        ),
        shared=st.booleans(),
    )
    def test_lanes_match_reference_loop(self, lanes, shared):
        """Any lanes, any lengths: bitwise the reference, RNGs left where it leaves them.

        With ``shared`` every lane draws from one generator, so the kernel's
        draws-ahead must still follow lane order.
        """
        def simulators():
            common = RandomState(lanes[0][2])
            return [
                GlucoseInsulinSimulator(params, seed=common if shared else seed)
                for params, _, seed in lanes
            ]

        kernel_simulators, reference_simulators = simulators(), simulators()
        got = simulate_lockstep(kernel_simulators, [inputs for _, inputs, _ in lanes])
        expected = [
            reference_simulate(simulator, inputs)
            for simulator, (_, inputs, _) in zip(reference_simulators, lanes)
        ]
        for lane_got, lane_expected in zip(got, expected):
            assert_results_identical(lane_got, lane_expected)
        for kernel, reference in zip(kernel_simulators, reference_simulators):
            assert rng_state(kernel) == rng_state(reference)

    @settings(max_examples=12, deadline=None)
    @given(
        labels=st.lists(
            st.sampled_from([profile.label for profile in PROFILES]),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        seed=st.integers(0, 2**31 - 1),
        train_days=st.integers(1, 3),
        test_days=st.integers(1, 3),
    )
    def test_cohort_matches_per_patient_reference(self, labels, seed, train_days, test_days):
        profiles = [profile for profile in PROFILES if profile.label in labels]
        generator = SyntheticOhioT1DM(
            train_days=train_days, test_days=test_days, seed=seed, profiles=profiles
        )
        cohort = generator.generate()
        assert cohort.labels == [profile.label for profile in profiles]
        for profile in profiles:
            expected = reference_patient(generator, profile)
            assert_results_identical(cohort[profile.label].train, expected.train)
            assert_results_identical(cohort[profile.label].test, expected.test)


class TestLockstepCalls:
    def test_simulate_is_the_one_lane_kernel_call(self):
        inputs = DailyScheduleGenerator(PROFILES[0].behaviour, seed=4).generate(1)
        alone = GlucoseInsulinSimulator(PROFILES[0].physiology, seed=9).simulate(inputs)
        stacked = simulate_lockstep(
            [
                GlucoseInsulinSimulator(PROFILES[1].physiology, seed=3),
                GlucoseInsulinSimulator(PROFILES[0].physiology, seed=9),
            ],
            [DailyScheduleGenerator(PROFILES[1].behaviour, seed=2).generate(2), inputs],
        )[1]
        assert_results_identical(stacked, alone)

    def test_generate_patient_matches_cohort_record(self):
        generator = SyntheticOhioT1DM(train_days=1, test_days=1, seed=3, profiles=PROFILES[:3])
        cohort = generator.generate()
        for profile in PROFILES[:3]:
            record = generator.generate_patient(profile)
            assert_results_identical(record.train, cohort[profile.label].train)
            assert_results_identical(record.test, cohort[profile.label].test)

    def test_empty_schedule_draws_like_the_loop(self):
        empty = SimulationInputs(*(np.zeros(0) for _ in range(4)))
        kernel = GlucoseInsulinSimulator(PhysiologyParameters(), seed=1)
        reference = GlucoseInsulinSimulator(PhysiologyParameters(), seed=1)
        assert_results_identical(kernel.simulate(empty), reference_simulate(reference, empty))
        assert rng_state(kernel) == rng_state(reference)

    def test_mismatched_lane_counts_rejected(self):
        with pytest.raises(ValueError):
            simulate_lockstep([GlucoseInsulinSimulator(PhysiologyParameters(), seed=0)], [])


def test_cohort_lockstep_parity_passes(check_parity):
    """``scripts/check_parity.py``'s lockstep row, run in tier-1."""
    report = check_parity.run_cohort_lockstep_parity()
    assert report["simulations_compared"] == 2 * (12 + 4)
