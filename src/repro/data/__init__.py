"""Synthetic OhioT1DM-like data substrate.

Replaces the licensed OhioT1DM dataset with a physiological glucose–insulin
simulator and a 12-patient cohort whose per-patient heterogeneity mirrors the
vulnerability structure the paper reports (see ``DESIGN.md`` for the
substitution rationale).
"""

from repro.data.physiology import (
    CGM_SAMPLE_MINUTES,
    MAX_SENSOR_GLUCOSE,
    MIN_SENSOR_GLUCOSE,
    GlucoseInsulinSimulator,
    PhysiologyParameters,
    SimulationInputs,
    SimulationResult,
)
from repro.data.events import (
    BehaviourProfile,
    BolusPolicy,
    DailyScheduleGenerator,
    ExercisePlan,
    MealEvent,
    MealPlan,
)
from repro.data.patient import (
    SUBSET_A,
    SUBSET_B,
    PatientProfile,
    build_cohort_profiles,
    expected_less_vulnerable_labels,
    expected_more_vulnerable_labels,
    make_patient_profile,
)
from repro.data.cohort import (
    CGM_COLUMN,
    FEATURE_NAMES,
    Cohort,
    PatientRecord,
    SyntheticOhioT1DM,
    build_feature_matrix,
    generate_cohort,
)
from repro.data.dataset import (
    DEFAULT_HISTORY,
    DEFAULT_HORIZON,
    ForecastingDataset,
    WindowScaler,
    flatten_windows,
)

__all__ = [
    "CGM_SAMPLE_MINUTES",
    "MAX_SENSOR_GLUCOSE",
    "MIN_SENSOR_GLUCOSE",
    "GlucoseInsulinSimulator",
    "PhysiologyParameters",
    "SimulationInputs",
    "SimulationResult",
    "BehaviourProfile",
    "BolusPolicy",
    "DailyScheduleGenerator",
    "ExercisePlan",
    "MealEvent",
    "MealPlan",
    "SUBSET_A",
    "SUBSET_B",
    "PatientProfile",
    "build_cohort_profiles",
    "expected_less_vulnerable_labels",
    "expected_more_vulnerable_labels",
    "make_patient_profile",
    "CGM_COLUMN",
    "FEATURE_NAMES",
    "Cohort",
    "PatientRecord",
    "SyntheticOhioT1DM",
    "build_feature_matrix",
    "generate_cohort",
    "DEFAULT_HISTORY",
    "DEFAULT_HORIZON",
    "ForecastingDataset",
    "WindowScaler",
    "flatten_windows",
]
