"""Patient profiles for the synthetic OhioT1DM-like cohort.

The OhioT1DM dataset contains 12 Type-1 diabetes patients — six released in
2018 (the paper's *Subset A*) and six in 2020 (*Subset B*).  The paper's
clustering places patient 5 of Subset A and patients 1 and 2 of Subset B in
the "less vulnerable" cluster; those patients exhibit the highest benign
normal-to-abnormal glucose ratio (paper Fig. 4).

The synthetic cohort mirrors that structure: "well-controlled" profiles use
high bolus compliance, accurate carbohydrate counting, and low day-to-day
variability, which yields mostly-normal benign traces; "poorly-controlled"
profiles have the opposite and spend much more time in hyper/hypoglycemia.
The concrete glucose values come from the physiology simulator, not from the
real dataset, so only the qualitative heterogeneity is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.data.events import BehaviourProfile, BolusPolicy, ExercisePlan, MealPlan
from repro.data.physiology import PhysiologyParameters

#: Subset identifiers used throughout the library.
SUBSET_A = "A"
SUBSET_B = "B"

#: Degree of glycemic control; drives both physiology and behaviour presets.
CONTROL_LEVELS = ("excellent", "good", "fair", "poor", "very_poor")


@dataclass
class PatientProfile:
    """Full description of one synthetic patient.

    Attributes
    ----------
    patient_id:
        Index within the subset (0-5), matching the paper's ``p0`` ... ``p5``.
    subset:
        ``"A"`` (2018 cohort) or ``"B"`` (2020 cohort).
    control_level:
        Qualitative degree of glycemic control used to derive the presets.
    physiology:
        Parameters of the glucose–insulin simulator.
    behaviour:
        Meal / bolus / exercise behaviour.
    seed_offset:
        Per-patient offset mixed into the cohort seed for reproducibility.
    """

    patient_id: int
    subset: str
    control_level: str
    physiology: PhysiologyParameters
    behaviour: BehaviourProfile
    seed_offset: int = 0

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"A_5"``."""
        return f"{self.subset}_{self.patient_id}"

    def __post_init__(self):
        if self.subset not in (SUBSET_A, SUBSET_B):
            raise ValueError(f"subset must be 'A' or 'B', got {self.subset!r}")
        if not 0 <= self.patient_id <= 11:
            raise ValueError(f"patient_id must be in [0, 11], got {self.patient_id}")
        if self.control_level not in CONTROL_LEVELS:
            raise ValueError(
                f"control_level must be one of {CONTROL_LEVELS}, got {self.control_level!r}"
            )


def _physiology_for(control_level: str) -> PhysiologyParameters:
    """Physiological presets per control level.

    Better-controlled patients sit closer to normoglycemia and respond more
    predictably to insulin; poorly controlled patients have elevated basal
    glucose, blunted insulin sensitivity, and larger variability.
    """
    presets = {
        "excellent": PhysiologyParameters(
            basal_glucose=105.0,
            insulin_sensitivity=1.35,
            variability=0.05,
            sensor_noise_std=3.5,
            dawn_amplitude=0.18,
            gut_absorption_rate=0.02,
        ),
        "good": PhysiologyParameters(
            basal_glucose=112.0,
            insulin_sensitivity=1.28,
            variability=0.06,
            sensor_noise_std=4.0,
            dawn_amplitude=0.2,
            gut_absorption_rate=0.02,
        ),
        "fair": PhysiologyParameters(
            basal_glucose=138.0,
            insulin_sensitivity=0.95,
            variability=0.1,
            sensor_noise_std=4.5,
            dawn_amplitude=0.28,
        ),
        "poor": PhysiologyParameters(
            basal_glucose=148.0,
            insulin_sensitivity=0.85,
            variability=0.13,
            sensor_noise_std=5.0,
            dawn_amplitude=0.3,
        ),
        "very_poor": PhysiologyParameters(
            basal_glucose=160.0,
            insulin_sensitivity=0.75,
            variability=0.16,
            sensor_noise_std=5.5,
            dawn_amplitude=0.34,
        ),
    }
    return presets[control_level]


def _behaviour_for(control_level: str) -> BehaviourProfile:
    """Behavioural presets per control level."""
    presets = {
        "excellent": BehaviourProfile(
            meal_plan=MealPlan(
                meal_carbs=(35.0, 45.0, 55.0),
                time_jitter_std=12.0,
                carb_jitter_std=5.0,
                snack_probability=0.2,
            ),
            bolus_policy=BolusPolicy(
                compliance=0.98,
                counting_error_std=0.05,
                timing_offset=-20.0,
                timing_error_std=5.0,
                correction_probability=0.6,
                correction_units=(2.0, 3.5),
            ),
            exercise_plan=ExercisePlan(session_probability=0.5),
            basal_rate=1.05,
        ),
        "good": BehaviourProfile(
            meal_plan=MealPlan(
                meal_carbs=(38.0, 48.0, 58.0),
                time_jitter_std=18.0,
                carb_jitter_std=6.0,
                snack_probability=0.25,
            ),
            bolus_policy=BolusPolicy(
                compliance=0.93,
                counting_error_std=0.08,
                timing_offset=-18.0,
                timing_error_std=7.0,
                correction_probability=0.55,
                correction_units=(2.0, 3.5),
            ),
            exercise_plan=ExercisePlan(session_probability=0.4),
            basal_rate=1.0,
        ),
        "fair": BehaviourProfile(
            meal_plan=MealPlan(time_jitter_std=25.0, carb_jitter_std=10.0, snack_probability=0.4),
            bolus_policy=BolusPolicy(
                compliance=0.85,
                counting_error_std=0.15,
                timing_error_std=12.0,
                correction_probability=0.4,
                correction_units=(1.0, 3.0),
            ),
            exercise_plan=ExercisePlan(session_probability=0.3),
            basal_rate=0.95,
        ),
        "poor": BehaviourProfile(
            meal_plan=MealPlan(
                time_jitter_std=35.0,
                carb_jitter_std=14.0,
                snack_probability=0.55,
                skip_probability=0.1,
            ),
            bolus_policy=BolusPolicy(
                compliance=0.72,
                counting_error_std=0.22,
                timing_error_std=18.0,
                correction_probability=0.3,
                correction_units=(1.0, 3.5),
            ),
            exercise_plan=ExercisePlan(session_probability=0.2),
            basal_rate=0.9,
        ),
        "very_poor": BehaviourProfile(
            meal_plan=MealPlan(
                time_jitter_std=45.0,
                carb_jitter_std=18.0,
                snack_probability=0.65,
                skip_probability=0.15,
            ),
            bolus_policy=BolusPolicy(
                compliance=0.7,
                counting_error_std=0.28,
                timing_error_std=25.0,
                correction_probability=0.25,
                correction_units=(1.0, 4.0),
            ),
            exercise_plan=ExercisePlan(session_probability=0.15),
            basal_rate=0.85,
        ),
    }
    return presets[control_level]


#: Control level per patient, chosen so the vulnerability structure matches the
#: paper's Table II (A_5, B_1, B_2 are the least vulnerable patients).
_COHORT_CONTROL_LEVELS: Dict[Tuple[str, int], str] = {
    (SUBSET_A, 0): "fair",
    (SUBSET_A, 1): "poor",
    (SUBSET_A, 2): "very_poor",
    (SUBSET_A, 3): "fair",
    (SUBSET_A, 4): "poor",
    (SUBSET_A, 5): "excellent",
    (SUBSET_B, 0): "poor",
    (SUBSET_B, 1): "good",
    (SUBSET_B, 2): "excellent",
    (SUBSET_B, 3): "fair",
    (SUBSET_B, 4): "poor",
    (SUBSET_B, 5): "very_poor",
}


def make_patient_profile(subset: str, patient_id: int, control_level: Optional[str] = None) -> PatientProfile:
    """Create a single patient profile.

    Parameters
    ----------
    subset:
        ``"A"`` or ``"B"``.
    patient_id:
        Patient index within the subset (0-5).
    control_level:
        Override the default control level for this (subset, patient) pair.
    """
    key = (subset, patient_id)
    if control_level is None:
        if key not in _COHORT_CONTROL_LEVELS:
            raise ValueError(f"no default control level for patient {subset}_{patient_id}")
        control_level = _COHORT_CONTROL_LEVELS[key]
    if control_level not in CONTROL_LEVELS:
        raise ValueError(
            f"control_level must be one of {CONTROL_LEVELS}, got {control_level!r}"
        )
    seed_offset = (0 if subset == SUBSET_A else 6) + patient_id
    return PatientProfile(
        patient_id=patient_id,
        subset=subset,
        control_level=control_level,
        physiology=_physiology_for(control_level),
        behaviour=_behaviour_for(control_level),
        seed_offset=seed_offset,
    )


def build_cohort_profiles(subsets: Tuple[str, ...] = (SUBSET_A, SUBSET_B)) -> List[PatientProfile]:
    """Build the default 12-patient cohort (or a single subset of six)."""
    profiles = []
    for subset in subsets:
        if subset not in (SUBSET_A, SUBSET_B):
            raise ValueError(f"unknown subset {subset!r}")
        for patient_id in range(6):
            profiles.append(make_patient_profile(subset, patient_id))
    return profiles


def expected_less_vulnerable_labels() -> List[str]:
    """Patient labels the paper identifies as less vulnerable (Table II)."""
    return ["A_5", "B_1", "B_2"]


def expected_more_vulnerable_labels() -> List[str]:
    """Patient labels the paper identifies as more vulnerable (Table II)."""
    return ["A_0", "A_1", "A_2", "A_3", "A_4", "B_0", "B_3", "B_4", "B_5"]
