"""Explore the URET-style evasion attack on a single patient.

Shows how to build custom transformation sets, constraints, and explorers, and
how a patient's glycemic control changes the attack's success rate — the
heterogeneity that motivates the paper's risk profiling framework.

Run with:  python examples/attack_playground.py
"""

import numpy as np

from repro.attacks import (
    BeamExplorer,
    EvasionAttack,
    MaxModifiedSamplesConstraint,
    CompositeConstraint,
    SuffixLevelTransformer,
    SuffixOffsetTransformer,
    constraint_for_scenario,
)
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.glucose import GlucoseModelZoo, Scenario


def attack_success_rate(attack, windows, scenario, limit=40):
    results = [attack.attack_window(window, scenario) for window in windows[:limit]]
    eligible = [result for result in results if result.eligible]
    if not eligible:
        return float("nan"), 0
    return float(np.mean([result.success for result in eligible])), len(eligible)


def main() -> None:
    profiles = [make_patient_profile("A", 5), make_patient_profile("A", 2)]
    cohort = SyntheticOhioT1DM(train_days=3, test_days=1, seed=21, profiles=profiles).generate()
    zoo = GlucoseModelZoo(predictor_kwargs=dict(epochs=3, hidden_size=10), seed=2)
    zoo.fit(cohort)

    for label in ("A_5", "A_2"):
        record = cohort[label]
        windows, _, _ = zoo.dataset.from_record(record, "test")
        predictor = zoo.model_for(label)

        # Default attack: greedy explorer, paper constraint set.
        default_attack = EvasionAttack(predictor)
        rate, eligible = attack_success_rate(default_attack, windows, Scenario.POSTPRANDIAL)
        print(f"{label}: default greedy attack   success={rate:.2f} over {eligible} eligible windows")

        # Stealthier adversary: may only modify the two most recent samples and
        # only nudge them upward by bounded offsets.
        stealthy_attack = EvasionAttack(
            predictor,
            transformers=[
                SuffixLevelTransformer(levels=(185.0, 220.0), suffix_lengths=(1, 2)),
                SuffixOffsetTransformer(offsets=(40.0, 80.0), suffix_lengths=(1, 2)),
            ],
            explorer=BeamExplorer(beam_width=2, max_depth=2),
        )
        constraint = CompositeConstraint(
            [constraint_for_scenario(Scenario.POSTPRANDIAL), MaxModifiedSamplesConstraint(2)]
        )
        results = [
            stealthy_attack.attack_window(window, Scenario.POSTPRANDIAL, constraint=constraint)
            for window in windows[:40]
        ]
        eligible = [result for result in results if result.eligible]
        rate = float(np.mean([result.success for result in eligible])) if eligible else float("nan")
        print(f"{label}: stealthy beam attack    success={rate:.2f} over {len(eligible)} eligible windows")

        # Inspect one successful attack in detail.
        success = next((result for result in results if result.success), None)
        if success is not None:
            print(
                f"  example: benign prediction {success.benign_prediction:.0f} mg/dL -> "
                f"adversarial {success.adversarial_prediction:.0f} mg/dL via {success.path}"
            )


if __name__ == "__main__":
    main()
