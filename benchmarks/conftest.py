"""Shared pipeline state for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The expensive
artifacts (synthetic cohort, trained forecasters, attack campaigns, detector
comparison) are built once per session here; each benchmark then times the
analysis step that produces its table/figure and prints the rendered report.

The configuration is intentionally smaller than the paper scale (a laptop-CPU
budget); raise ``REPRO_BENCH_TRAIN_DAYS`` / ``REPRO_BENCH_TEST_DAYS`` /
``REPRO_BENCH_EPOCHS`` to move towards the OhioT1DM scale.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

import pytest

from repro.attacks import AttackCampaign
from repro.data import expected_less_vulnerable_labels, generate_cohort
from repro.eval import SelectiveTrainingExperiment, default_detector_factories
from repro.glucose import GlucoseModelZoo
from repro.risk import RiskProfilingFramework, SelectionPlanner

REPORT_DIR = Path(__file__).parent / "reports"

# The parity tripwire in scripts/ holds the shared tolerance checks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@dataclass
class PipelineState:
    """Everything the per-figure benchmarks need."""

    cohort: object
    zoo: GlucoseModelZoo
    framework: RiskProfilingFramework
    assessment: object
    train_campaign: object
    test_campaign: object
    planner: SelectionPlanner
    selections: Dict[str, object]
    selective_result: object
    #: The fitted MAD-GAN detectors of the comparison, per strategy (one per run).
    madgan_detectors: Dict[str, List[object]]


@pytest.fixture(scope="session")
def pipeline() -> PipelineState:
    train_days = _env_int("REPRO_BENCH_TRAIN_DAYS", 4)
    test_days = _env_int("REPRO_BENCH_TEST_DAYS", 2)
    epochs = _env_int("REPRO_BENCH_EPOCHS", 4)
    madgan_epochs = _env_int("REPRO_BENCH_MADGAN_EPOCHS", 8)

    cohort = generate_cohort(train_days=train_days, test_days=test_days, seed=7)
    zoo = GlucoseModelZoo(
        predictor_kwargs=dict(epochs=epochs, hidden_size=12),
        train_personalized=True,
        seed=3,
    )
    zoo.fit(cohort)

    framework = RiskProfilingFramework(zoo, campaign=AttackCampaign(zoo, stride=4), n_clusters=2)
    assessment = framework.assess(cohort, split="train")
    test_campaign = AttackCampaign(zoo, stride=3).run_cohort(cohort, split="test")

    # The detector comparison uses the paper's Table II grouping so that the
    # headline figures are not confounded by clustering differences between the
    # synthetic cohort and the real OhioT1DM patients; the clustering benchmark
    # reports our framework's recovered clusters next to the paper's.
    planner = SelectionPlanner(
        all_labels=sorted(record.label for record in cohort),
        less_vulnerable=expected_less_vulnerable_labels(),
        random_runs=_env_int("REPRO_BENCH_RANDOM_RUNS", 3),
        seed=11,
    )
    selections = planner.plan()
    factories = default_detector_factories(
        madgan_epochs=madgan_epochs, madgan_inversion_steps=40
    )
    # Keep every MAD-GAN the experiment fits, in fit order (strategy by
    # strategy, run by run), so later checks can re-score its test set.
    fitted_madgans = []
    madgan_factory = factories["MAD-GAN"].factory

    def keep_madgan():
        detector = madgan_factory()
        fitted_madgans.append(detector)
        return detector

    factories["MAD-GAN"] = replace(factories["MAD-GAN"], factory=keep_madgan)
    experiment = SelectiveTrainingExperiment(
        train_campaign=assessment.campaign,
        test_campaign=test_campaign,
        detector_factories=factories,
    )
    selective_result = experiment.run(selections)
    madgans = iter(fitted_madgans)
    madgan_detectors = {
        name: [next(madgans) for _ in selection.runs] for name, selection in selections.items()
    }

    return PipelineState(
        cohort=cohort,
        zoo=zoo,
        framework=framework,
        assessment=assessment,
        train_campaign=assessment.campaign,
        test_campaign=test_campaign,
        planner=planner,
        selections=selections,
        selective_result=selective_result,
        madgan_detectors=madgan_detectors,
    )


def write_report(name: str, content: str) -> None:
    """Persist a rendered table/figure so EXPERIMENTS.md can reference it."""
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(content + "\n")
    print(f"\n===== {name} =====\n{content}\n")
