"""Plain-text report rendering for every paper table and figure.

The library has no plotting dependency, so figures are rendered as aligned
text tables / bar charts that carry the same information (who wins, by how
much, where the crossovers are).  Benchmarks print these reports so that the
regenerated numbers sit next to the paper's claims in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.eval.experiments import AttackSuccessReport, QuadrantCounts, SelectiveTrainingResult
from repro.eval.metrics import percentage_change
from repro.risk.clustering import ClusteringOutcome
from repro.risk.framework import VulnerabilityAssessment
from repro.risk.selection import STRATEGY_ALL, STRATEGY_LESS_VULNERABLE
from repro.risk.severity import SeverityMatrix


def _format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    separator = "-+-".join("-" * width for width in widths)
    lines = [render_row(headers), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def _format_rate(value: float) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "n/a"
    return f"{100.0 * value:5.1f}%"


def render_severity_table(severity: Optional[SeverityMatrix] = None) -> str:
    """Table I: severity coefficients for state transitions."""
    severity = severity or SeverityMatrix.paper_exponential()
    rows = [
        (benign, adversarial, f"{coefficient:g}")
        for benign, adversarial, coefficient in severity.as_rows()
    ]
    return _format_table(("Benign", "Adversarial", "Severity (S)"), rows)


def render_cluster_table(assessment: VulnerabilityAssessment) -> str:
    """Table II: patient vulnerability clusters."""
    rows = []
    for cluster_index in range(assessment.clustering.n_clusters):
        members = assessment.clustering.members(cluster_index)
        rate = assessment.cluster_success_rates.get(cluster_index, float("nan"))
        label = (
            "Less Vulnerable"
            if set(members) == set(assessment.less_vulnerable)
            else "More Vulnerable"
        )
        rows.append((label, ", ".join(sorted(members)), _format_rate(rate)))
    return _format_table(("Cluster", "Patients", "Mean attack success"), rows)


def render_dendrogram(clustering: ClusteringOutcome) -> str:
    """Figure 3: dendrogram of the risk-profile clustering."""
    return clustering.model.render_dendrogram(clustering.labels)


def render_ratio_figure(ratios: Mapping[str, float], cap: float = 50.0) -> str:
    """Figure 4: benign normal-to-abnormal ratio per patient (text bar chart)."""
    lines = ["Benign normal-to-abnormal ratio per patient"]
    for label in sorted(ratios):
        ratio = ratios[label]
        display = min(ratio, cap)
        bar = "#" * max(1, int(round(display)))
        value = f">{cap:g}" if ratio > cap else f"{ratio:.2f}"
        lines.append(f"  {label}: {value:>7} {bar}")
    return "\n".join(lines)


def render_quadrants(counts: QuadrantCounts) -> str:
    """Figure 6: four-quadrant breakdown of samples."""
    rows = [
        ("benign", "normal", counts.benign_normal),
        ("benign", "abnormal", counts.benign_abnormal),
        ("malicious", "normal", counts.malicious_normal),
        ("malicious", "abnormal", counts.malicious_abnormal),
    ]
    return _format_table(("Origin", "Glucose state", "Count"), rows)


def render_metric_figure(
    result: SelectiveTrainingResult, metric: str = "recall", title: Optional[str] = None
) -> str:
    """Figures 7, 8, and 11: a metric per detector and training strategy."""
    table = result.metric_table(metric)
    strategies = result.strategies
    rows = []
    for detector, per_strategy in table.items():
        rows.append([detector] + [f"{per_strategy[strategy]:.3f}" for strategy in strategies])
    rendered = _format_table([title or metric.capitalize()] + list(strategies), rows)
    return rendered


def render_headline_claims(result: SelectiveTrainingResult) -> str:
    """Compare the paper's headline claims against the regenerated numbers."""
    lines = ["Headline comparison (Less Vulnerable vs All Patients)"]
    for detector in result.detectors:
        less = result.outcome(detector, STRATEGY_LESS_VULNERABLE)
        baseline = result.outcome(detector, STRATEGY_ALL)
        recall_gain = percentage_change(less.recall, baseline.recall)
        precision_gain = percentage_change(less.precision, baseline.precision)
        f1_gain = percentage_change(less.f1, baseline.f1)
        lines.append(
            f"  {detector}: recall {baseline.recall:.3f} -> {less.recall:.3f} "
            f"({recall_gain:+.1f}%), precision {baseline.precision:.3f} -> {less.precision:.3f} "
            f"({precision_gain:+.1f}%), F1 {baseline.f1:.3f} -> {less.f1:.3f} ({f1_gain:+.1f}%)"
        )
    return "\n".join(lines)


def render_attack_success(report: AttackSuccessReport, transition: str = "normal_to_hyper") -> str:
    """Figures 9 and 10: misdiagnosis percentage per patient."""
    if transition == "normal_to_hyper":
        data = report.normal_to_hyper
        title = "Originally normal instances misdiagnosed as hyperglycemic"
    elif transition == "hypo_to_hyper":
        data = report.hypo_to_hyper
        title = "Originally hypoglycemic instances misdiagnosed as hyperglycemic"
    else:
        raise ValueError("transition must be 'normal_to_hyper' or 'hypo_to_hyper'")
    lines = [title]
    for label in sorted(data):
        lines.append(f"  {label}: {_format_rate(data[label])}")
    average = (
        report.average_normal_to_hyper
        if transition == "normal_to_hyper"
        else report.average_hypo_to_hyper
    )
    lines.append(f"  Average: {_format_rate(average)}")
    return "\n".join(lines)


def render_false_negative_rates(rates: Mapping[str, float]) -> str:
    """Figure 5's message: per-patient false-negative rate of a detector."""
    rows = [(label, _format_rate(rate)) for label, rate in sorted(rates.items())]
    return _format_table(("Patient", "False negative rate"), rows)
