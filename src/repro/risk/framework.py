"""The five-step risk profiling framework (the paper's core contribution).

Step 1  Simulate the evasion attack against the deployed glucose forecasters.
Step 2  Quantify instantaneous risk ``R_t = S * Z_t`` per timestamp.
Step 3  Construct a continuous time-series risk profile per victim.
Step 4  Hierarchically cluster the risk profiles into vulnerability groups.
Step 5  Select the less-vulnerable cluster to train static anomaly detectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.attacks.campaign import AttackCampaign, CampaignResult
from repro.data.cohort import Cohort
from repro.glucose.models import GlucoseModelZoo
from repro.risk.clustering import ClusteringOutcome, cluster_profiles
from repro.risk.profile import RiskProfile, RiskProfileBuilder, profile_matrix
from repro.risk.quantify import RiskQuantifier
from repro.risk.severity import SeverityMatrix


@dataclass
class VulnerabilityAssessment:
    """Output of the risk profiling framework for one cohort.

    Attributes
    ----------
    profiles:
        Per-patient risk profiles (step 3).
    clustering:
        Hierarchical clustering outcome over the profiles (step 4).
    cluster_success_rates:
        Mean attack success (misclassification) rate per cluster, used to
        label clusters.
    less_vulnerable / more_vulnerable:
        Patient labels per vulnerability group (step 4's labelling).
    campaign:
        The raw attack campaign the assessment was derived from (step 1).
    """

    profiles: Dict[str, RiskProfile]
    clustering: ClusteringOutcome
    cluster_success_rates: Dict[int, float]
    less_vulnerable: List[str]
    more_vulnerable: List[str]
    campaign: CampaignResult

    def cluster_of(self, patient_label: str) -> int:
        return self.clustering.as_dict()[patient_label]


class RiskProfilingFramework:
    """Orchestrates the five framework steps over a cohort.

    Parameters
    ----------
    zoo:
        Trained glucose forecasters (the "main DNN" under attack).
    severity:
        Severity matrix (defaults to the paper's Table I).
    campaign:
        Attack campaign configuration; defaults to attacking every other
        window of each patient's training split with the greedy explorer.
    linkage:
        Hierarchical clustering linkage.
    n_clusters:
        Number of vulnerability clusters (2 in the paper); ``None`` selects
        the count with the largest-gap rule.
    profile_representation / profile_length:
        How risk profiles are embedded for clustering (see
        :func:`repro.risk.profile.profile_matrix`).
    """

    def __init__(
        self,
        zoo: GlucoseModelZoo,
        severity: Optional[SeverityMatrix] = None,
        campaign: Optional[AttackCampaign] = None,
        linkage: str = "average",
        n_clusters: Optional[int] = 2,
        profile_representation: str = "summary",
        profile_length: int = 64,
    ):
        self.zoo = zoo
        self.severity = severity or SeverityMatrix.paper_exponential()
        self.campaign = campaign or AttackCampaign(zoo, stride=2)
        self.linkage = linkage
        self.n_clusters = n_clusters
        self.profile_representation = profile_representation
        self.profile_length = profile_length
        self.quantifier = RiskQuantifier(self.severity)
        self.profile_builder = RiskProfileBuilder(self.quantifier)

    # ------------------------------------------------------------------ steps
    def simulate_attack(self, cohort: Cohort, split: str = "train") -> CampaignResult:
        """Step 1: simulate the evasion attack over the cohort."""
        return self.campaign.run_cohort(cohort, split=split)

    def build_profiles(self, campaign_result: CampaignResult) -> Dict[str, RiskProfile]:
        """Steps 2 and 3: quantify instantaneous risks and build profiles."""
        return self.profile_builder.from_campaign(campaign_result)

    def cluster(self, profiles: Dict[str, RiskProfile]) -> ClusteringOutcome:
        """Step 4: hierarchically cluster the risk profiles."""
        labels, matrix = profile_matrix(
            profiles,
            representation=self.profile_representation,
            length=self.profile_length,
        )
        return cluster_profiles(
            labels, matrix, linkage=self.linkage, n_clusters=self.n_clusters
        )

    def label_clusters(
        self, clustering: ClusteringOutcome, campaign_result: CampaignResult
    ) -> Dict[int, float]:
        """Label clusters with their mean attack success (misclassification) rate.

        The cluster with the lowest mean success rate is the *less vulnerable*
        one, mirroring how the paper cross-checks its clusters against the
        per-patient misclassification percentages.
        """
        summaries = campaign_result.summaries()
        cluster_rates: Dict[int, float] = {}
        for cluster_index in range(clustering.n_clusters):
            members = clustering.members(cluster_index)
            rates = [
                summaries[label].success_rate
                for label in members
                if label in summaries and not np.isnan(summaries[label].success_rate)
            ]
            cluster_rates[cluster_index] = float(np.mean(rates)) if rates else float("nan")
        return cluster_rates

    # ------------------------------------------------------------------ driver
    def assess(self, cohort: Cohort, split: str = "train") -> VulnerabilityAssessment:
        """Run steps 1-4 and label the clusters."""
        campaign_result = self.simulate_attack(cohort, split=split)
        profiles = self.build_profiles(campaign_result)
        clustering = self.cluster(profiles)
        cluster_rates = self.label_clusters(clustering, campaign_result)

        valid = {
            index: rate for index, rate in cluster_rates.items() if not np.isnan(rate)
        }
        if valid:
            less_vulnerable_cluster = min(valid, key=valid.get)
        else:  # pragma: no cover - degenerate campaign with no eligible windows
            less_vulnerable_cluster = 0
        less_vulnerable = clustering.members(less_vulnerable_cluster)
        more_vulnerable = [
            label for label in clustering.labels if label not in set(less_vulnerable)
        ]
        return VulnerabilityAssessment(
            profiles=profiles,
            clustering=clustering,
            cluster_success_rates=cluster_rates,
            less_vulnerable=less_vulnerable,
            more_vulnerable=more_vulnerable,
            campaign=campaign_result,
        )
