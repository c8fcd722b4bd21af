"""Figure 11 — follow-graph degree distributions.

In-degree (followers) and out-degree (following) distributions over all
accounts, with feed-generator creators highlighted: the paper finds
creators concentrated at high in-degree and low out-degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.pipeline import StudyDatasets


@dataclass
class DegreeDistribution:
    """Histogram plus the feed-creator density per degree bucket."""

    histogram: Counter = field(default_factory=Counter)  # degree -> accounts
    creator_histogram: Counter = field(default_factory=Counter)

    def mean_degree(self, creators_only: bool = False) -> float:
        source = self.creator_histogram if creators_only else self.histogram
        total = sum(source.values())
        if total == 0:
            return 0.0
        return sum(degree * count for degree, count in source.items()) / total


@dataclass
class DegreeAnalysis:
    in_degree: DegreeDistribution = field(default_factory=DegreeDistribution)
    out_degree: DegreeDistribution = field(default_factory=DegreeDistribution)
    accounts: int = 0
    creators: int = 0

    def creators_skew_popular(self) -> bool:
        """The Figure 11 takeaway: creators have above-average in-degree
        and below-average relative out-degree."""
        mean_in = self.in_degree.mean_degree()
        mean_in_creators = self.in_degree.mean_degree(creators_only=True)
        return mean_in_creators > mean_in


def degree_distributions(datasets: StudyDatasets) -> DegreeAnalysis:
    repos = datasets.repositories
    in_degree: Counter = Counter()
    out_degree: Counter = Counter()
    accounts: set = set()
    for row in repos.follows:
        if not row.subject:
            continue
        in_degree[row.subject] += 1
        out_degree[row.did] += 1
        accounts.add(row.subject)
        accounts.add(row.did)
    creators = {row.did for row in repos.feed_generators}
    analysis = DegreeAnalysis(accounts=len(accounts), creators=len(creators & accounts))
    for account in accounts:
        d_in = in_degree.get(account, 0)
        d_out = out_degree.get(account, 0)
        analysis.in_degree.histogram[d_in] += 1
        analysis.out_degree.histogram[d_out] += 1
        if account in creators:
            analysis.in_degree.creator_histogram[d_in] += 1
            analysis.out_degree.creator_histogram[d_out] += 1
    return analysis
