"""Section 6 — Content Moderation.

Figure 4 (labels per month by source + labeler count), Table 3 (top
community labelers), Table 4 (label targets), Figures 5/6 and Table 6
(reaction times), label-value statistics, overlap, and the hosting-class
analysis of labeler endpoints.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import StudyDatasets
from repro.netsim.hosting import HostingClass, IpAllocator
from repro.services.labeler import (
    TARGET_ACCOUNT,
    TARGET_OTHER,
    TARGET_POST,
    TARGET_PROFILE_MEDIA,
)
from repro.simulation.clock import US_PER_SECOND, month_key


def _median_and_quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:
        return (0.0, 0.0, 0.0)
    ordered = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        if n == 1:
            return ordered[0]
        pos = q * (n - 1)
        low = int(pos)
        high = min(low + 1, n - 1)
        frac = pos - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    return at(0.25), at(0.5), at(0.75)


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass
class LabelGrowth:
    """Labels per month by source class + cumulative labeler count."""

    months: list[str] = field(default_factory=list)
    official_by_month: dict[str, int] = field(default_factory=dict)
    community_by_month: dict[str, int] = field(default_factory=dict)
    labeler_count_by_month: dict[str, int] = field(default_factory=dict)

    def community_share(self, month: str) -> float:
        total = self.official_by_month.get(month, 0) + self.community_by_month.get(month, 0)
        if total == 0:
            return 0.0
        return self.community_by_month.get(month, 0) / total


def label_growth(datasets: StudyDatasets, official_did: str) -> LabelGrowth:
    result = LabelGrowth()
    months = set()
    for label in datasets.labels.labels:
        month = month_key(label.cts)
        months.add(month)
        target = result.official_by_month if label.src == official_did else result.community_by_month
        target[month] = target.get(month, 0) + 1
    # Cumulative count of *community* labeler services announced by month.
    announce_month: dict[str, str] = {}
    for did, created_us in datasets.repositories.labeler_services:
        if created_us is not None and did != official_did:
            announce_month[did] = month_key(created_us)
    per_month = Counter(announce_month.values())
    months.update(per_month)
    result.months = sorted(months)
    running = 0
    for month in result.months:
        running += per_month.get(month, 0)
        result.labeler_count_by_month[month] = running
    return result


# ---------------------------------------------------------------------------
# Table 3 / Table 4
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    rank: int
    applied: int
    did: str
    likes: int


def table3_top_community_labelers(
    datasets: StudyDatasets, official_did: str, top_n: int = 5
) -> list[Table3Row]:
    """Top community labelers by applied (non-negated) labels on window
    posts — Table 3's counts equal Table 6's — with the likes their
    service records attracted."""
    post_times = datasets.firehose.post_created_us
    applied = Counter(
        label.src
        for label in datasets.labels.labels
        if not label.neg and label.src != official_did and label.uri in post_times
    )
    likes = Counter()
    for row in datasets.repositories.likes:
        if "/app.bsky.labeler.service/" in row.subject:
            likes[row.subject.split("/", 3)[2]] += 1
    rows = []
    for rank, (did, count) in enumerate(applied.most_common(top_n), start=1):
        rows.append(Table3Row(rank=rank, applied=count, did=did, likes=likes.get(did, 0)))
    return rows


@dataclass
class Table4Row:
    object_type: str
    objects: int
    share_pct: float
    top_labels: list[tuple[str, int]]


def table4_label_targets(datasets: StudyDatasets, top_n: int = 5) -> list[Table4Row]:
    """Label targets: unique objects per class, with the top label values."""
    objects_by_type: dict[str, set] = defaultdict(set)
    value_counts: dict[str, Counter] = defaultdict(Counter)
    for label in datasets.labels.labels:
        if label.neg:
            continue
        target = label.target_type
        objects_by_type[target].add(label.uri)
        value_counts[target][label.val] += 1
    total = sum(len(objects) for objects in objects_by_type.values())
    rows = []
    for target in (TARGET_POST, TARGET_ACCOUNT, TARGET_PROFILE_MEDIA, TARGET_OTHER):
        objects = objects_by_type.get(target, set())
        rows.append(
            Table4Row(
                object_type=target,
                objects=len(objects),
                share_pct=100.0 * len(objects) / total if total else 0.0,
                top_labels=value_counts[target].most_common(top_n),
            )
        )
    rows.sort(key=lambda row: -row.objects)
    return rows


# ---------------------------------------------------------------------------
# Reaction times (Figures 5, 6; Table 6)
# ---------------------------------------------------------------------------


@dataclass
class ReactionStats:
    count: int
    q1_s: float
    median_s: float
    q3_s: float

    @property
    def iqd_s(self) -> float:
        return self.q3_s - self.q1_s


@dataclass
class LabelerReactionRow:
    """One row of Table 6."""

    rank: int
    did: str
    top_values: list[str]
    unique_values: int
    total: int
    share_pct: float
    reaction: ReactionStats


def _reaction_times_by(datasets: StudyDatasets, key_fn) -> dict:
    """Reaction times of labels on posts created during the firehose
    window, grouped by an arbitrary key (labeler, or (labeler, value))."""
    post_times = datasets.firehose.post_created_us
    grouped: dict = defaultdict(list)
    for label in datasets.labels.labels:
        if label.neg:
            continue
        created = post_times.get(label.uri)
        if created is None:
            continue  # not a post from the window (accounts, old posts)
        reaction_s = max(0.0, (label.cts - created) / US_PER_SECOND)
        grouped[key_fn(label)].append(reaction_s)
    return grouped


def labeler_reaction_times(datasets: StudyDatasets) -> list[LabelerReactionRow]:
    """Table 6 / Figure 5: per-labeler label counts vs reaction times.

    As in the paper, only labels applied to *posts observed on the
    firehose during the collection window* are counted — not historical
    labels or labels on accounts/profiles — so the official labeler's
    eleven months of prior output do not distort the comparison.
    """
    grouped = _reaction_times_by(datasets, lambda label: label.src)
    post_times = datasets.firehose.post_created_us
    by_src_values: dict[str, Counter] = defaultdict(Counter)
    by_src_total = Counter()
    for label in datasets.labels.labels:
        if not label.neg and label.uri in post_times:
            by_src_values[label.src][label.val] += 1
            by_src_total[label.src] += 1
    total_all = sum(by_src_total.values())
    rows = []
    ordered = sorted(grouped.items(), key=lambda item: -by_src_total[item[0]])
    for rank, (src, times) in enumerate(ordered, start=1):
        q1, median, q3 = _median_and_quartiles(times)
        values = by_src_values[src]
        rows.append(
            LabelerReactionRow(
                rank=rank,
                did=src,
                top_values=[value for value, _ in values.most_common(3)],
                unique_values=len(values),
                total=by_src_total[src],
                share_pct=100.0 * by_src_total[src] / total_all if total_all else 0.0,
                reaction=ReactionStats(len(times), q1, median, q3),
            )
        )
    return rows


@dataclass
class ValueReactionRow:
    """One point of Figure 6."""

    src: str
    value: str
    count: int
    reaction: ReactionStats


def value_reaction_times(datasets: StudyDatasets) -> list[ValueReactionRow]:
    grouped = _reaction_times_by(datasets, lambda label: (label.src, label.val))
    rows = []
    for (src, value), times in grouped.items():
        q1, median, q3 = _median_and_quartiles(times)
        rows.append(
            ValueReactionRow(
                src=src,
                value=value,
                count=len(times),
                reaction=ReactionStats(len(times), q1, median, q3),
            )
        )
    rows.sort(key=lambda row: -row.count)
    return rows


# ---------------------------------------------------------------------------
# Label statistics (Section 6.2 text)
# ---------------------------------------------------------------------------


@dataclass
class LabelStatistics:
    total_interactions: int = 0
    rescinded: int = 0
    labeled_objects: int = 0
    distinct_values_raw: int = 0
    distinct_values_clean: int = 0
    multi_labeler_objects: int = 0
    official_and_community_objects: int = 0
    labeled_window_posts: int = 0
    window_posts: int = 0

    @property
    def multi_labeler_share(self) -> float:
        return self.multi_labeler_objects / self.labeled_objects if self.labeled_objects else 0.0

    @property
    def overlap_share(self) -> float:
        return (
            self.official_and_community_objects / self.labeled_objects
            if self.labeled_objects
            else 0.0
        )


def label_statistics(datasets: StudyDatasets, official_did: str) -> LabelStatistics:
    stats = LabelStatistics()
    stats.total_interactions = len(datasets.labels.labels)
    stats.rescinded = sum(1 for label in datasets.labels.labels if label.neg)
    applied_values: set = set()
    all_values: set = set()
    sources_by_object: dict[str, set] = defaultdict(set)
    labeled_objects: set = set()
    ever_applied: set = set()
    for label in datasets.labels.labels:
        all_values.add(label.val)
        if not label.neg:
            applied_values.add(label.val)
            labeled_objects.add(label.uri)
            sources_by_object[label.uri].add(label.src)
            ever_applied.add((label.uri, label.val, label.src))
    # "Cleaning" removes negations that never had a matching application.
    stats.distinct_values_raw = len(all_values)
    stats.distinct_values_clean = len(applied_values)
    stats.labeled_objects = len(labeled_objects)
    for uri, sources in sources_by_object.items():
        if len(sources) > 1:
            stats.multi_labeler_objects += 1
            if official_did in sources:
                stats.official_and_community_objects += 1
    post_times = datasets.firehose.post_created_us
    stats.window_posts = len(post_times)
    stats.labeled_window_posts = sum(1 for uri in labeled_objects if uri in post_times)
    return stats


# ---------------------------------------------------------------------------
# Hosting classes (Section 6.1 IP analysis)
# ---------------------------------------------------------------------------


@dataclass
class LabelerHosting:
    cloud_or_proxied: int = 0
    residential: int = 0
    unreachable: int = 0


def labeler_hosting(datasets: StudyDatasets) -> LabelerHosting:
    result = LabelerHosting()
    for status in datasets.labels.statuses.values():
        if not status.reachable or status.ip is None:
            result.unreachable += 1
            continue
        hosting_class = IpAllocator.classify(status.ip)
        if hosting_class == HostingClass.RESIDENTIAL:
            result.residential += 1
        else:
            result.cloud_or_proxied += 1
    return result


@dataclass
class LabelRegimes:
    """Section 6.3: the official labeler's two issuance regimes.

    NSFW-style values (porn, nudity, gore...) are applied within seconds by
    automated classifiers; deliberated values (spam, !takedown, intolerant,
    sexual-figurative) take much longer — "heavy-handed moderation
    decisions such as removing data are deliberated instead of automated".
    """

    automated_values: list = field(default_factory=list)  # (value, median_s)
    manual_values: list = field(default_factory=list)


def official_label_regimes(
    datasets: StudyDatasets, official_did: str, threshold_s: float = 60.0
) -> LabelRegimes:
    """Split the official labeler's values by reaction-time regime."""
    regimes = LabelRegimes()
    for row in value_reaction_times(datasets):
        if row.src != official_did:
            continue
        bucket = (
            regimes.automated_values
            if row.reaction.median_s < threshold_s
            else regimes.manual_values
        )
        bucket.append((row.value, row.reaction.median_s))
    return regimes


def find_official_labeler_did(datasets: StudyDatasets) -> Optional[str]:
    """The busiest labeler announced before the community opening — in
    practice, the Bluesky official labeler."""
    earliest: Optional[tuple[int, str]] = None
    for did, created_us in datasets.repositories.labeler_services:
        if created_us is None:
            continue
        if earliest is None or created_us < earliest[0]:
            earliest = (created_us, did)
    return earliest[1] if earliest else None
