"""Text rendering of every table and figure.

Benchmarks and examples print through these helpers so the output shape
mirrors the paper's tables (same columns) and figures (series of points).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.pipeline import StudyDatasets
from repro.core.analysis import (  # noqa: F401 (re-exported for callers)
    activity,
    feeds,
    graph,
    identity,
    moderation,
    summary,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table rendering."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Compact text rendering of a series (for figure outputs)."""
    if not values:
        return "(empty)"
    blocks = " ▁▂▃▄▅▆▇█"
    peak = max(values) or 1.0
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    return "".join(blocks[min(8, int(8 * value / peak))] for value in values)


# ---------------------------------------------------------------------------
# Per-artefact renderers
# ---------------------------------------------------------------------------


def render_table1(datasets: StudyDatasets) -> str:
    rows = summary.table1_firehose_event_types(datasets)
    body = format_table(
        ("Event Type", "# Total", "Share (%)"),
        [(r.event_type, r.total, "%.2f" % r.share_pct) for r in rows],
    )
    return "Table 1: Overview of Firehose event types\n" + body


def render_fig1(datasets: StudyDatasets) -> str:
    fig = activity.daily_activity(datasets)
    actives = [fig.active_users.get(day, 0) for day in fig.days]
    posts = [fig.ops_by_type["posts"].get(day, 0) for day in fig.days]
    likes = [fig.ops_by_type["likes"].get(day, 0) for day in fig.days]
    lines = [
        "Figure 1: Daily operation and active user counts",
        "days: %s .. %s (%d)" % (fig.days[0], fig.days[-1], len(fig.days)) if fig.days else "(no data)",
        "active  %s  (peak %d)" % (sparkline(actives), max(actives) if actives else 0),
        "posts   %s  (peak %d)" % (sparkline(posts), max(posts) if posts else 0),
        "likes   %s  (peak %d)" % (sparkline(likes), max(likes) if likes else 0),
    ]
    return "\n".join(lines)


def render_fig2(datasets: StudyDatasets) -> str:
    fig = activity.language_communities(datasets)
    lines = ["Figure 2: Active user counts per language community"]
    for lang, total in fig.users_per_language.most_common():
        series = fig.daily_active_by_lang.get(lang, {})
        days = sorted(series)
        values = [series[d] for d in days]
        lines.append(
            "%-3s users=%-6d %s" % (lang, total, sparkline(values))
        )
    return "\n".join(lines)


def render_fig3(datasets: StudyDatasets) -> str:
    fig = identity.subdomain_distribution(datasets)
    body = format_table(
        ("Registered domain", "# handles"),
        fig.top(12),
    )
    return (
        "Figure 3: Subdomain handles per registered domain (bsky.social excluded)\n"
        + body
    )


def render_table2(datasets: StudyDatasets) -> str:
    rows = identity.table2_registrars(datasets)
    body = format_table(
        ("IANA ID", "Registrar Name", "# Total", "Share (%)"),
        [(r.iana_id, r.registrar_name, r.total, "%.2f%%" % r.share_pct) for r in rows],
    )
    return "Table 2: Domain name handles per registrar\n" + body


def render_fig4(datasets: StudyDatasets) -> str:
    official = moderation.find_official_labeler_did(datasets) or ""
    fig = moderation.label_growth(datasets, official)
    rows = []
    for month in fig.months:
        rows.append(
            (
                month,
                fig.official_by_month.get(month, 0),
                fig.community_by_month.get(month, 0),
                fig.labeler_count_by_month.get(month, 0),
            )
        )
    body = format_table(("Month", "Official labels", "Community labels", "# community labelers"), rows)
    return "Figure 4: Labels produced by source per month\n" + body


def render_table3(datasets: StudyDatasets) -> str:
    official = moderation.find_official_labeler_did(datasets) or ""
    rows = moderation.table3_top_community_labelers(datasets, official)
    body = format_table(
        ("Rank", "# Applied", "Labeler DID", "Likes"),
        [(r.rank, r.applied, r.did, r.likes) for r in rows],
    )
    return "Table 3: Top community labelers by labels applied\n" + body


def render_table4(datasets: StudyDatasets) -> str:
    rows = moderation.table4_label_targets(datasets)
    body = format_table(
        ("Object Type", "# Objects", "Share (%)", "Top Labels"),
        [
            (
                r.object_type,
                r.objects,
                "%.2f" % r.share_pct,
                ", ".join("%s (%d)" % pair for pair in r.top_labels),
            )
            for r in rows
        ],
    )
    return "Table 4: Label targets with most-applied labels\n" + body


def render_fig5(datasets: StudyDatasets) -> str:
    rows = moderation.labeler_reaction_times(datasets)
    body = format_table(
        ("Labeler", "# Labels", "Median RT [s]", "IQD [s]"),
        [
            (r.did[:24], r.total, "%.2f" % r.reaction.median_s, "%.2f" % r.reaction.iqd_s)
            for r in rows
        ],
    )
    return "Figure 5: Labels produced by source vs reaction time\n" + body


def render_fig6(datasets: StudyDatasets) -> str:
    rows = moderation.value_reaction_times(datasets)[:25]
    body = format_table(
        ("Labeler", "Value", "# Labels", "Median RT [s]"),
        [(r.src[:20], r.value, r.count, "%.2f" % r.reaction.median_s) for r in rows],
    )
    return "Figure 6: Labels per value vs reaction time\n" + body


def render_table6(datasets: StudyDatasets) -> str:
    rows = moderation.labeler_reaction_times(datasets)
    body = format_table(
        ("Rank", "DID", "Top Values", "# Unique", "# Total", "Share (%)", "Median [s]", "IQD [s]"),
        [
            (
                r.rank,
                r.did[:28],
                ", ".join(r.top_values),
                r.unique_values,
                r.total,
                "%.2f" % r.share_pct,
                "%.2f" % r.reaction.median_s,
                "%.2f" % r.reaction.iqd_s,
            )
            for r in rows
        ],
    )
    return "Table 6: Reaction time of labelers to posts\n" + body


def render_fig7(datasets: StudyDatasets) -> str:
    fig = feeds.feed_growth(datasets)
    if not fig.days:
        return "Figure 7: (no feed generator data)"
    final_day = fig.days[-1]
    series_feeds = [fig.cumulative_feeds.get(d, 0) for d in fig.days]
    series_likes = [fig.cumulative_feed_likes.get(d, 0) for d in fig.days]
    series_follow = [fig.cumulative_creator_followers.get(d, 0) for d in fig.days]
    return "\n".join(
        [
            "Figure 7: Cumulative feed generators / likes / creator followers",
            "feeds     %s  (final %d)" % (sparkline(series_feeds), fig.cumulative_feeds[final_day]),
            "likes     %s  (final %d)" % (sparkline(series_likes), fig.cumulative_feed_likes[final_day]),
            "followers %s  (final %d)"
            % (sparkline(series_follow), fig.cumulative_creator_followers[final_day]),
        ]
    )


def render_fig8(datasets: StudyDatasets) -> str:
    words = feeds.description_word_frequencies(datasets, top_n=20)
    body = format_table(("Word", "Count"), words)
    return "Figure 8: Most common words in feed descriptions\n" + body


def render_fig9(datasets: StudyDatasets) -> str:
    stats = feeds.feed_label_analysis(datasets)
    lines = [
        "Figure 9: Top labels of heavily-labeled feeds",
        "feeds examined: %d, with labels: %d (%.1f%%), heavily labeled: %d (%.2f%%)"
        % (
            stats.feeds_examined,
            stats.feeds_with_any_label,
            100 * stats.labeled_share,
            stats.heavily_labeled,
            100 * stats.heavily_labeled_share,
        ),
    ]
    for value, count in stats.dominant_label_counts.most_common(10):
        lines.append("  %-20s %d feeds" % (value, count))
    return "\n".join(lines)


def render_fig10(datasets: StudyDatasets) -> str:
    summary_stats = feeds.posts_vs_likes_summary(datasets)
    points = feeds.posts_vs_likes(datasets)
    top_liked = sorted(points, key=lambda p: -p.likes)[:5]
    top_posted = sorted(points, key=lambda p: -p.posts)[:5]
    lines = [
        "Figure 10: Feed posts vs likes",
        "feeds: %d, never posted: %d, high-like zero-post (personalized): %d"
        % (summary_stats.total_feeds, summary_stats.never_posted, summary_stats.high_like_no_post),
        "posts-likes correlation: %.3f" % summary_stats.correlation,
        "top liked: " + ", ".join("(%d posts, %d likes)" % (p.posts, p.likes) for p in top_liked),
        "top posted: " + ", ".join("(%d posts, %d likes)" % (p.posts, p.likes) for p in top_posted),
    ]
    return "\n".join(lines)


def render_fig11(datasets: StudyDatasets) -> str:
    analysis = graph.degree_distributions(datasets)
    return "\n".join(
        [
            "Figure 11: Follow degree distributions (feed creators highlighted)",
            "accounts: %d, creators: %d" % (analysis.accounts, analysis.creators),
            "mean in-degree: all=%.1f creators=%.1f"
            % (analysis.in_degree.mean_degree(), analysis.in_degree.mean_degree(True)),
            "mean out-degree: all=%.1f creators=%.1f"
            % (analysis.out_degree.mean_degree(), analysis.out_degree.mean_degree(True)),
            "creators skew popular: %s" % analysis.creators_skew_popular(),
        ]
    )


def render_fig12(datasets: StudyDatasets) -> str:
    rows = feeds.provider_shares(datasets)[:8]
    body = format_table(
        ("Provider (service DID)", "Feeds", "Feed %", "Posts %", "Likes %"),
        [
            (
                r.provider[:36],
                r.feeds,
                "%.1f%%" % (100 * r.feed_share),
                "%.1f%%" % (100 * r.post_share),
                "%.1f%%" % (100 * r.like_share),
            )
            for r in rows
        ],
    )
    top3 = feeds.top_provider_concentration(datasets)
    return "Figure 12: Feed hosting providers (top-3 share %.1f%%)\n%s" % (100 * top3, body)


def render_table5() -> str:
    matrix = feeds.table5_feature_matrix()
    platforms = ["Skyfeed", "Bluefeed", "Blueskyfeeds", "Goodfeeds", "Blueskyfeedcreator"]
    rows = []
    for feature in sorted(matrix):
        rows.append(
            [feature] + ["x" if matrix[feature].get(p) else "" for p in platforms]
        )
    body = format_table(["Feature"] + platforms, rows)
    return "Table 5: Feed-service feature matrix\n" + body


def render_collection_health(datasets: StudyDatasets) -> str:
    """Resilience accounting: what went wrong and what the crawlers did.

    Covers injected faults (when a fault plan was active), firehose
    disconnects / cursor-resumes / retention gaps, and per-collector retry
    totals — the run's answer to Section 2's collection-challenges
    discussion.  Renders sensibly for a fault-free run too.
    """
    fh = datasets.firehose
    repos = datasets.repositories
    lines = ["Collection health: injected faults, retries, and gaps"]
    if datasets.faults is None:
        lines.append("fault injection: off (fault-free run)")
    else:
        stats = datasets.faults
        lines.append(
            "fault injection: %d faults injected across %d dispatched calls, "
            "%.1fs latency added"
            % (
                stats.total_injected(),
                stats.calls_seen,
                stats.injected_latency_us / 1e6,
            )
        )
        if stats.injected_by_kind:
            lines.append(
                "  by kind:   "
                + ", ".join(
                    "%s=%d" % (kind, count)
                    for kind, count in sorted(stats.injected_by_kind.items())
                )
            )
        if stats.injected_by_status:
            lines.append(
                "  by status: "
                + ", ".join(
                    "%d=%d" % (status, count)
                    for status, count in sorted(stats.injected_by_status.items())
                )
            )
    lines.append(
        "firehose: %d disconnects, %d reconnects, %d events recovered by "
        "cursor-resume" % (fh.disconnects, fh.reconnects, fh.replayed_events)
    )
    if fh.gaps:
        lines.append(
            "firehose retention gaps: %d (%d events lost for good)"
            % (len(fh.gaps), fh.dropped_events)
        )
        for gap in fh.gaps[:5]:
            lines.append(
                "  cursor %d -> oldest available %s: %d dropped"
                % (gap.resume_cursor, gap.oldest_available_seq, gap.dropped)
            )
    else:
        lines.append("firehose retention gaps: none")
    lines.append(
        "repo crawl: %d requests (%d retries), %d DIDs requeued over %d "
        "skip-queue rounds, %d permanent failures"
        % (
            repos.requests_attempted,
            repos.transient_retries,
            repos.requeued_dids,
            repos.retry_rounds,
            len(repos.failed_dids),
        )
    )
    for did, reason in sorted(repos.failure_reasons.items())[:5]:
        lines.append("  %s: %s" % (did, reason))
    lines.append(
        "identifier crawls: %d page retries, %d aborted crawls"
        % (datasets.identifiers.page_retries, datasets.identifiers.aborted_crawls)
    )
    lines.append(
        "other retries: diddocs=%d labelers=%d feedgens=%d active-probes=%d"
        % (
            datasets.did_documents.transient_retries,
            datasets.labels.transient_retries,
            datasets.feed_generators.transient_retries,
            datasets.active.transient_retries,
        )
    )
    telemetry = datasets.telemetry
    if telemetry is not None:
        from repro.obs import profile

        failures = [
            (outcome, count)
            for outcome, count in profile.outcome_rows(telemetry.registry)
            if outcome != profile.OUTCOME_OK
        ]
        if failures:
            lines.append(
                "failed calls by cause: "
                + ", ".join("%s=%d" % pair for pair in failures)
            )
    return "\n".join(lines)


def render_telemetry(datasets: StudyDatasets) -> str:
    """The telemetry section: phases, hot hosts/NSIDs, call outcomes.

    Reads the study's metrics registry back (see ``repro.obs``): per-phase
    virtual/wall durations, the top hosts and method NSIDs by call
    volume, and the outcome breakdown that attributes connection errors
    (unknown host vs down host vs injected faults).
    """
    from repro.obs import profile

    lines = ["Telemetry: phases, hot hosts, and call outcomes"]
    telemetry = datasets.telemetry
    if telemetry is None:
        return lines[0]

    phase_rows = telemetry.phase_rows()
    if phase_rows:
        lines.append("")
        lines.append(
            format_table(
                ("phase", "runs", "virtual", "wall"),
                [
                    (name, runs, _fmt_us(virtual_us), _fmt_us(wall_us))
                    for name, runs, virtual_us, wall_us in phase_rows
                ],
            )
        )

    registry = telemetry.registry
    hosts = profile.host_rows(registry, top_n=10)
    if hosts:
        lines.append("")
        lines.append("top hosts by XRPC calls:")
        lines.append(format_table(("host", "calls", "errors"), hosts))
    nsids = profile.nsid_rows(registry, top_n=10)
    if nsids:
        lines.append("")
        lines.append("top method NSIDs:")
        lines.append(format_table(("nsid", "calls", "errors"), nsids))
    outcomes = profile.outcome_rows(registry)
    if outcomes:
        lines.append("")
        lines.append(
            "call outcomes: "
            + ", ".join("%s=%d" % (outcome, count) for outcome, count in outcomes)
        )

    lines.append("")
    stats = telemetry.tracer.stats()
    if telemetry.tracer.enabled:
        lines.append(
            "trace: %d events recorded (1-in-%d sampling, %d dropped)"
            % (stats["events"], stats["sample_every"], stats["dropped"])
        )
    else:
        lines.append("trace: off (enable with --trace-out)")
    event_stats = telemetry.events.stats()
    if event_stats["events"]:
        lines.append(
            "events: %d recorded (%d dropped past cap)"
            % (event_stats["events"], event_stats["dropped"])
        )
    return "\n".join(lines)


def _fmt_us(value) -> str:
    """Compact human duration for microsecond quantities."""
    if value is None:
        return "-"
    if value >= 86_400_000_000:
        return "%.1fd" % (value / 86_400_000_000)
    if value >= 3_600_000_000:
        return "%.1fh" % (value / 3_600_000_000)
    if value >= 60_000_000:
        return "%.1fm" % (value / 60_000_000)
    if value >= 1_000_000:
        return "%.1fs" % (value / 1_000_000)
    if value >= 1_000:
        return "%.1fms" % (value / 1_000)
    return "%dus" % value


def render_integrity(datasets: StudyDatasets) -> str:
    """Byzantine-data accounting: verification volume and quarantines.

    Every collector passes its data through the integrity monitor (block
    digests vs CIDs, commit signatures vs DID-document keys, MST
    invariants, frame decoding, PDS membership cross-checks, handle
    round-trips); anything that fails is quarantined and attributed here
    to the host that served it, per corruption kind.
    """
    lines = ["Data integrity: verification and quarantine accounting"]
    report = datasets.integrity
    if report is None:
        lines.append("integrity monitoring: off")
        return "\n".join(lines)
    if report.checked:
        lines.append(
            "verified: "
            + ", ".join(
                "%s=%d" % (kind, report.checked[kind]) for kind in sorted(report.checked)
            )
        )
    else:
        lines.append("verified: nothing collected")
    adversary = datasets.adversary
    if adversary is not None and adversary.total():
        lines.append(
            "adversary: %d items tampered ("
            % adversary.total()
            + ", ".join(
                "%s=%d" % (kind, count) for kind, count in sorted(adversary.by_kind().items())
            )
            + ")"
        )
    if not report.quarantined:
        lines.append("quarantined: nothing — every item passed verification")
        return "\n".join(lines)
    lines.append("quarantined: %d items" % report.total_quarantined())
    lines.append(
        format_table(
            ("host", "kind", "quarantined"),
            [
                (host, kind, count)
                for (host, kind), count in sorted(report.counts.items())
            ],
        )
    )
    for item in sorted(report.quarantined, key=lambda q: (q.host, q.kind, q.item))[:10]:
        lines.append("  %s [%s] %s: %s" % (item.host, item.kind, item.item, item.detail))
    return "\n".join(lines)


def full_report(datasets: StudyDatasets) -> str:
    """Every table and figure, in paper order."""
    sections = [
        render_table1(datasets),
        render_fig1(datasets),
        render_fig2(datasets),
        render_fig3(datasets),
        render_table2(datasets),
        render_fig4(datasets),
        render_table3(datasets),
        render_table4(datasets),
        render_fig5(datasets),
        render_fig6(datasets),
        render_table6(datasets),
        render_fig7(datasets),
        render_fig8(datasets),
        render_fig9(datasets),
        render_fig10(datasets),
        render_fig11(datasets),
        render_fig12(datasets),
        render_table5(),
        render_collection_health(datasets),
        render_integrity(datasets),
        render_telemetry(datasets),
    ]
    return ("\n\n" + "=" * 72 + "\n\n").join(sections)
