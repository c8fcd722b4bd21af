"""Export analysis artefacts as CSV / JSON files.

Writes one machine-readable file per paper artefact so external plotting
tools can draw the real figures.  Returns the list of paths written.

Every file is published atomically (write-temp-then-``os.replace``, see
:mod:`repro.core.atomicio`): a crash mid-export leaves either the
previous complete artefact or nothing, never a torn file.
"""

from __future__ import annotations

import json

from repro.core.analysis import activity, feeds, graph, identity, moderation, summary
from repro.core.atomicio import atomic_write_csv, atomic_write_json, atomic_write_text
from repro.core.pipeline import StudyDatasets


def _write_csv(path: str, headers, rows) -> None:
    atomic_write_csv(path, headers, rows)


def export_artefacts(datasets: StudyDatasets, directory: str) -> list[str]:
    """Write every table/figure's underlying data; returns file paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    written: list[str] = []

    def out(name: str) -> str:
        path = os.path.join(directory, name)
        written.append(path)
        return path

    # Table 1
    _write_csv(
        out("table1_firehose_events.csv"),
        ("event_type", "total", "share_pct"),
        [
            (r.event_type, r.total, "%.4f" % r.share_pct)
            for r in summary.table1_firehose_event_types(datasets)
        ],
    )

    # Figure 1
    fig1 = activity.daily_activity(datasets)
    _write_csv(
        out("fig1_daily_activity.csv"),
        ("day", "active_users", "posts", "likes", "reposts", "follows", "blocks"),
        [
            (
                day,
                fig1.active_users.get(day, 0),
                fig1.ops_by_type["posts"].get(day, 0),
                fig1.ops_by_type["likes"].get(day, 0),
                fig1.ops_by_type["reposts"].get(day, 0),
                fig1.ops_by_type["follows"].get(day, 0),
                fig1.ops_by_type["blocks"].get(day, 0),
            )
            for day in fig1.days
        ],
    )

    # Figure 2
    fig2 = activity.language_communities(datasets)
    rows = []
    for lang, series in sorted(fig2.daily_active_by_lang.items()):
        for day, count in sorted(series.items()):
            rows.append((lang, day, count))
    _write_csv(out("fig2_language_activity.csv"), ("lang", "day", "active_users"), rows)

    # Figure 3
    fig3 = identity.subdomain_distribution(datasets)
    _write_csv(
        out("fig3_handles_per_domain.csv"),
        ("registered_domain", "handles"),
        fig3.handles_per_domain.most_common(),
    )

    # Table 2
    _write_csv(
        out("table2_registrars.csv"),
        ("iana_id", "registrar", "total", "share_pct"),
        [
            (r.iana_id, r.registrar_name, r.total, "%.4f" % r.share_pct)
            for r in identity.table2_registrars(datasets, top_n=50)
        ],
    )

    # Figure 4
    official = moderation.find_official_labeler_did(datasets) or ""
    fig4 = moderation.label_growth(datasets, official)
    _write_csv(
        out("fig4_label_growth.csv"),
        ("month", "official_labels", "community_labels", "community_labelers"),
        [
            (
                month,
                fig4.official_by_month.get(month, 0),
                fig4.community_by_month.get(month, 0),
                fig4.labeler_count_by_month.get(month, 0),
            )
            for month in fig4.months
        ],
    )

    # Tables 3, 4, 6 and Figures 5, 6
    _write_csv(
        out("table3_top_labelers.csv"),
        ("rank", "applied", "did", "likes"),
        [
            (r.rank, r.applied, r.did, r.likes)
            for r in moderation.table3_top_community_labelers(datasets, official)
        ],
    )
    _write_csv(
        out("table4_label_targets.csv"),
        ("object_type", "objects", "share_pct", "top_labels"),
        [
            (r.object_type, r.objects, "%.4f" % r.share_pct, json.dumps(r.top_labels))
            for r in moderation.table4_label_targets(datasets)
        ],
    )
    _write_csv(
        out("table6_labeler_reactions.csv"),
        ("rank", "did", "top_values", "unique", "total", "share_pct", "median_s", "iqd_s"),
        [
            (
                r.rank,
                r.did,
                "|".join(r.top_values),
                r.unique_values,
                r.total,
                "%.4f" % r.share_pct,
                "%.3f" % r.reaction.median_s,
                "%.3f" % r.reaction.iqd_s,
            )
            for r in moderation.labeler_reaction_times(datasets)
        ],
    )
    _write_csv(
        out("fig6_value_reactions.csv"),
        ("src", "value", "count", "median_s", "q1_s", "q3_s"),
        [
            (r.src, r.value, r.count, "%.3f" % r.reaction.median_s,
             "%.3f" % r.reaction.q1_s, "%.3f" % r.reaction.q3_s)
            for r in moderation.value_reaction_times(datasets)
        ],
    )

    # Figure 7
    fig7 = feeds.feed_growth(datasets)
    _write_csv(
        out("fig7_feed_growth.csv"),
        ("day", "cumulative_feeds", "cumulative_likes", "cumulative_followers"),
        [
            (
                day,
                fig7.cumulative_feeds.get(day, 0),
                fig7.cumulative_feed_likes.get(day, 0),
                fig7.cumulative_creator_followers.get(day, 0),
            )
            for day in fig7.days
        ],
    )

    # Figures 8-10, 12
    _write_csv(
        out("fig8_description_words.csv"),
        ("word", "count"),
        feeds.description_word_frequencies(datasets, top_n=100),
    )
    fig9 = feeds.feed_label_analysis(datasets)
    _write_csv(
        out("fig9_feed_labels.csv"),
        ("dominant_label", "feeds"),
        fig9.dominant_label_counts.most_common(),
    )
    _write_csv(
        out("fig10_posts_vs_likes.csv"),
        ("feed_uri", "posts", "likes"),
        [(p.uri, p.posts, p.likes) for p in feeds.posts_vs_likes(datasets)],
    )
    _write_csv(
        out("fig12_providers.csv"),
        ("provider", "feeds", "feed_share", "posts", "post_share", "likes", "like_share"),
        [
            (
                r.provider,
                r.feeds,
                "%.5f" % r.feed_share,
                r.posts,
                "%.5f" % r.post_share,
                r.likes,
                "%.5f" % r.like_share,
            )
            for r in feeds.provider_shares(datasets)
        ],
    )

    # Figure 11
    analysis = graph.degree_distributions(datasets)
    _write_csv(
        out("fig11_in_degree.csv"),
        ("degree", "accounts", "feed_creators"),
        [
            (degree, count, analysis.in_degree.creator_histogram.get(degree, 0))
            for degree, count in sorted(analysis.in_degree.histogram.items())
        ],
    )
    _write_csv(
        out("fig11_out_degree.csv"),
        ("degree", "accounts", "feed_creators"),
        [
            (degree, count, analysis.out_degree.creator_histogram.get(degree, 0))
            for degree, count in sorted(analysis.out_degree.histogram.items())
        ],
    )

    # Table 5 (static) + dataset overview
    atomic_write_json(out("table5_features.json"), feeds.table5_feature_matrix())
    overview = summary.dataset_overview(datasets)
    atomic_write_json(out("dataset_overview.json"), overview.__dict__)

    # Integrity/quarantine ledger (what was rejected, from whom, and why)
    if datasets.integrity is not None:
        atomic_write_json(out("integrity.json"), datasets.integrity.to_jsonable())

    telemetry = datasets.telemetry
    if telemetry is not None:
        # Deterministic by construction: only virtual-time / counted
        # series are non-volatile, so two same-seed runs (and a resumed
        # run) write byte-identical files.  ``metrics.prom`` renders the
        # same registry and inherits the guarantee; ``events.jsonl``
        # carries a wall clock column by design (dual clocks) — strip
        # it to compare runs.
        atomic_write_text(out("metrics.json"), telemetry.metrics_json())
        atomic_write_text(out("metrics.prom"), telemetry.metrics_openmetrics())
        events = telemetry.events_jsonl()
        if events:
            atomic_write_text(out("events.jsonl"), events)
        if telemetry.tracer.enabled:
            atomic_write_json(out("trace.json"), telemetry.tracer.export())

    return written


# ---------------------------------------------------------------------------
# Artefact fingerprinting (sharded-determinism guardrail)
# ---------------------------------------------------------------------------


def firehose_frame_observer(world):
    """Attach a wire-frame digest subscriber to ``world``'s firehose.

    Must be called BEFORE the world runs.  Returns a zero-argument
    closure yielding the running sha256 hex digest over every frame
    published so far — the byte-level half of the identity check the
    sharding tests and the bench guardrail share (the retention window
    prunes old events, so hashing frames as they are published is the
    only way to cover the whole stream).
    """
    import hashlib

    hasher = hashlib.sha256()
    world.relay.firehose.subscribe(lambda event: hasher.update(event.wire_frame()))
    return hasher.hexdigest


def study_fingerprint(datasets: StudyDatasets, frame_digest=None) -> str:
    """One hash over the run's externally visible artefacts.

    Folds Table 1, the metrics registry snapshot, and the firehose
    dataset's counters — plus an optional wire-frame digest captured by
    :func:`firehose_frame_observer` — into a single sha256 hex digest.
    Two runs of the same seed must fingerprint identically, through
    crash/resume interruptions and under any ``PYTHONHASHSEED``; the
    tiny seed-2024 value is pinned in ``tests/simulation/test_sharding.py``.
    """
    import hashlib

    from repro.core import report

    hasher = hashlib.sha256()
    hasher.update(report.render_table1(datasets).encode())
    telemetry = datasets.telemetry
    if telemetry is not None:
        hasher.update(telemetry.metrics_json().encode())
    fh = datasets.firehose
    hasher.update(
        repr(
            (
                sorted(fh.event_counts.items()),
                sorted(fh.op_counts.items()),
                fh.handle_updates,
                fh.tombstoned_dids,
                fh.bytes_received,
                fh.dropped_events,
            )
        ).encode()
    )
    if frame_digest is not None:
        digest = frame_digest() if callable(frame_digest) else frame_digest
        hasher.update(digest.encode())
    return hasher.hexdigest()
