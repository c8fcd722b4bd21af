"""Tests for the measurement pipeline's schedule and wiring."""

import pytest

from repro.core.export import study_fingerprint
from repro.core.pipeline import MeasurementPipeline, run_study
from repro.simulation.config import (
    FIREHOSE_COLLECT_START_US,
    LABEL_SNAPSHOT_US,
    REPO_SNAPSHOT_US,
    SimulationConfig,
)
from repro.simulation.world import World


@pytest.fixture(scope="module")
def other_seed():
    """(world, datasets) of a seed-1 tiny study."""
    return run_study(SimulationConfig.tiny(seed=1))


class TestSchedule:
    def test_actions_registered_before_run(self):
        world = World(SimulationConfig.tiny())
        MeasurementPipeline(world)
        times = [t for t, _ in world.scheduled_actions]
        assert any(t == REPO_SNAPSHOT_US for t in times)
        # Daily labeler reconnects: dozens of scheduled actions.
        assert len(times) > 50

    def test_snapshot_happens_mid_run(self, study_datasets):
        # The repo snapshot must reflect April 24, not the end of the
        # simulation: no record may postdate the snapshot time.
        repos = study_datasets.repositories
        for row in repos.posts:
            if row.created_us is not None and row.created_us > 0:
                assert row.created_us <= repos.time_us

    def test_identifier_crawls_precede_snapshot(self, study_datasets):
        crawl_times = [s.time_us for s in study_datasets.identifiers.snapshots]
        assert min(crawl_times) >= FIREHOSE_COLLECT_START_US
        assert crawl_times == sorted(crawl_times)

    def test_labels_cut_at_snapshot_date(self, study_datasets):
        assert all(l.cts <= LABEL_SNAPSHOT_US for l in study_datasets.labels.labels)

    def test_datasets_accessor_matches_run_result(self, reference):
        again = reference.pipeline.datasets()
        assert reference.datasets.repositories is again.repositories
        assert reference.datasets.labels is again.labels

    def test_run_study_convenience(self, other_seed):
        world, datasets = other_seed
        assert world._ran
        assert datasets.firehose.total_events() > 0

    def test_study_is_deterministic(self, study_datasets, clean_rerun):
        a, b = study_datasets, clean_rerun.datasets
        assert a.firehose.total_events() == b.firehose.total_events()
        assert len(a.labels.labels) == len(b.labels.labels)
        assert a.repositories.operation_totals() == b.repositories.operation_totals()

    def test_different_seeds_differ(self, other_seed, study_datasets):
        _, datasets = other_seed
        assert datasets.firehose.total_events() != study_datasets.firehose.total_events()
        assert study_fingerprint(datasets) != study_fingerprint(study_datasets)


class TestCrossDatasetConsistency:
    def test_firehose_posts_subset_of_network(self, study_world, study_datasets):
        """Every post the firehose saw was indexed by the appview (unless
        later deleted)."""
        appview_posts = set(study_world.appview.index.posts)
        firehose_posts = set(study_datasets.firehose.post_created_us)
        deleted = sum(
            count
            for (collection, action), count in study_datasets.firehose.op_counts.items()
            if collection == "app.bsky.feed.post" and action == "delete"
        )
        missing = firehose_posts - appview_posts
        assert len(missing) <= deleted + 5

    def test_feedgen_records_agree_between_sources(self, study_datasets):
        from_repos = {row.uri for row in study_datasets.repositories.feed_generators}
        discovered = study_datasets.feed_generators.discovered
        assert from_repos <= discovered

    def test_labeler_dids_resolvable(self, study_world, study_datasets):
        for did, _ in study_datasets.repositories.labeler_services[:10]:
            assert study_world.plc.resolve(did) is not None

    def test_observed_feed_posts_exist_in_repo_dataset_or_later(self, study_datasets):
        """Feed-crawled posts correlate with the repositories dataset (the
        paper's Feed Post Dataset method), modulo posts created after the
        repo snapshot."""
        repo_posts = {
            "at://%s/app.bsky.feed.post/%s" % (p.did, p.rkey)
            for p in study_datasets.repositories.posts
        }
        observed = [
            uri
            for posts in study_datasets.feed_generators.feed_posts.values()
            for uri in posts
        ]
        if observed:
            matched = sum(1 for uri in observed if uri in repo_posts)
            assert matched / len(observed) > 0.3
