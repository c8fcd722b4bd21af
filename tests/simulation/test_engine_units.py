"""Unit-level tests for engine internals on a running tiny world."""

import pytest

from repro.atproto.lexicon import BLOCK, FOLLOW, LIKE, POST
from repro.simulation.clock import US_PER_DAY, date_us
from repro.simulation.config import LABEL_SNAPSHOT_US
from tests.conftest import live_users, official_labeler


class TestSessionOutputs:
    def test_posts_carry_language_tags_mostly(self, study_world):
        posts = list(study_world.appview.index.posts.values())
        tagged = sum(1 for p in posts if p.langs)
        assert tagged / len(posts) > 0.8

    def test_media_posts_exist(self, study_world):
        posts = list(study_world.appview.index.posts.values())
        assert any(p.has_media for p in posts)

    def test_session_times_stay_inside_their_day(self, study_world):
        """Clamped sessions: no post is timestamped past its day's end."""
        from repro.simulation.clock import day_key

        for view in list(study_world.appview.index.posts.values())[:500]:
            # time_us within a valid day implies day_key parses cleanly.
            assert len(day_key(view.time_us)) == 10

    def test_bogus_created_at_exists_at_scale(self, study_world):
        """A handful of posts carry the pre-launch createdAt bug."""
        bogus = [
            view
            for view in study_world.appview.index.posts.values()
            if view.created_at[:4] in ("1185", "1776", "1923")
        ]
        # Tiny worlds may legitimately have zero; the rate is 2.5e-4.
        assert len(bogus) <= max(5, len(study_world.appview.index.posts) // 500)

    def test_likes_reference_real_subjects(self, study_world):
        sampled = 0
        for user in live_users(study_world)[:10]:
            repo = user.pds.repo(user.did)
            for path, record in repo.list_records(LIKE):
                subject = record["subject"]["uri"]
                assert subject.startswith("at://")
                sampled += 1
                if sampled > 30:
                    return

    def test_follow_subjects_are_users_or_labelers(self, study_world):
        known = {u.did for u in study_world.users if u.joined}
        known.update(r.did for r in study_world.labelers if r.did)
        checked = 0
        for user in live_users(study_world)[:10]:
            repo = user.pds.repo(user.did)
            for path, record in repo.list_records(FOLLOW):
                assert record["subject"] in known
                checked += 1
        assert checked > 0


class TestLabelTiming:
    def test_no_label_predates_its_labeler(self, study_world):
        for runtime in study_world.labelers:
            if runtime.service is None:
                continue
            for label in runtime.service.xrpc_subscribeLabels(cursor=0, limit=20):
                # Reaction delays are non-negative, so cts can never come
                # before the labeler's own start (modulo the forced-label
                # floor, which is clamped to >= start too).
                assert label.cts >= runtime.spec.start_us - US_PER_DAY

    def test_labels_reference_network_objects(self, study_world):
        official = official_labeler(study_world)
        for label in official.service.xrpc_subscribeLabels(cursor=0, limit=50):
            assert label.uri.startswith(("at://", "did:"))

    def test_rescinds_follow_applications(self, study_world):
        for runtime in study_world.labelers:
            if runtime.service is None:
                continue
            seen = set()
            for label in runtime.service.xrpc_subscribeLabels(cursor=0):
                key = (label.uri, label.val)
                if label.neg:
                    assert key in seen, "negation without prior application"
                seen.add(key)


class TestWorldInvariants:
    def test_every_live_user_resolvable_and_hosted(self, study_world):
        for user in live_users(study_world)[:30]:
            assert study_world.relay.cached_repo(user.did) is not None

    def test_firehose_seq_dense(self, study_world):
        from repro.atproto.events import KIND_INFO

        events = study_world.relay.firehose.events_since(0)
        seqs = [e.seq for e in events if e.kind != KIND_INFO]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        # An 18-month timeline with 3-day retention must have pruned, and
        # the cursor-0 replay must announce that instead of hiding it.
        if seqs[0] > 1:
            assert events[0].kind == KIND_INFO
            assert events[0].dropped == seqs[0] - 1

    def test_self_hosted_pdses_crawled(self, study_world):
        for pds in study_world.self_hosted_pdses:
            for did in pds.dids():
                assert study_world.relay.hosting_pds(did) is pds

    def test_feed_platform_feed_counts_consistent(self, study_world):
        for name, platform in study_world.feed_platforms.items():
            announced = [
                f
                for f in study_world.feeds
                if f.announced and f.endpoint == platform.endpoint and f.feed_obj is not None
            ]
            assert platform.feed_count() == len(announced)
