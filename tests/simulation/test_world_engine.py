"""Integration tests for the world + engine on the shared tiny study."""

import pytest

from repro.atproto.events import KIND_COMMIT
from repro.netsim.dns import DnsRecordType
from repro.simulation.clock import date_us
from repro.simulation.config import COMMUNITY_LABELERS_OPEN_US, PUBLIC_OPENING_US
from repro.simulation.engine import active_fraction, poisson
from tests.conftest import live_users, official_labeler


class TestHelpers:
    def test_poisson_zero_rate(self):
        import random

        assert poisson(random.Random(0), 0.0) == 0

    def test_poisson_mean(self):
        import random

        rng = random.Random(1)
        samples = [poisson(rng, 3.0) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert 2.7 < mean < 3.3

    def test_active_fraction_declines_after_march(self):
        assert active_fraction(date_us("2024-03-02")) > active_fraction(date_us("2024-05-01"))

    def test_active_fraction_bumps_at_opening(self):
        assert active_fraction(PUBLIC_OPENING_US + 1) > active_fraction(PUBLIC_OPENING_US - 86400 * 10**6 * 5)


class TestWorldState(object):
    def test_all_scheduled_users_joined_or_pending(self, study_world):
        joined = [u for u in study_world.users if u.joined]
        assert len(joined) == len(study_world.users)

    def test_repos_exist_for_live_users(self, study_world):
        for user in live_users(study_world)[:20]:
            assert user.pds.has_account(user.did)

    def test_tombstoned_users_removed(self, study_world):
        tombstoned = [u for u in study_world.users if u.tombstoned]
        for user in tombstoned:
            assert not user.pds.has_account(user.did)
            if user.spec.identity_method == "plc":
                assert study_world.plc.resolve(user.did) is None

    def test_did_documents_resolve(self, study_world):
        for user in live_users(study_world)[:20]:
            doc = study_world.resolver.resolve(user.did)
            assert doc is not None
            assert doc.pds_endpoint == user.pds.url

    def test_handle_proofs_published(self, study_world):
        from repro.identity.handles import HandleResolver

        resolver = HandleResolver(study_world.dns, study_world.web)
        checked = 0
        for user in live_users(study_world):
            if user.handle_changes_done:
                continue
            probe = resolver.probe(user.current_handle)
            assert probe.did == user.did
            checked += 1
            if checked >= 15:
                break
        assert checked > 0

    def test_firehose_commit_majority(self, study_world):
        # Table 1 shape: commits dominate the event mix.
        firehose = study_world.relay.firehose
        assert firehose.events_since(firehose.dropped_total)[-1].seq > 1000

    def test_labelers_started(self, study_world):
        started = [r for r in study_world.labelers if r.did]
        assert len(started) == 62
        functional = [r for r in study_world.labelers if r.service and
                      study_world.services.is_reachable(r.endpoint)]
        assert len(functional) == 46

    def test_official_labeler_predates_community(self, study_world):
        official = official_labeler(study_world)
        assert official.spec.start_us < COMMUNITY_LABELERS_OPEN_US
        assert official.service.xrpc_subscribeLabels()

    def test_labeler_endpoints_in_did_documents(self, study_world):
        for runtime in study_world.labelers:
            doc = study_world.plc.resolve(runtime.did)
            assert doc is not None
            assert doc.labeler_endpoint == runtime.endpoint

    def test_labeler_dns_a_records(self, study_world):
        functional = [r for r in study_world.labelers if r.spec.functional]
        host = functional[0].endpoint.split("://")[1]
        addresses = study_world.dns.lookup(host, DnsRecordType.A)
        assert len(addresses) == 1

    def test_feeds_announced(self, study_world):
        announced = [f for f in study_world.feeds if f.announced]
        assert len(announced) >= 0.9 * len(study_world.feeds)

    def test_feed_records_in_creator_repos(self, study_world):
        for runtime in study_world.feeds:
            if not runtime.announced:
                continue
            creator = study_world.users[runtime.spec.creator_index]
            if creator.tombstoned:
                continue
            records = dict(creator.pds.repo(creator.did).list_records("app.bsky.feed.generator"))
            record = records.get("app.bsky.feed.generator/" + runtime.spec.rkey)
            assert record is not None
            assert record["did"] == runtime.service_did
            break

    def test_appview_indexed_activity(self, study_world):
        index = study_world.appview.index
        assert len(index.posts) > 100
        assert sum(index.like_counts.values()) > 100
        assert sum(index.follower_counts.values()) > 100

    def test_appview_labels_synced(self, study_world):
        appview = study_world.appview
        assert sum(len(appview.labels_for(uri)) for uri in appview.index.posts) > 50

    def test_whois_has_provider_domains(self, study_world):
        assert study_world.whois.query("swifties.social") is not None

    def test_deterministic_worlds(self, study_world, clean_rerun):
        rerun = clean_rerun.world
        firehoses = (study_world.relay.firehose, rerun.relay.firehose)
        last_seq = [f.events_since(f.dropped_total)[-1].seq for f in firehoses]
        assert last_seq[0] == last_seq[1]
        assert len(study_world.appview.index.posts) == len(rerun.appview.index.posts)


class TestGrowthShape:
    def test_daily_actives_grow_over_time(self, study_world):
        """Fig 1 shape: later months have more active users than early ones."""
        from collections import defaultdict

        from repro.simulation.clock import month_key

        posts_by_month = defaultdict(set)
        for view in study_world.appview.index.posts.values():
            posts_by_month[month_key(view.time_us)].add(view.author)
        months = sorted(posts_by_month)
        if len(months) >= 6:
            early = len(posts_by_month[months[1]])
            late = len(posts_by_month[months[-2]])
            assert late > early

    def test_signup_calendar_spans_window(self, study_world):
        signups = [u.spec.signup_us for u in study_world.users]
        config = study_world.config
        assert min(signups) >= config.start_us
        assert max(signups) < config.end_us
