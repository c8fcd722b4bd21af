"""Read-path correctness: indexes and caches must be invisible.

The AppView serves getTimeline from a per-follower index and getFeed /
searchPosts / getProfile through hydrated-view caches.  All of it is an
acceleration, never a semantic: every response must be byte-identical
to the uncached scan reads of ``tests.services.oracles.ReferenceReads`` over the
same indexes, across repeated (cache-warm) reads, and across
interpreters launched with different ``PYTHONHASHSEED`` values.
"""

import json
import random

import pytest

from repro.atproto.events import CommitEvent, CommitOp
from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver
from repro.netsim.web import WebHostRegistry
from repro.obs.metrics import READ_CACHE_HITS, READ_CACHE_MISSES
from repro.obs.telemetry import Telemetry
from repro.services.appview import AppView
from repro.services.feedgen import (
    CuratedFeed,
    FeedGeneratorHost,
    FeedRule,
    PostFeatures,
    tokenize,
)
from repro.services.labeler import Label
from repro.services.xrpc import ServiceDirectory
from tests.conftest import run_in_child
from tests.services.oracles import ReferenceReads

BASE_US = 1_700_000_000_000_000
OFFICIAL = "did:plc:" + "mod" * 8
FEEDGEN_DID = "did:web:feeds.test"
FEEDGEN_URL = "https://feeds.test"


def canon(response) -> str:
    """Byte-level form of a response: content *and* key/item order."""
    return json.dumps(response)


class ReadHarness:
    """One event stream applied to one AppView, read both through the
    AppView and through the uncached reference over its indexes, so the
    two answers can be compared byte for byte."""

    def __init__(self, telemetry=None):
        self.services = ServiceDirectory()
        self.resolver = DidResolver(PlcDirectory(), WebHostRegistry())
        self.appview = AppView(
            "https://appview.test",
            self.resolver,
            self.services,
            official_labeler_did=OFFICIAL,
            index_search=True,
            telemetry=telemetry,
        )
        self.reference = ReferenceReads(self.appview)
        self.views = (self.appview, self.reference)
        self.host = FeedGeneratorHost(FEEDGEN_DID, FEEDGEN_URL)
        self.services.register(FEEDGEN_URL, self.host)
        self.feed = None
        self.seq = 0
        self.label_seq = 0
        self.now = BASE_US

    def emit(self, did, path, record=None, action="create", step=1_000_000):
        self.seq += 1
        self.now += step
        event = CommitEvent(
            seq=self.seq,
            did=did,
            time_us=self.now,
            ops=(CommitOp(action, path, None, record),),
        )
        self.appview.consume_event(event)
        return "at://%s/%s" % (did, path)

    def post(self, did, rkey, text, step=1_000_000):
        uri = self.emit(
            did,
            "app.bsky.feed.post/" + rkey,
            {"text": text, "langs": ["en"], "createdAt": "2024-04-01T00:00:00Z"},
            step=step,
        )
        if self.feed is not None:
            self.feed.ingest(
                PostFeatures(
                    uri=uri,
                    author=did,
                    time_us=self.now,
                    text=text,
                    langs=("en",),
                    tokens=frozenset(tokenize(text)),
                )
            )
        return uri

    def follow(self, follower, subject, rkey):
        return self.emit(
            follower, "app.bsky.graph.follow/" + rkey, {"subject": subject}
        )

    def like(self, did, rkey, subject_uri):
        return self.emit(
            did, "app.bsky.feed.like/" + rkey, {"subject": {"uri": subject_uri}}
        )

    def delete(self, uri):
        did, path = uri[5:].split("/", 1)
        return self.emit(did, path, action="delete")

    def take_down(self, uri, neg=False):
        self.label_seq += 1
        label = Label(
            seq=self.label_seq,
            src=OFFICIAL,
            uri=uri,
            val="!takedown",
            neg=neg,
            cts=self.now,
        )
        self.appview._ingest_label(label)

    def publish_feed(self, creator, rkey="stream", rule=None):
        uri = "at://%s/app.bsky.feed.generator/%s" % (creator, rkey)
        self.feed = CuratedFeed(uri, rule or FeedRule(whole_network=True))
        self.host.add_feed(self.feed)
        self.emit(
            creator,
            "app.bsky.feed.generator/" + rkey,
            {
                "did": FEEDGEN_DID,
                "displayName": rkey,
                "description": "",
                "createdAt": "2024-04-01T00:00:00Z",
            },
        )
        return uri


def did_for(index: int) -> str:
    return "did:plc:user%020d" % index


@pytest.fixture()
def harness():
    return ReadHarness()


def build_busy_network(harness, users=6, posts_per_user=5):
    """Follows + posts (with timestamp ties) + likes + deletes + takedowns."""
    dids = [did_for(index) for index in range(users)]
    for i, follower in enumerate(dids):
        for j, subject in enumerate(dids):
            if follower != subject and (i + j) % 2 == 0:
                harness.follow(follower, subject, "f%d" % j)
    feed_uri = harness.publish_feed(dids[0])
    uris = []
    for i, did in enumerate(dids):
        for k in range(posts_per_user):
            # step=0 creates equal-timestamp tie groups across authors.
            uris.append(
                harness.post(
                    did, "p%d" % k, "post %d shared" % k, step=0 if (i + k) % 2 else 1_000_000
                )
            )
    for i, uri in enumerate(uris):
        if i % 7 == 0:
            harness.like(dids[(i + 1) % users], "l%d" % i, uri)
        if i % 9 == 4:
            harness.delete(uri)
        elif i % 5 == 0:
            harness.take_down(uri)
    return dids, uris, feed_uri


class TestTimelineOrdering:
    def test_equal_timestamps_tie_break_on_uri(self, harness):
        reader, a, b = did_for(0), did_for(1), did_for(2)
        harness.follow(reader, a, "fa")
        harness.follow(reader, b, "fb")
        # b posts first but shares a timestamp with a's post: the tie must
        # resolve by ascending uri, not by arrival or hash order.
        uri_b = harness.post(b, "tie", "from b")
        uri_a = harness.post(a, "tie", "from a", step=0)
        uri_late = harness.post(a, "late", "newest")
        for view in harness.views:
            feed = view.xrpc_getTimeline(reader)["feed"]
            assert [item["post"]["uri"] for item in feed] == sorted(
                [uri_late]
            ) + sorted([uri_a, uri_b])

    def test_takedowns_do_not_displace_live_posts(self, harness):
        reader, author = did_for(0), did_for(1)
        harness.follow(reader, author, "f")
        uris = [harness.post(author, "p%02d" % k, "p%d" % k) for k in range(8)]
        for uri in uris[-3:]:
            harness.take_down(uri)
        for view in harness.views:
            feed = view.xrpc_getTimeline(reader, limit=4)["feed"]
            # A full page of live posts: the three taken-down newest posts
            # must not eat the page budget.
            assert [item["post"]["uri"] for item in feed] == list(reversed(uris[1:5]))

    def test_unfollow_and_delete_purge_the_index(self, harness):
        reader, a, b = did_for(0), did_for(1), did_for(2)
        follow_uri = harness.follow(reader, a, "fa")
        harness.follow(reader, b, "fb")
        harness.post(a, "pa", "from a")
        uri_b = harness.post(b, "pb", "from b")
        harness.delete(uri_b)
        harness.delete(follow_uri)
        for view in harness.views:
            assert view.xrpc_getTimeline(reader)["feed"] == []


class TestCacheTransparency:
    def test_all_reads_byte_identical_cache_on_off(self, harness):
        dids, _uris, feed_uri = build_busy_network(harness)
        now = harness.now + 1_000_000
        # Two rounds: the second one reads through warm caches and must
        # still match the reference scan path byte for byte.
        for _round in range(2):
            for actor in dids:
                assert canon(harness.appview.xrpc_getTimeline(actor, limit=7)) == canon(
                    harness.reference.xrpc_getTimeline(actor, limit=7)
                )
                assert canon(harness.appview.xrpc_getProfile(actor)) == canon(
                    harness.reference.xrpc_getProfile(actor)
                )
            assert canon(harness.appview.xrpc_searchPosts("shared", limit=9)) == canon(
                harness.reference.xrpc_searchPosts("shared", limit=9)
            )
            assert canon(
                harness.appview.xrpc_getFeed(feed_uri, limit=6, now_us=now)
            ) == canon(harness.reference.xrpc_getFeed(feed_uri, limit=6, now_us=now))

    def test_invalidation_keeps_views_equal_after_writes(self, harness):
        dids, uris, _feed_uri = build_busy_network(harness)
        live = [uri for uri in uris if uri in harness.appview.index.posts]
        reader = dids[0]
        before = canon(harness.appview.xrpc_getTimeline(reader, limit=10))
        assert before == canon(harness.reference.xrpc_getTimeline(reader, limit=10))
        # Mutate through every invalidation path, reading in between so
        # stale cache entries would be observable.
        harness.like(dids[1], "lx", live[0])
        harness.take_down(live[1])
        harness.take_down(live[1], neg=True)  # and reversed again
        harness.delete(live[2])
        for actor in dids:
            assert canon(harness.appview.xrpc_getTimeline(actor, limit=10)) == canon(
                harness.reference.xrpc_getTimeline(actor, limit=10)
            )
        assert canon(harness.appview.xrpc_searchPosts("shared")) == canon(
            harness.reference.xrpc_searchPosts("shared")
        )

    def test_warm_reads_hit_and_match_cold_reads(self):
        telemetry = Telemetry()
        harness = ReadHarness(telemetry=telemetry)
        dids, _uris, _feed_uri = build_busy_network(harness)
        reader = dids[0]
        cold = canon(harness.appview.xrpc_getTimeline(reader, limit=10))
        hits_before = _read_counters(telemetry)[0]
        warm = canon(harness.appview.xrpc_getTimeline(reader, limit=10))
        hits_after = _read_counters(telemetry)[0]
        assert warm == cold
        assert sum(hits_after.values()) > sum(hits_before.values())

    def test_flush_drops_warmth_but_not_the_timeline_index(self):
        telemetry = Telemetry()
        harness = ReadHarness(telemetry=telemetry)
        dids, _uris, _feed_uri = build_busy_network(harness)
        reader = dids[0]
        first = canon(harness.appview.xrpc_getTimeline(reader, limit=10))
        harness.appview.xrpc_searchPosts("shared")
        harness.appview.flush_read_caches()
        assert harness.appview._post_views == {}
        assert harness.appview._search_pages == {}
        assert harness.appview._timelines  # the index is not a cache
        _hits, misses_before = _read_counters(telemetry)
        assert canon(harness.appview.xrpc_getTimeline(reader, limit=10)) == first
        _hits, misses_after = _read_counters(telemetry)
        # Post-flush reads re-hydrate: the miss counters move again, which
        # is exactly what makes crash/resume counter totals reproducible.
        assert sum(misses_after.values()) > sum(misses_before.values())


def _read_counters(telemetry):
    counters = telemetry.registry.snapshot()["counters"]
    hits = {k: v for k, v in counters.items() if k.startswith(READ_CACHE_HITS)}
    misses = {k: v for k, v in counters.items() if k.startswith(READ_CACHE_MISSES)}
    return hits, misses


class TestGetFeedRefill:
    def test_page_refills_past_takedowns(self, harness):
        author = did_for(1)
        feed_uri = harness.publish_feed(did_for(0))
        uris = [harness.post(author, "p%02d" % k, "entry %d" % k) for k in range(12)]
        for uri in uris[-6:]:
            harness.take_down(uri)
        now = harness.now + 1_000_000
        for view in harness.views:
            response = view.xrpc_getFeed(feed_uri, limit=4, now_us=now)
            got = [item["post"]["uri"] for item in response["feed"]]
            # The 6 newest entries hydrate to nothing; the page still
            # fills to ``limit`` from the live remainder.
            assert got == list(reversed(uris[2:6]))

    def test_skeleton_exhaustion_returns_short_page(self, harness):
        author = did_for(1)
        feed_uri = harness.publish_feed(did_for(0))
        uris = [harness.post(author, "p%02d" % k, "entry %d" % k) for k in range(5)]
        for uri in uris[:-2]:
            harness.take_down(uri)
        now = harness.now + 1_000_000
        for view in harness.views:
            response = view.xrpc_getFeed(feed_uri, limit=5, now_us=now)
            assert len(response["feed"]) == 2
            assert response["cursor"] is None

    def test_paging_covers_every_live_post_once(self, harness):
        author = did_for(1)
        feed_uri = harness.publish_feed(did_for(0))
        uris = [harness.post(author, "p%02d" % k, "entry %d" % k) for k in range(20)]
        for index, uri in enumerate(uris):
            if index % 3 == 0:
                harness.take_down(uri)
        live = [uri for index, uri in enumerate(uris) if index % 3 != 0]
        now = harness.now + 1_000_000
        for view in harness.views:
            seen, cursor = [], None
            while True:
                page = view.xrpc_getFeed(feed_uri, limit=4, cursor=cursor, now_us=now)
                seen.extend(item["post"]["uri"] for item in page["feed"])
                cursor = page["cursor"]
                if cursor is None:
                    break
            assert seen == list(reversed(live))


def walk_timeline_index(timeline, takedowns, limit) -> list:
    """The timeline cut as a per-entry walk: newest ``time_us`` tie group
    first, each group in index (ascending ``uri``) order, takedowns
    skipped, until ``limit`` uris are taken."""
    selected: list = []
    i = len(timeline) - 1
    while i >= 0 and len(selected) < limit:
        j = i
        while j >= 0 and timeline[j][0] == timeline[i][0]:
            j -= 1
        selected.extend(uri for _t, uri in timeline[j + 1 : i + 1] if uri not in takedowns)
        i = j
    return selected[:limit]


def build_random_network(harness, seed, users=10, posts=140):
    """A seeded network with heavy ``time_us`` ties (including one tie
    group of 60 posts), random follows, deletes, likes and takedowns.
    ``did_for(0)`` follows nobody and ``did_for(1)`` follows only
    ``did_for(2)``, who never posts: both timelines are empty."""
    rng = random.Random(seed)
    dids = [did_for(index) for index in range(users)]
    posters = dids[3:]
    harness.follow(dids[1], dids[2], "f2")
    for follower in dids[2:]:
        for subject in rng.sample(posters, rng.randrange(1, len(posters))):
            if subject != follower:
                harness.follow(follower, subject, "f" + subject[-4:])
    feed_uri = harness.publish_feed(dids[0])
    uris = []
    burst = rng.randrange(posts - 60)
    for n in range(posts):
        if burst < n <= burst + 59:
            step = 0
        else:
            step = rng.choice((0, 0, 1, 1_000_000))
        uris.append(harness.post(rng.choice(posters), "p%03d" % n, "post %d shared" % n, step))
    for uri in uris:
        draw = rng.random()
        if draw < 0.05:
            harness.delete(uri)
        elif draw < 0.2:
            harness.take_down(uri)
        elif draw < 0.3:
            harness.like(rng.choice(dids), "l" + uri[-4:], uri)
    return dids, uris, feed_uri


READ_LIMITS = (1, 2, 7, 50, 500)


class TestTimelineIndexCut:
    """The sliced cut of the timeline index against the per-entry walk and
    the author-scan reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cut_matches_the_walk_on_random_indexes(self, harness, seed):
        rng = random.Random(seed)
        appview = harness.appview
        for _case in range(60):
            times = [rng.randrange(12) for _ in range(rng.randrange(90))]
            timeline = sorted(
                (time_us, "at://did:plc:a/app.bsky.feed.post/%02d" % rng.randrange(40))
                for time_us in times
            )  # duplicates included
            takedowns = {uri for _t, uri in timeline if rng.random() < 0.3}
            appview._timelines["reader"] = timeline
            appview._takedowns = takedowns
            for limit in (-1, 0) + READ_LIMITS:
                assert appview._timeline_from_index("reader", limit) == walk_timeline_index(
                    timeline, takedowns, limit
                ), (timeline, takedowns, limit)
        assert appview._timeline_from_index("nobody", 5) == []

    def test_tie_group_straddling_the_cut(self, harness):
        reader, a, b, c = did_for(0), did_for(1), did_for(2), did_for(3)
        for subject in (a, b, c):
            harness.follow(reader, subject, "f" + subject[-1])
        older = harness.post(a, "old", "old")
        group1 = [harness.post(c, "g1", "g1")] + [harness.post(d, "g1", "g1", step=0) for d in (a, b)]
        group2 = [harness.post(b, "g2", "g2")] + [harness.post(d, "g2", "g2", step=0) for d in (c, a)]
        newest = harness.post(c, "new", "new")
        expected = [newest] + sorted(group2) + sorted(group1) + [older]
        # Limits 2, 3, 5 and 6 cut inside a tie group.
        for limit in range(1, 10):
            for view in harness.views:
                feed = view.xrpc_getTimeline(reader, limit=limit)["feed"]
                assert [item["post"]["uri"] for item in feed] == expected[:limit]

    def test_tie_group_larger_than_the_limit(self, harness):
        reader = did_for(0)
        authors = [did_for(index) for index in range(1, 12)]
        for author in authors:
            harness.follow(reader, author, "f" + author[-2:])
        harness.post(authors[0], "before", "before")
        tied = [
            harness.post(author, "tie", "tie", step=0 if index else 1_000_000)
            for index, author in enumerate(reversed(authors))
        ]
        for limit in (1, 2, 7, 11, 12):
            for view in harness.views:
                feed = view.xrpc_getTimeline(reader, limit=limit)["feed"]
                uris = [item["post"]["uri"] for item in feed]
                assert uris[: min(limit, 11)] == sorted(tied)[:limit]
            assert canon(harness.appview.xrpc_getTimeline(reader, limit=limit)) == canon(
                harness.reference.xrpc_getTimeline(reader, limit=limit)
            )

    def test_takedowns_inside_and_past_the_cut_widen_the_slice(self, harness):
        reader, author = did_for(0), did_for(1)
        harness.follow(reader, author, "f")
        uris = [harness.post(author, "p%02d" % k, "p%d" % k) for k in range(40)]
        # The newest 7 are inside a limit-7 cut; the next 9 are just past
        # it, so the slice doubles twice before 7 live posts remain.
        for uri in uris[-16:]:
            harness.take_down(uri)
        for limit in (1, 2, 7, 24, 50):
            expected = list(reversed(uris[:-16]))[:limit]
            for view in harness.views:
                feed = view.xrpc_getTimeline(reader, limit=limit)["feed"]
                assert [item["post"]["uri"] for item in feed] == expected
        for uri in uris[-16:]:
            harness.take_down(uri, neg=True)
        assert canon(harness.appview.xrpc_getTimeline(reader, limit=7)) == canon(
            harness.reference.xrpc_getTimeline(reader, limit=7)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks_match_the_reference(self, harness, seed):
        dids, _uris, feed_uri = build_random_network(harness, seed)
        appview, reference = harness.appview, harness.reference
        now = harness.now + 1_000_000
        for _round in range(2):  # the second round reads through warm caches
            for actor in dids:
                for limit in (0,) + READ_LIMITS:
                    assert canon(appview.xrpc_getTimeline(actor, limit=limit)) == canon(
                        reference.xrpc_getTimeline(actor, limit=limit)
                    ), (actor, limit)
            for limit in (0,) + READ_LIMITS:
                assert canon(appview.xrpc_searchPosts("shared", limit=limit)) == canon(
                    reference.xrpc_searchPosts("shared", limit=limit)
                )
                assert canon(appview.xrpc_getFeed(feed_uri, limit=limit, now_us=now)) == canon(
                    reference.xrpc_getFeed(feed_uri, limit=limit, now_us=now)
                )
        assert appview.xrpc_getTimeline(dids[0])["feed"] == []
        assert appview.xrpc_getTimeline(dids[1])["feed"] == []


def scripted_read_mix(harness) -> dict:
    """getTimeline, getFeed and searchPosts over ``build_busy_network``,
    with invalidating writes between rounds; the ``read_cache_*`` counter
    totals afterwards."""
    dids, uris, feed_uri = build_busy_network(harness)
    appview = harness.appview
    now = harness.now + 1_000_000
    live = [uri for uri in uris if uri in appview.index.posts]
    for round_ in range(3):
        for actor in dids:
            appview.xrpc_getTimeline(actor, limit=7)
            appview.xrpc_getTimeline(actor, limit=50)
        cursor = None
        while True:
            page = appview.xrpc_getFeed(feed_uri, limit=4, cursor=cursor, now_us=now)
            cursor = page["cursor"]
            if cursor is None:
                break
        appview.xrpc_searchPosts("shared", limit=9)
        appview.xrpc_searchPosts("shared", limit=9)
        appview.xrpc_searchPosts("post", limit=25)
        harness.like(dids[round_], "mix%d" % round_, live[round_])
        harness.take_down(live[round_ + 3])
    counters = appview.telemetry.registry.snapshot()["counters"]
    return {key: value for key, value in counters.items() if key.startswith("read_cache_")}


PINNED_READ_COUNTERS = {
    "read_cache_hits_total{cache=post_view}": 356,
    "read_cache_hits_total{cache=search_page}": 3,
    "read_cache_hits_total{cache=timeline_index}": 36,
    "read_cache_misses_total{cache=post_view}": 22,
    "read_cache_misses_total{cache=search_page}": 6,
}


def test_read_cache_counter_totals_are_pinned():
    """One hit or miss per hydrated post, whatever the page batching: the
    totals of a scripted read mix, as the per-post hydration counted them."""
    assert scripted_read_mix(ReadHarness(telemetry=Telemetry())) == PINNED_READ_COUNTERS


class TestSearchOrdering:
    def test_most_recent_matches_first(self, harness):
        a, b = did_for(1), did_for(2)
        harness.post(a, "p0", "needle old")
        tie_b = harness.post(b, "p1", "needle tie")
        tie_a = harness.post(a, "p1", "needle tie", step=0)
        newest = harness.post(b, "p2", "needle new")
        for view in harness.views:
            posts = view.xrpc_searchPosts("needle", limit=3)["posts"]
            assert [p["uri"] for p in posts] == [newest] + sorted([tie_a, tie_b])

    def test_takedowns_do_not_truncate_live_matches(self, harness):
        author = did_for(1)
        uris = [harness.post(author, "p%02d" % k, "needle %d" % k) for k in range(6)]
        for uri in uris[-3:]:
            harness.take_down(uri)
        for view in harness.views:
            posts = view.xrpc_searchPosts("needle", limit=3)["posts"]
            # The old code cut the candidate list at ``limit`` before
            # filtering takedowns, returning [] here.
            assert [p["uri"] for p in posts] == list(reversed(uris[:3]))

    def test_multi_token_intersection_order(self, harness):
        author = did_for(1)
        old = harness.post(author, "p0", "alpha beta old")
        new = harness.post(author, "p1", "beta alpha new")
        harness.post(author, "p2", "alpha only")
        for view in harness.views:
            posts = view.xrpc_searchPosts("alpha beta")["posts"]
            assert [p["uri"] for p in posts] == [new, old]


_CHILD = """\
import json
from repro.atproto.events import CommitEvent, CommitOp
from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver
from repro.netsim.web import WebHostRegistry
from repro.obs.telemetry import Telemetry
from repro.services.appview import AppView
from repro.services.labeler import Label
from repro.services.xrpc import ServiceDirectory

OFFICIAL = "did:plc:" + "mod" * 8
telemetry = Telemetry()
appview = AppView(
    "https://appview.test",
    DidResolver(PlcDirectory(), WebHostRegistry()),
    ServiceDirectory(),
    official_labeler_did=OFFICIAL,
    index_search=True,
    telemetry=telemetry,
)
dids = ["did:plc:user%020d" % i for i in range(8)]
state = {"seq": 0, "now": 1_700_000_000_000_000}

def emit(did, path, record=None, action="create", step=1_000_000):
    state["seq"] += 1
    state["now"] += step
    appview.consume_event(CommitEvent(
        seq=state["seq"], did=did, time_us=state["now"],
        ops=(CommitOp(action, path, None, record),),
    ))
    return "at://%s/%s" % (did, path)

for i, did in enumerate(dids):
    for j, other in enumerate(dids):
        if other != did and (i + j) % 3 == 0:
            emit(did, "app.bsky.graph.follow/f%d" % j, {"subject": other})
uris = []
for i, did in enumerate(dids):
    for k in range(6):
        uris.append(emit(
            did, "app.bsky.feed.post/p%d" % k,
            {"text": "post %d shared" % k, "langs": ["en"], "createdAt": "t"},
            step=0 if (i + k) % 2 else 1_000_000,
        ))
for i, uri in enumerate(uris):
    if i % 5 == 0:
        appview._ingest_label(Label(
            seq=i + 1, src=OFFICIAL, uri=uri, val="!takedown",
            neg=False, cts=state["now"],
        ))
reads = []
for did in dids:
    reads.append(appview.xrpc_getTimeline(did, limit=10))
    reads.append(appview.xrpc_getProfile(did))
reads.append(appview.xrpc_searchPosts("shared", limit=15))
reads.append(appview.xrpc_searchPosts("shared", limit=15))  # cache hit
counters = {
    k: v
    for k, v in sorted(telemetry.registry.snapshot()["counters"].items())
    if k.startswith("read_cache_")
}
print(json.dumps({
    "reads": reads,
    "counters": counters,
    "hash_probe": hash("did:plc:hash-probe"),
}))
"""


class TestHashSeedDeterminism:
    def test_reads_and_counters_identical_across_hash_seeds(self):
        run_a = run_in_child(_CHILD, "0")
        run_b = run_in_child(_CHILD, "1")
        # Sanity: the interpreters really hash strings differently.
        assert run_a["hash_probe"] != run_b["hash_probe"]
        # Byte-level equality: key order and list order included.
        assert json.dumps(run_a["reads"]) == json.dumps(run_b["reads"])
        assert json.dumps(run_a["counters"]) == json.dumps(run_b["counters"])
        assert run_a["counters"]  # the deterministic hit/miss series exist


def test_study_reads_match_reference(study):
    """End to end on the shared tiny study world: every user's getTimeline
    and getProfile, served through whatever the study left in the view
    caches, byte-match the reference reads.  The AppView reads run against
    a throwaway telemetry and the caches are put back afterwards, so the
    shared study's metrics stay byte-identical."""
    world, datasets = study
    appview = world.appview
    reference = ReferenceReads(appview)
    metrics_before = datasets.telemetry.metrics_json()
    saved_caches = (
        dict(appview._post_views),
        dict(appview._profile_views),
        dict(appview._search_pages),
    )
    appview.set_telemetry(Telemetry())
    try:
        dids = [user.did for user in world.users if user.did]
        non_empty = 0
        for did in dids:
            timeline = appview.xrpc_getTimeline(did)
            assert canon(timeline) == canon(reference.xrpc_getTimeline(did))
            assert canon(appview.xrpc_getProfile(did)) == canon(reference.xrpc_getProfile(did))
            non_empty += bool(timeline["feed"])
        assert non_empty > len(dids) // 4  # the comparison is not vacuous
    finally:
        appview.set_telemetry(datasets.telemetry)
        appview._post_views, appview._profile_views, appview._search_pages = saved_caches
    assert datasets.telemetry.metrics_json() == metrics_before
