"""Tests for the AppView and the Client (end-to-end service integration)."""

import pytest

from repro.atproto.lexicon import BLOCK, POST, PROFILE
from repro.identity.did import LABELER_SERVICE_ID, ServiceEndpoint
from repro.services.client import Client, LabelAction, iso_time
from repro.services.feedgen import CuratedFeed, FeedGeneratorHost, FeedRule, tokenize
from repro.services.labeler import LabelerPolicies, LabelerService
from repro.services.xrpc import XrpcError

FEEDGEN_DID = "did:web:feeds.test"
FEEDGEN_URL = "https://feeds.test"


def make_client(net, name):
    did, _ = net.create_user(name)
    return Client(did, net.pds, net.appview)


def publish_feed(net, creator_client, rkey="cats", rule=None, online=True):
    """Create a hosted feed + its announcement record; an offline host
    announces its endpoint but never answers."""
    host = getattr(net, "feedgen_host", None)
    if host is None:
        host = net.feedgen_host = FeedGeneratorHost(FEEDGEN_DID, FEEDGEN_URL)
        if online:
            net.services.register(FEEDGEN_URL, host)
    uri = "at://%s/app.bsky.feed.generator/%s" % (creator_client.did, rkey)
    feed = CuratedFeed(uri, rule or FeedRule(keywords=frozenset({"cats"})))
    host.add_feed(feed)
    record = {
        "$type": "app.bsky.feed.generator",
        "did": FEEDGEN_DID,
        "displayName": rkey,
        "description": "a feed about " + rkey,
        "createdAt": "2024-04-01T00:00:00Z",
    }
    net.pds.create_record(creator_client.did, "app.bsky.feed.generator", record, net.tick(), rkey=rkey)
    return uri, feed, host


class TestAppViewIndexing:
    def test_posts_indexed(self, net):
        alice = make_client(net, "alice")
        meta = alice.post("hello world", net.tick(), langs=["en"])
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        assert net.appview.index.posts[uri].text == "hello world"
        assert net.appview.index.posts[uri].langs == ("en",)

    def test_deleted_posts_removed(self, net):
        alice = make_client(net, "alice")
        meta = alice.post("temp", net.tick())
        rkey = meta.ops[0][1].split("/")[1]
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        net.pds.delete_record(alice.did, POST, rkey, net.tick())
        assert uri not in net.appview.index.posts

    def test_like_counts(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        meta = alice.post("likeable", net.tick())
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        bob.like(uri, str(meta.ops[0][2]), net.tick())
        assert net.appview.index.like_counts[uri] == 1

    def test_follow_counts(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        bob.follow(alice.did, net.tick())
        assert net.appview.index.follower_counts[alice.did] == 1
        assert net.appview.index.following_counts[bob.did] == 1

    def test_unfollow_decrements(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        meta = bob.follow(alice.did, net.tick())
        rkey = meta.ops[0][1].split("/")[1]
        net.pds.delete_record(bob.did, "app.bsky.graph.follow", rkey, net.tick())
        assert net.appview.index.follower_counts[alice.did] == 0

    def test_block_counts(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        now = net.tick()
        record = {"$type": BLOCK, "subject": alice.did, "createdAt": iso_time(now)}
        net.pds.create_record(bob.did, BLOCK, record, now)
        assert net.appview.index.block_counts[alice.did] == 1

    def test_profile_indexed(self, net):
        alice = make_client(net, "alice")
        now = net.tick()
        record = {"$type": PROFILE, "displayName": "Alice", "description": "hi"}
        record["createdAt"] = iso_time(now)
        net.pds.create_record(alice.did, PROFILE, record, now, rkey="self")
        assert net.appview.index.profiles[alice.did]["displayName"] == "Alice"

    def test_non_bsky_records_counted(self, net):
        alice = make_client(net, "alice")
        record = {"$type": "com.whtwnd.blog.entry", "content": "# post"}
        net.pds.create_record(alice.did, "com.whtwnd.blog.entry", record, net.tick())
        assert net.appview.index.non_bsky_records == 1

    def test_get_profile(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        bob.follow(alice.did, net.tick())
        profile = net.appview.xrpc_getProfile(actor=alice.did)
        assert profile["followersCount"] == 1


class TestFeedGeneratorApi:
    def test_get_feed_generator(self, net):
        alice = make_client(net, "alice")
        uri, _, _ = publish_feed(net, alice)
        result = net.appview.xrpc_getFeedGenerator(feed=uri)
        assert result["view"]["displayName"] == "cats"
        assert result["isOnline"]
        assert result["isValid"]

    def test_offline_feed_generator(self, net):
        alice = make_client(net, "alice")
        uri, _, _ = publish_feed(net, alice, online=False)
        result = net.appview.xrpc_getFeedGenerator(feed=uri)
        assert not result["isOnline"]
        assert not result["isValid"]

    def test_unknown_feed_generator(self, net):
        with pytest.raises(XrpcError):
            net.appview.xrpc_getFeedGenerator(feed="at://x/app.bsky.feed.generator/ghost")

    def test_get_feed_hydrates_posts(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        uri, feed, _ = publish_feed(net, alice)
        meta = bob.post("cats are nice", net.tick(), langs=["en"])
        post_uri = "at://%s/%s" % (bob.did, meta.ops[0][1])
        from repro.services.feedgen import PostFeatures

        feed.ingest(
            PostFeatures(
                uri=post_uri,
                author=bob.did,
                time_us=net.now_us,
                text="cats are nice",
                langs=("en",),
                tokens=frozenset(tokenize("cats are nice")),
            )
        )
        result = net.appview.xrpc_getFeed(feed=uri, now_us=net.now_us)
        assert len(result["feed"]) == 1
        assert result["feed"][0]["post"]["record"]["text"] == "cats are nice"

    def test_get_feed_drops_deleted_posts(self, net):
        alice = make_client(net, "alice")
        uri, feed, _ = publish_feed(net, alice)
        from repro.services.feedgen import PostFeatures

        feed.ingest(
            PostFeatures(
                uri="at://%s/app.bsky.feed.post/ghost" % alice.did,
                author=alice.did,
                time_us=net.now_us,
                text="gone",
                langs=("en",),
                tokens=frozenset({"gone"}),
            )
        )
        result = net.appview.xrpc_getFeed(feed=uri, now_us=net.now_us)
        assert result["feed"] == []

    def test_feed_like_count_in_view(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        uri, _, _ = publish_feed(net, alice)
        # Liking the generator record itself (how feed popularity works).
        bob.like(uri, "cid-placeholder", net.tick())
        result = net.appview.xrpc_getFeedGenerator(feed=uri)
        assert result["view"]["likeCount"] == 1


class TestLabelAggregation:
    def make_labeler(self, net, name="labeler1", values=("spam",)):
        did, signing = net.create_user(name)
        endpoint = "https://%s.test" % name
        labeler = LabelerService(did, endpoint, LabelerPolicies(values, {}))
        net.services.register(endpoint, labeler)
        net.appview.add_labeler(labeler)
        return labeler

    def test_sync_labels(self, net):
        labeler = self.make_labeler(net)
        labeler.emit("at://x/app.bsky.feed.post/1", "spam", net.tick())
        assert net.appview.sync_labels() == 1
        labels = net.appview.labels_for("at://x/app.bsky.feed.post/1")
        assert [label.val for label in labels] == ["spam"]

    def test_sync_is_incremental(self, net):
        labeler = self.make_labeler(net)
        labeler.emit("at://x/app.bsky.feed.post/1", "spam", net.tick())
        net.appview.sync_labels()
        labeler.emit("at://x/app.bsky.feed.post/2", "spam", net.tick())
        assert net.appview.sync_labels() == 1

    def test_labels_for_respects_negation(self, net):
        labeler = self.make_labeler(net)
        labeler.emit("at://x/app.bsky.feed.post/1", "spam", net.tick())
        labeler.rescind("at://x/app.bsky.feed.post/1", "spam", net.tick())
        net.appview.sync_labels()
        assert net.appview.labels_for("at://x/app.bsky.feed.post/1") == []

    def test_takedown_only_from_official_labeler(self, net):
        official = self.make_labeler(net, "official", ("!takedown",))
        rogue = self.make_labeler(net, "rogue", ("!takedown",))
        net.appview.official_labeler_did = official.did
        alice, carol = make_client(net, "alice"), make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        meta = alice.post("contested", net.tick())
        uri = "at://%s/%s" % (alice.did, meta.ops[0].path)
        rogue.emit(uri, "!takedown", net.tick())
        net.appview.sync_labels()
        assert len(net.appview.xrpc_getTimeline(actor=carol.did)["feed"]) == 1
        official.emit(uri, "!takedown", net.tick())
        net.appview.sync_labels()
        assert net.appview.xrpc_getTimeline(actor=carol.did)["feed"] == []


class TestClientModeration:
    def test_hide_action_filters_feed(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        uri, feed, _ = publish_feed(net, alice)
        meta = bob.post("cats but nsfw", net.tick(), langs=["en"])
        post_uri = "at://%s/%s" % (bob.did, meta.ops[0][1])
        from repro.services.feedgen import PostFeatures

        feed.ingest(
            PostFeatures(
                uri=post_uri,
                author=bob.did,
                time_us=net.now_us,
                text="cats but nsfw",
                langs=("en",),
                tokens=frozenset(tokenize("cats but nsfw")),
            )
        )
        labeler_did, _ = net.create_user("labeler")
        labeler = LabelerService(labeler_did, "https://lab.test", LabelerPolicies(("nsfw",), {}))
        net.services.register("https://lab.test", labeler)
        net.appview.add_labeler(labeler)
        labeler.emit(post_uri, "nsfw", net.tick())
        net.appview.sync_labels()

        viewer = make_client(net, "carol")
        # Without subscribing: label ignored, post visible.
        assert len(viewer.view_feed(uri, net.now_us)) == 1
        viewer.subscribe_labeler(labeler_did)
        viewer.set_label_action(labeler_did, "nsfw", LabelAction.HIDE)
        assert viewer.view_feed(uri, net.now_us) == []

    def test_warn_action_annotates(self, net):
        alice = make_client(net, "alice")
        uri, feed, _ = publish_feed(net, alice)
        meta = alice.post("cats warn", net.tick(), langs=["en"])
        post_uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        from repro.services.feedgen import PostFeatures

        feed.ingest(
            PostFeatures(
                uri=post_uri,
                author=alice.did,
                time_us=net.now_us,
                text="cats warn",
                langs=("en",),
                tokens=frozenset(tokenize("cats warn")),
            )
        )
        labeler_did, _ = net.create_user("labeler")
        labeler = LabelerService(labeler_did, "https://lab.test", LabelerPolicies(("odd",), {}))
        net.appview.add_labeler(labeler)
        labeler.emit(post_uri, "odd", net.tick())
        net.appview.sync_labels()
        viewer = make_client(net, "carol")
        viewer.subscribe_labeler(labeler_did)
        viewer.set_label_action(labeler_did, "odd", LabelAction.WARN)
        feed_items = viewer.view_feed(uri, net.now_us)
        assert feed_items[0]["warning"]

    def test_cannot_unsubscribe_official(self, net):
        # Every user is force-subscribed to the official labeler: its
        # global values act without a subscription and cannot be ignored.
        viewer = make_client(net, "carol")
        official = "did:plc:" + "o" * 24
        viewer.set_label_action(official, "!takedown", LabelAction.IGNORE)
        assert viewer.prefs.action_for(official, "!takedown", official) == LabelAction.HIDE
        other = "did:plc:" + "x" * 24
        assert viewer.prefs.action_for(official, "!takedown", other) == LabelAction.IGNORE

    def test_labeler_announcement_via_did_doc(self, net):
        labeler_did, _ = net.create_user("labeler")
        rotation = None  # rotation key is managed inside create_user; re-resolve
        doc = net.plc.resolve(labeler_did)
        assert doc.labeler_endpoint is None
        # Announce via PLC update (the rotation key is the user keypair).
        from repro.atproto.keys import HmacKeypair

        net.plc.update(
            labeler_did,
            HmacKeypair.from_seed(b"labeler"),
            labeler_endpoint="https://lab.test",
        )
        assert net.plc.resolve(labeler_did).labeler_endpoint == "https://lab.test"
