"""Tests for the home timeline (AppView getTimeline + Client)."""

import pytest

from repro.atproto.lexicon import POST, REPOST
from repro.services.client import Client, LabelAction, iso_time
from repro.services.labeler import LabelerPolicies, LabelerService


def make_client(net, name):
    did, _ = net.create_user(name)
    return Client(did, net.pds, net.appview)


def home_timeline(net, client, limit=50):
    """The client's getTimeline page with its moderation preferences applied."""
    feed = net.appview.xrpc_getTimeline(actor=client.did, limit=limit)["feed"]
    return client._apply_moderation(feed)


class TestGetTimeline:
    def test_shows_followed_posts_newest_first(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        alice.post("first", net.tick(), langs=["en"])
        bob.post("unfollowed", net.tick(), langs=["en"])
        alice.post("second", net.tick(), langs=["en"])
        timeline = home_timeline(net, carol)
        texts = [item["record"]["text"] for item in timeline]
        assert texts == ["second", "first"]

    def test_empty_for_nonfollower(self, net):
        loner = make_client(net, "loner")
        make_client(net, "alice").post("hello", net.tick())
        assert home_timeline(net, loner) == []

    def test_unfollow_removes_from_timeline(self, net):
        alice = make_client(net, "alice")
        carol = make_client(net, "carol")
        meta = carol.follow(alice.did, net.tick())
        alice.post("visible", net.tick())
        rkey = meta.ops[0][1].split("/")[1]
        net.pds.delete_record(carol.did, "app.bsky.graph.follow", rkey, net.tick())
        assert home_timeline(net, carol) == []

    def test_deleted_posts_drop_out(self, net):
        alice = make_client(net, "alice")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        meta = alice.post("temporary", net.tick())
        net.pds.delete_record(alice.did, POST, meta.ops[0][1].split("/")[1], net.tick())
        assert home_timeline(net, carol) == []

    def test_limit_respected(self, net):
        alice = make_client(net, "alice")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        for i in range(8):
            alice.post("p%d" % i, net.tick())
        assert len(home_timeline(net, carol, limit=3)) == 3

    def test_multiple_followed_interleaved(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        carol.follow(bob.did, net.tick())
        alice.post("a1", net.tick())
        bob.post("b1", net.tick())
        alice.post("a2", net.tick())
        texts = [item["record"]["text"] for item in home_timeline(net, carol)]
        assert texts == ["a2", "b1", "a1"]

    def test_deleted_repost_drops_repost_count(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        meta = alice.post("share me", net.tick())
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        now = net.tick()
        subject = {"uri": uri, "cid": str(meta.ops[0][2])}
        record = {"$type": REPOST, "subject": subject, "createdAt": iso_time(now)}
        repost = net.pds.create_record(bob.did, REPOST, record, now)
        # Read once so the hydrated view is cached before the delete.
        assert net.appview.xrpc_getTimeline(actor=carol.did)["feed"][0]["post"]["repostCount"] == 1
        rkey = repost.ops[0][1].split("/")[1]
        net.pds.delete_record(bob.did, REPOST, rkey, net.tick())
        assert net.appview.index.repost_counts[uri] == 0
        assert net.appview.xrpc_getTimeline(actor=carol.did)["feed"][0]["post"]["repostCount"] == 0

    def test_moderation_applies_to_timeline(self, net):
        alice = make_client(net, "alice")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        meta = alice.post("nsfw content", net.tick())
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        labeler_did, _ = net.create_user("labeler")
        labeler = LabelerService(labeler_did, "https://lab.test", LabelerPolicies(("nsfw",), {}))
        net.appview.add_labeler(labeler)
        labeler.emit(uri, "nsfw", net.tick())
        net.appview.sync_labels()
        assert len(home_timeline(net, carol)) == 1  # not subscribed yet
        carol.subscribe_labeler(labeler_did)
        carol.set_label_action(labeler_did, "nsfw", LabelAction.HIDE)
        assert home_timeline(net, carol) == []

    def test_takedown_purges_from_timeline(self, net):
        alice = make_client(net, "alice")
        carol = make_client(net, "carol")
        carol.follow(alice.did, net.tick())
        meta = alice.post("illegal", net.tick())
        uri = "at://%s/%s" % (alice.did, meta.ops[0][1])
        official_did, _ = net.create_user("official")
        official = LabelerService(official_did, "https://off.test", LabelerPolicies(("!takedown",), {}))
        net.appview.add_labeler(official)
        net.appview.official_labeler_did = official_did
        official.emit(uri, "!takedown", net.tick())
        net.appview.sync_labels()
        assert net.appview.xrpc_getTimeline(actor=carol.did)["feed"] == []
