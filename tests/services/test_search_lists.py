"""Tests for AppView post search and curation lists / list feeds."""

import pytest

from repro.services.client import Client
from repro.services.feedgen import FeedError, FeedRule
from repro.services.feedservice import (
    BLUEFEED_PROFILE,
    SKYFEED_PROFILE,
    FeedServicePlatform,
    rule_required_features,
)
from repro.services.xrpc import XrpcError


@pytest.fixture()
def searchable_net(net):
    net.appview.index_search = True
    return net


def make_client(net, name):
    did, _ = net.create_user(name)
    return Client(did, net.pds, net.appview)


class TestSearchPosts:
    def test_single_token(self, searchable_net):
        net = searchable_net
        alice = make_client(net, "alice")
        alice.post("the ramen was excellent", net.tick())
        alice.post("nothing to see", net.tick())
        result = net.appview.xrpc_searchPosts(q="ramen")
        assert len(result["posts"]) == 1
        assert "ramen" in result["posts"][0]["text"]

    def test_multi_token_requires_all(self, searchable_net):
        net = searchable_net
        alice = make_client(net, "alice")
        alice.post("good ramen in tokyo", net.tick())
        alice.post("ramen again", net.tick())
        result = net.appview.xrpc_searchPosts(q="ramen tokyo")
        assert len(result["posts"]) == 1

    def test_no_match(self, searchable_net):
        net = searchable_net
        make_client(net, "alice").post("hello", net.tick())
        assert net.appview.xrpc_searchPosts(q="zebra")["posts"] == []

    def test_empty_query(self, searchable_net):
        assert searchable_net.appview.xrpc_searchPosts(q="!!!")["posts"] == []

    def test_disabled_by_default(self, net):
        with pytest.raises(XrpcError):
            net.appview.xrpc_searchPosts(q="anything")

    def test_limit(self, searchable_net):
        net = searchable_net
        alice = make_client(net, "alice")
        for i in range(6):
            alice.post("cats post %d" % i, net.tick())
        assert len(net.appview.xrpc_searchPosts(q="cats", limit=4)["posts"]) == 4


class TestLists:
    def make_list(self, net, owner, members, rkey="friends"):
        list_record = {
            "$type": "app.bsky.graph.list",
            "name": "friends",
            "purpose": "app.bsky.graph.defs#curatelist",
            "createdAt": "2024-04-13T00:00:00Z",
        }
        net.pds.create_record(owner.did, "app.bsky.graph.list", list_record, net.tick(), rkey=rkey)
        list_uri = "at://%s/app.bsky.graph.list/%s" % (owner.did, rkey)
        for member in members:
            item = {
                "$type": "app.bsky.graph.listitem",
                "subject": member,
                "list": list_uri,
                "createdAt": "2024-04-13T00:00:00Z",
            }
            net.pds.create_record(owner.did, "app.bsky.graph.listitem", item, net.tick())
        return list_uri

    def test_get_list_members(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        list_uri = self.make_list(net, alice, [bob.did])
        assert net.appview.index.list_members[list_uri] == {bob.did}

    def test_unknown_list_404(self, net):
        # A list no listitem names has no members in the index.
        assert "at://x/app.bsky.graph.list/ghost" not in net.appview.index.list_members

    def test_list_feed_on_supporting_platform(self, net):
        alice = make_client(net, "alice")
        bob = make_client(net, "bob")
        list_uri = self.make_list(net, alice, [bob.did])
        members = net.appview.index.list_members[list_uri]
        platform = FeedServicePlatform(SKYFEED_PROFILE, "did:web:sf.test", "https://sf.test")
        rule = FeedRule(authors=frozenset(members), from_list=True)
        feed = platform.create_feed(
            alice.did, "at://%s/app.bsky.feed.generator/friends" % alice.did, rule
        )
        assert feed.rule.from_list
        assert bob.did in feed.rule.authors

    def test_list_feed_rejected_without_feature(self, net):
        alice = make_client(net, "alice")
        platform = FeedServicePlatform(BLUEFEED_PROFILE, "did:web:bf.test", "https://bf.test")
        with pytest.raises(FeedError):
            platform.create_feed(
                alice.did,
                "at://%s/app.bsky.feed.generator/f" % alice.did,
                FeedRule(authors=frozenset({"did:plc:" + "m" * 24}), from_list=True),
            )

    def test_list_rule_needs_list_feature(self):
        rule = FeedRule(authors=frozenset({"did:plc:" + "m" * 24}), from_list=True)
        assert "input:list" in rule_required_features(rule)
        plain = FeedRule(authors=frozenset({"did:plc:" + "m" * 24}))
        assert "input:single-user" in rule_required_features(plain)
