"""Ablation benchmarks for the substrate's design choices (DESIGN.md).

* MST maintenance: incremental updates vs full canonical rebuilds — the
  reason repositories stay O(log n) per commit;
* signing scheme: pure-Python secp256k1 vs the HMAC simulation keys — the
  documented substitution that makes million-commit worlds feasible;
* feed routing: inverted-index router vs naive scan over every feed — the
  choice that keeps per-post cost independent of ecosystem size;
* codec round-trips: DAG-CBOR and CARv1 throughput.
"""

import random

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import cid_for_raw
from repro.atproto.keys import HmacKeypair, Secp256k1Keypair
from repro.atproto.mst import Mst
from repro.services.feedgen import CuratedFeed, FeedRouter, FeedRule, PostFeatures, tokenize
from tests.atproto.oracles import build_canonical


def _items(n):
    return {
        "app.bsky.feed.post/key%06d" % i: cid_for_raw(b"%d" % i) for i in range(n)
    }


class TestMstAblation:
    N = 400

    def test_mst_incremental_updates(self, benchmark):
        items = _items(self.N)
        base = build_canonical(items)

        def incremental():
            tree = Mst(base.root)
            for i in range(50):
                tree.set("app.bsky.feed.post/new%06d" % i, cid_for_raw(b"n%d" % i))
                tree.root_cid()
            return tree

        tree = benchmark(incremental)
        assert len(tree) == self.N + 50

    def test_mst_full_rebuilds(self, benchmark):
        """The ablated alternative: rebuild the canonical tree per write."""
        items = _items(self.N)

        def rebuild():
            working = dict(items)
            tree = None
            for i in range(50):
                working["app.bsky.feed.post/new%06d" % i] = cid_for_raw(b"n%d" % i)
                tree = build_canonical(working)
                tree.root_cid()
            return tree

        tree = benchmark(rebuild)
        assert len(tree) == self.N + 50


class TestSigningAblation:
    MESSAGE = b"commit bytes " * 8

    def test_hmac_signing(self, benchmark):
        pair = HmacKeypair.from_seed(b"bench")
        sig = benchmark(pair.sign, self.MESSAGE)
        assert pair.public_key.verify(self.MESSAGE, sig)

    def test_secp256k1_signing(self, benchmark):
        pair = Secp256k1Keypair.from_seed(b"bench")
        sig = benchmark(pair.sign, self.MESSAGE)
        assert pair.public_key.verify(self.MESSAGE, sig)


def _make_posts(count):
    rng = random.Random(0)
    topics = ["art", "cats", "ramen", "tech", "music"]
    posts = []
    for index in range(count):
        text = "post %d about %s today" % (index, topics[rng.randrange(len(topics))])
        posts.append(
            PostFeatures(
                uri="at://did:plc:%s/app.bsky.feed.post/%d" % ("u" * 24, index),
                author="did:plc:" + "u" * 24,
                time_us=index,
                text=text,
                langs=("en",),
                tokens=frozenset(tokenize(text)),
            )
        )
    return posts


def _make_feeds(count):
    topics = ["art", "cats", "ramen", "tech", "music"]
    return [
        CuratedFeed(
            "at://c/app.bsky.feed.generator/f%d" % i,
            FeedRule(keywords=frozenset({topics[i % len(topics)], "kw%d" % i})),
        )
        for i in range(count)
    ]


class TestRoutingAblation:
    def test_inverted_index_router(self, benchmark):
        feeds = _make_feeds(300)
        posts = _make_posts(200)

        def route_all():
            router = FeedRouter()
            for feed in feeds:
                router.register(feed)
            delivered = 0
            for post in posts:
                delivered += router.route(post)
            return delivered

        delivered = benchmark(route_all)
        assert delivered > 0

    def test_naive_scan_routing(self, benchmark):
        """The ablated alternative: test every post against every feed."""
        feeds = _make_feeds(300)
        posts = _make_posts(200)

        def route_all():
            delivered = 0
            for post in posts:
                for feed in feeds:
                    if feed.matches(post):
                        delivered += 1
            return delivered

        delivered = benchmark(route_all)
        assert delivered > 0


class TestCodecThroughput:
    RECORD = {
        "$type": "app.bsky.feed.post",
        "text": "a fairly typical post body with some length to it",
        "createdAt": "2024-04-01T12:00:00.000Z",
        "langs": ["en"],
        "embed": {"images": [{"alt": "a description"}]},
    }

    def test_dag_cbor_round_trip(self, benchmark):
        def round_trip():
            return cbor_decode(cbor_encode(self.RECORD))

        assert benchmark(round_trip)["text"] == self.RECORD["text"]

    def test_car_round_trip(self, benchmark):
        bodies = [(b"blk%d" % i) * 20 for i in range(100)]
        blocks = [(cid_for_raw(body), body) for body in bodies]
        root = blocks[0][0]

        def round_trip():
            return read_car(write_car(root, blocks))

        roots, parsed = benchmark(round_trip)
        assert roots == [root]
        assert len(parsed) == 100
