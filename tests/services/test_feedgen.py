"""Tests for Feed Generators, the router, and feed-service platforms."""

import pytest

from repro.services.feedgen import (
    CuratedFeed,
    FeedError,
    FeedGeneratorHost,
    FeedRouter,
    FeedRule,
    PersonalizedFeed,
    PostFeatures,
    RetentionPolicy,
    tokenize,
)
from repro.services.feedservice import (
    ALL_PROFILES,
    BLUEFEED_PROFILE,
    FILTER_REGEX_TEXT,
    GOODFEEDS_PROFILE,
    SKYFEED_PROFILE,
    FeedServicePlatform,
    feature_matrix_table,
    rule_required_features,
)
from repro.services.xrpc import XrpcError

HOUR_US = 3600 * 1_000_000
DAY_US = 24 * HOUR_US


def make_post(uri_suffix, text, t, author="did:plc:" + "a" * 24, langs=("en",)):
    return PostFeatures(
        uri="at://%s/app.bsky.feed.post/%s" % (author, uri_suffix),
        author=author,
        time_us=t,
        text=text,
        langs=tuple(langs),
        tokens=frozenset(tokenize(text)),
    )


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, World!") == {"hello", "world"}

    def test_hashtags_kept(self):
        assert "#art" in tokenize("my #art post")

    def test_apostrophes(self):
        assert "don't" in tokenize("don't stop")


class TestFeedRule:
    def test_requires_a_source(self):
        with pytest.raises(FeedError):
            FeedRule()

    def test_invalid_regex_rejected(self):
        with pytest.raises(FeedError):
            FeedRule(whole_network=True, regex="([unclosed")

    def test_keyword_match(self):
        feed = CuratedFeed("at://f/app.bsky.feed.generator/kw", FeedRule(keywords=frozenset({"ramen"})))
        assert feed.matches(make_post("1", "best ramen in tokyo", 0))
        assert not feed.matches(make_post("2", "best sushi in tokyo", 0))

    def test_language_constraint(self):
        rule = FeedRule(keywords=frozenset({"ramen"}), languages=frozenset({"ja"}))
        feed = CuratedFeed("at://f/app.bsky.feed.generator/ja", rule)
        assert not feed.matches(make_post("1", "ramen", 0, langs=("en",)))
        assert feed.matches(make_post("2", "ramen", 0, langs=("ja",)))

    def test_language_only_feed(self):
        rule = FeedRule(languages=frozenset({"he"}))
        feed = CuratedFeed("at://f/app.bsky.feed.generator/hebrew", rule)
        assert feed.matches(make_post("1", "anything", 0, langs=("he",)))

    def test_author_feed(self):
        rule = FeedRule(authors=frozenset({"did:plc:" + "a" * 24}))
        feed = CuratedFeed("at://f/app.bsky.feed.generator/me", rule)
        assert feed.matches(make_post("1", "hi", 0))
        assert not feed.matches(make_post("1", "hi", 0, author="did:plc:" + "b" * 24))

    def test_regex_filter(self):
        rule = FeedRule(whole_network=True, regex=r"\bcat(s)?\b")
        feed = CuratedFeed("at://f/app.bsky.feed.generator/cats", rule)
        assert feed.matches(make_post("1", "my cats are great", 0))
        assert not feed.matches(make_post("2", "catastrophe", 0))

    def test_label_exclusion(self):
        rule = FeedRule(whole_network=True, exclude_label_values=frozenset({"spam"}))
        feed = CuratedFeed("at://f/app.bsky.feed.generator/clean", rule)
        spammy = PostFeatures(
            uri="at://x/app.bsky.feed.post/1",
            author="did:plc:" + "a" * 24,
            time_us=0,
            text="buy now",
            langs=("en",),
            tokens=frozenset({"buy", "now"}),
            labels=frozenset({"spam"}),
        )
        assert not feed.matches(spammy)


class TestRetention:
    def test_count_limited(self):
        feed = CuratedFeed(
            "at://f/app.bsky.feed.generator/l", FeedRule(whole_network=True), RetentionPolicy.last(3)
        )
        for i in range(10):
            feed.ingest(make_post(str(i), "p", i))
        assert feed.post_count(now_us=100) == 3
        assert feed.total_ingested == 10

    def test_age_limited(self):
        feed = CuratedFeed(
            "at://f/app.bsky.feed.generator/t",
            FeedRule(whole_network=True),
            RetentionPolicy.days(1),
        )
        feed.ingest(make_post("old", "p", 0))
        feed.ingest(make_post("new", "p", 2 * DAY_US))
        assert feed.post_count(now_us=2 * DAY_US + 1) == 1

    def test_unlimited(self):
        feed = CuratedFeed("at://f/app.bsky.feed.generator/u", FeedRule(whole_network=True))
        for i in range(5):
            feed.ingest(make_post(str(i), "p", i))
        assert feed.post_count(now_us=10 * DAY_US) == 5


class TestSkeleton:
    def make_feed(self, n=10):
        feed = CuratedFeed("at://f/app.bsky.feed.generator/s", FeedRule(whole_network=True))
        for i in range(n):
            feed.ingest(make_post(str(i), "post %d" % i, i * HOUR_US))
        return feed

    def test_newest_first(self):
        feed = self.make_feed()
        skeleton = feed.skeleton(None, now_us=DAY_US, limit=3)
        uris = [item["post"] for item in skeleton["feed"]]
        assert uris[0].endswith("/9")
        assert len(uris) == 3

    def test_cursor_pagination(self):
        feed = self.make_feed()
        first = feed.skeleton(None, now_us=DAY_US, limit=4)
        second = feed.skeleton(None, now_us=DAY_US, limit=4, cursor=first["cursor"])
        all_uris = [i["post"] for i in first["feed"]] + [i["post"] for i in second["feed"]]
        assert len(set(all_uris)) == 8

    def test_cursor_exhaustion(self):
        feed = self.make_feed(3)
        page = feed.skeleton(None, now_us=DAY_US, limit=10)
        assert page["cursor"] is None


class TestPersonalizedFeed:
    def test_empty_for_anonymous(self):
        feed = PersonalizedFeed("at://f/app.bsky.feed.generator/algo")
        assert feed.skeleton(None, now_us=0)["feed"] == []

    def test_viewer_specific_content(self):
        source = {"did:plc:" + "v" * 24: [("at://x/app.bsky.feed.post/1", 10)]}
        feed = PersonalizedFeed(
            "at://f/app.bsky.feed.generator/algo", lambda viewer: source.get(viewer, [])
        )
        assert len(feed.skeleton("did:plc:" + "v" * 24, now_us=20)["feed"]) == 1
        assert feed.skeleton("did:plc:" + "e" * 24, now_us=20)["feed"] == []


class TestHost:
    def test_skeleton_dispatch(self):
        host = FeedGeneratorHost("did:web:feeds.test", "https://feeds.test")
        feed = CuratedFeed("at://c/app.bsky.feed.generator/f1", FeedRule(whole_network=True))
        feed.ingest(make_post("1", "x", 0))
        host.add_feed(feed)
        result = host.xrpc_getFeedSkeleton(feed="at://c/app.bsky.feed.generator/f1")
        assert len(result["feed"]) == 1

    def test_unknown_feed(self):
        host = FeedGeneratorHost("did:web:feeds.test", "https://feeds.test")
        with pytest.raises(XrpcError):
            host.xrpc_getFeedSkeleton(feed="at://c/app.bsky.feed.generator/ghost")

    def test_duplicate_feed_rejected(self):
        host = FeedGeneratorHost("did:web:feeds.test", "https://feeds.test")
        feed = CuratedFeed("at://c/app.bsky.feed.generator/f1", FeedRule(whole_network=True))
        host.add_feed(feed)
        with pytest.raises(FeedError):
            host.add_feed(CuratedFeed("at://c/app.bsky.feed.generator/f1", FeedRule(whole_network=True)))

    def test_describe(self):
        host = FeedGeneratorHost("did:web:feeds.test", "https://feeds.test")
        host.add_feed(CuratedFeed("at://c/app.bsky.feed.generator/f1", FeedRule(whole_network=True)))
        description = host.xrpc_describeFeedGenerator()
        assert description["did"] == "did:web:feeds.test"
        assert description["feeds"] == [{"uri": "at://c/app.bsky.feed.generator/f1"}]


class TestRouter:
    def test_keyword_routing(self):
        router = FeedRouter()
        ramen = CuratedFeed("at://c/app.bsky.feed.generator/ramen", FeedRule(keywords=frozenset({"ramen"})))
        art = CuratedFeed("at://c/app.bsky.feed.generator/art", FeedRule(keywords=frozenset({"art"})))
        router.register(ramen)
        router.register(art)
        delivered = router.route(make_post("1", "fresh ramen tonight", 0))
        assert delivered == 1
        assert ramen.total_ingested == 1
        assert art.total_ingested == 0

    def test_whole_network_gets_everything(self):
        router = FeedRouter()
        everything = CuratedFeed("at://c/app.bsky.feed.generator/all", FeedRule(whole_network=True))
        router.register(everything)
        for i in range(5):
            router.route(make_post(str(i), "post %d" % i, i))
        assert everything.total_ingested == 5

    def test_language_routing(self):
        router = FeedRouter()
        hebrew = CuratedFeed("at://c/app.bsky.feed.generator/he", FeedRule(languages=frozenset({"he"})))
        router.register(hebrew)
        router.route(make_post("1", "shalom", 0, langs=("he",)))
        router.route(make_post("2", "hello", 0, langs=("en",)))
        assert hebrew.total_ingested == 1

    def test_post_matching_multiple_feeds(self):
        router = FeedRouter()
        a = CuratedFeed("at://c/app.bsky.feed.generator/a", FeedRule(keywords=frozenset({"cats"})))
        b = CuratedFeed("at://c/app.bsky.feed.generator/b", FeedRule(whole_network=True))
        router.register(a)
        router.register(b)
        assert router.route(make_post("1", "cats!", 0)) == 2


class TestFeedServicePlatforms:
    def test_table5_profiles_exist(self):
        names = {profile.name for profile in ALL_PROFILES}
        assert names == {"Skyfeed", "Bluefeed", "Blueskyfeeds", "Goodfeeds", "Blueskyfeedcreator"}

    def test_only_skyfeed_has_regex(self):
        for profile in ALL_PROFILES:
            assert profile.supports(FILTER_REGEX_TEXT) == (profile.name == "Skyfeed")

    def test_skyfeed_accepts_regex_feed(self):
        platform = FeedServicePlatform(SKYFEED_PROFILE, "did:web:skyfeed.test", "https://skyfeed.test")
        feed = platform.create_feed(
            "did:plc:" + "c" * 24,
            "at://did:plc:%s/app.bsky.feed.generator/cats" % ("c" * 24),
            FeedRule(whole_network=True, regex=r"\bcats\b"),
        )
        assert feed.rule.regex is not None

    def test_bluefeed_rejects_regex_feed(self):
        platform = FeedServicePlatform(BLUEFEED_PROFILE, "did:web:bluefeed.test", "https://bluefeed.test")
        with pytest.raises(FeedError):
            platform.create_feed(
                "did:plc:" + "c" * 24,
                "at://x/app.bsky.feed.generator/f",
                FeedRule(whole_network=True, regex=r"x"),
            )

    def test_goodfeeds_rejects_keyword_feed(self):
        platform = FeedServicePlatform(GOODFEEDS_PROFILE, "did:web:goodfeeds.test", "https://goodfeeds.test")
        with pytest.raises(FeedError):
            platform.create_feed(
                "did:plc:" + "c" * 24,
                "at://x/app.bsky.feed.generator/f",
                FeedRule(keywords=frozenset({"art"})),
            )

    def test_platform_tracks_creators(self):
        # A platform hosts every feed its creators make on it.
        platform = FeedServicePlatform(SKYFEED_PROFILE, "did:web:skyfeed.test", "https://skyfeed.test")
        creator = "did:plc:" + "c" * 24
        uris = ["at://%s/app.bsky.feed.generator/f%d" % (creator, i) for i in range(3)]
        for uri in uris:
            platform.create_feed(creator, uri, FeedRule(whole_network=True))
        assert [feed.uri for feed in platform.feeds()] == uris

    def test_rule_required_features(self):
        rule = FeedRule(keywords=frozenset({"a"}), languages=frozenset({"en"}), regex="x")
        needed = rule_required_features(rule)
        assert "input:tags" in needed
        assert "filter:language" in needed
        assert "filter:regex-text" in needed

    def test_feature_matrix_table(self):
        table = feature_matrix_table()
        assert table["filter:regex-text"]["Skyfeed"]
        assert not table["filter:regex-text"]["Goodfeeds"]
        assert table["other:paid-plans"]["Blueskyfeedcreator"]
