"""Tests for NSIDs and AT-URIs."""

import pytest

from repro.atproto.nsid import Nsid, NsidError
from repro.atproto.uri import AtUri, AtUriError


class TestNsid:
    def test_parse_bsky_post(self):
        # Authority segments (reversed domain) then the name segment.
        assert Nsid("app.bsky.feed.post").segments == ("app", "bsky", "feed", "post")

    def test_minimum_three_segments(self):
        with pytest.raises(NsidError):
            Nsid("app.bsky")

    def test_name_cannot_start_with_digit(self):
        with pytest.raises(NsidError):
            Nsid("app.bsky.1post")

    def test_authority_allows_hyphens(self):
        assert Nsid.is_valid("com.my-app.record")

    def test_name_rejects_hyphens(self):
        assert not Nsid.is_valid("com.example.my-record")

    def test_equality_with_string(self):
        # Segments keep the text as written: no case folding.
        text = "com.Example.fooBar"
        assert ".".join(Nsid(text).segments) == text

    def test_too_long(self):
        with pytest.raises(NsidError):
            Nsid("a" * 60 + "." + "b" * 60 + "." + "c" * 200)


class TestAtUri:
    def test_full_uri(self):
        uri = AtUri.parse("at://did:plc:abc/app.bsky.feed.post/3kdgeujwlq32y")
        assert uri.authority == "did:plc:abc"
        assert uri.collection == "app.bsky.feed.post"
        assert uri.rkey == "3kdgeujwlq32y"

    def test_collection_only(self):
        uri = AtUri.parse("at://did:plc:abc/app.bsky.feed.post")
        assert uri.rkey is None

    def test_authority_only(self):
        uri = AtUri.parse("at://did:plc:abc")
        assert uri.collection is None and uri.rkey is None

    def test_round_trip(self):
        text = "at://did:plc:abc/app.bsky.feed.like/3kabc2345fghi"
        assert str(AtUri.parse(text)) == text

    def test_rejects_wrong_scheme(self):
        with pytest.raises(AtUriError):
            AtUri.parse("https://example.com")

    def test_rejects_bad_collection(self):
        with pytest.raises(AtUriError):
            AtUri.parse("at://did:plc:abc/notannsid/rkey")

    def test_rejects_rkey_without_collection(self):
        with pytest.raises(AtUriError):
            AtUri("did:plc:abc", None, "rkey")

    def test_rejects_extra_components(self):
        with pytest.raises(AtUriError):
            AtUri.parse("at://did/app.bsky.feed.post/rkey/extra")

    def test_equality_and_hash(self):
        a = AtUri.parse("at://did:plc:x/app.bsky.feed.post/abc")
        b = AtUri.parse("at://did:plc:x/app.bsky.feed.post/abc")
        assert a == b
        assert len({a, b}) == 1
        assert a == "at://did:plc:x/app.bsky.feed.post/abc"
