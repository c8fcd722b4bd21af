"""Tests for NSIDs."""

import pytest

from repro.atproto.nsid import Nsid, NsidError


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

