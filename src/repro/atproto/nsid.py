"""Namespaced identifiers (NSIDs).

NSIDs name lexicon types, e.g. ``app.bsky.feed.post``.  They are a reversed
domain-name authority followed by a name segment: at least three segments,
ASCII, with the final segment restricted to letters (and digits after the
first character).
"""

from __future__ import annotations

import re

_SEGMENT_RE = re.compile(r"^[a-zA-Z]([a-zA-Z0-9-]{0,61}[a-zA-Z0-9])?$")
_NAME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9]{0,62}$")
MAX_NSID_LENGTH = 317


class NsidError(ValueError):
    """Raised on malformed NSIDs."""


class Nsid:
    """A validated NSID, split into its dot-separated segments."""

    __slots__ = ("segments",)

    def __init__(self, text: str):
        if len(text) > MAX_NSID_LENGTH:
            raise NsidError("NSID longer than %d characters" % MAX_NSID_LENGTH)
        segments = text.split(".")
        if len(segments) < 3:
            raise NsidError("NSID needs at least 3 segments: %r" % text)
        for segment in segments[:-1]:
            if not _SEGMENT_RE.match(segment):
                raise NsidError("invalid NSID authority segment %r" % segment)
        if not _NAME_RE.match(segments[-1]):
            raise NsidError("invalid NSID name segment %r" % segments[-1])
        self.segments = tuple(segments)

    @classmethod
    def is_valid(cls, text: str) -> bool:
        try:
            cls(text)
        except NsidError:
            return False
        return True
