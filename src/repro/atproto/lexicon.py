"""Lexicon registry and record validation.

ATProto does not fix the record vocabulary; *lexicons* — community-defined
schemas organised under DNS-like NSIDs — do.  This module ships the
``app.bsky`` and ``com.atproto`` record types the paper's measurements rely
on, plus third-party lexicons observed in the wild (WhiteWind long-form
blogging), and a small declarative schema language to validate records.

Unknown collections are allowed through by default, exactly as the real
network behaves: the Firehose relays records that Bluesky's own AppView
cannot decode (Section 4, "Non-Bluesky content").

Each :class:`RecordSchema` compiles its checks when it is built, and the
registry validates an NSID once, at registration, so validating a record
of a registered collection is a dict lookup plus one check per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.atproto.cid import Cid
from repro.atproto.nsid import Nsid


class LexiconError(ValueError):
    """Raised when a record violates its declared lexicon."""


@dataclass(frozen=True)
class Field:
    """One field in a record schema."""

    name: str
    type: str  # "string" | "integer" | "boolean" | "bytes" | "cid" | "dict" | "list" | "ref"
    required: bool = False
    max_length: Optional[int] = None
    known_values: Optional[tuple[str, ...]] = None


# Field type -> the check its values must pass.
_CHECKERS: dict[str, Callable[[Any], bool]] = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "bytes": lambda v: isinstance(v, bytes) and not isinstance(v, Cid),
    "cid": lambda v: isinstance(v, Cid),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "ref": lambda v: isinstance(v, dict) and "uri" in v,
}


@dataclass(frozen=True)
class RecordSchema:
    """Schema for one record collection.

    The checks are compiled once, when the schema is built: the names of
    the required fields, and per field name its spec and type check.  A
    field with an unknown type raises :class:`LexiconError` here rather
    than on the first record that carries it.
    """

    nsid: str
    fields: tuple[Field, ...]
    allow_extra: bool = True

    def __post_init__(self):
        checks: dict[str, tuple[Field, Callable[[Any], bool]]] = {}
        for spec in self.fields:
            check = _CHECKERS.get(spec.type)
            if check is None:
                raise LexiconError("unknown field type %r in schema" % spec.type)
            if spec.name != "$type":  # $type is checked against the NSID
                checks[spec.name] = (spec, check)
        required = tuple(spec.name for spec in self.fields if spec.required)
        object.__setattr__(self, "_checks", checks)
        object.__setattr__(self, "_required", required)

    def validate(self, record: dict) -> None:
        if record.get("$type") != self.nsid:
            raise LexiconError(
                "record $type %r does not match collection %r"
                % (record.get("$type"), self.nsid)
            )
        for name in self._required:
            if name not in record:
                raise LexiconError("%s: missing required field %r" % (self.nsid, name))
        checks = self._checks
        for name, value in record.items():
            compiled = checks.get(name)
            if compiled is None:
                if name == "$type" or self.allow_extra:
                    continue
                raise LexiconError("%s: unknown field %r" % (self.nsid, name))
            spec, check = compiled
            if not check(value):
                raise LexiconError(
                    "%s: field %r must be %s, got %r"
                    % (self.nsid, name, spec.type, type(value).__name__)
                )
            if (
                spec.max_length is not None
                and isinstance(value, str)
                and len(value) > spec.max_length
            ):
                raise LexiconError(
                    "%s: field %r longer than %d" % (self.nsid, name, spec.max_length)
                )
            if spec.known_values is not None and value not in spec.known_values:
                raise LexiconError(
                    "%s: field %r has unknown value %r" % (self.nsid, name, value)
                )


# ---------------------------------------------------------------------------
# Collection NSIDs used throughout the codebase
# ---------------------------------------------------------------------------

POST = "app.bsky.feed.post"
LIKE = "app.bsky.feed.like"
REPOST = "app.bsky.feed.repost"
FOLLOW = "app.bsky.graph.follow"
BLOCK = "app.bsky.graph.block"
PROFILE = "app.bsky.actor.profile"
FEED_GENERATOR = "app.bsky.feed.generator"
LABELER_SERVICE = "app.bsky.labeler.service"
LIST = "app.bsky.graph.list"
LIST_ITEM = "app.bsky.graph.listitem"
WHTWND_ENTRY = "com.whtwnd.blog.entry"

BSKY_COLLECTIONS = (
    POST,
    LIKE,
    REPOST,
    FOLLOW,
    BLOCK,
    PROFILE,
    FEED_GENERATOR,
    LABELER_SERVICE,
    LIST,
    LIST_ITEM,
)


class LexiconRegistry:
    """Maps collection NSIDs to schemas; unknown NSIDs pass through."""

    def __init__(self):
        self.schemas: dict[str, RecordSchema] = {}

    def register(self, schema: RecordSchema) -> None:
        Nsid(schema.nsid)  # validate the NSID itself
        self.schemas[schema.nsid] = schema

    def validate(self, collection: str, record: dict) -> None:
        """Validate a record if its collection is known; else pass through.

        A registered collection's NSID was checked by :meth:`register`, so
        only unregistered collections are parsed here.
        """
        schema = self.schemas.get(collection)
        if schema is not None:
            schema.validate(record)
        elif not Nsid.is_valid(collection):
            raise LexiconError("invalid collection NSID %r" % collection)


def default_registry() -> LexiconRegistry:
    """The registry with all Bluesky lexicons the paper's datasets touch."""
    registry = LexiconRegistry()
    registry.register(
        RecordSchema(
            POST,
            (
                Field("text", "string", required=True, max_length=3000),
                Field("createdAt", "string", required=True),
                Field("langs", "list"),
                Field("reply", "dict"),
                Field("embed", "dict"),
                Field("facets", "list"),
                Field("labels", "dict"),
                Field("tags", "list"),
            ),
        )
    )
    registry.register(
        RecordSchema(
            LIKE,
            (
                Field("subject", "ref", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            REPOST,
            (
                Field("subject", "ref", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            FOLLOW,
            (
                Field("subject", "string", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            BLOCK,
            (
                Field("subject", "string", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            PROFILE,
            (
                Field("displayName", "string", max_length=640),
                Field("description", "string", max_length=2560),
                Field("avatar", "dict"),
                Field("banner", "dict"),
                Field("createdAt", "string"),
            ),
        )
    )
    registry.register(
        RecordSchema(
            FEED_GENERATOR,
            (
                Field("did", "string", required=True),
                Field("displayName", "string", required=True, max_length=240),
                Field("description", "string", max_length=3000),
                Field("avatar", "dict"),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            LABELER_SERVICE,
            (
                Field("policies", "dict", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            LIST,
            (
                Field("name", "string", required=True, max_length=64),
                Field("purpose", "string", required=True),
                Field("createdAt", "string", required=True),
                Field("description", "string"),
            ),
        )
    )
    registry.register(
        RecordSchema(
            LIST_ITEM,
            (
                Field("subject", "string", required=True),
                Field("list", "string", required=True),
                Field("createdAt", "string", required=True),
            ),
        )
    )
    registry.register(
        RecordSchema(
            WHTWND_ENTRY,
            (
                Field("content", "string", required=True),
                Field("title", "string", max_length=1000),
                Field("createdAt", "string"),
                Field("visibility", "string"),
            ),
        )
    )
    return registry
