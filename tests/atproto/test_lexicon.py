"""Tests for the lexicon registry and record validation."""

import pytest

from repro.atproto.lexicon import (
    FEED_GENERATOR,
    FOLLOW,
    LIKE,
    POST,
    WHTWND_ENTRY,
    Field,
    LexiconError,
    RecordSchema,
    default_registry,
)


@pytest.fixture()
def registry():
    return default_registry()


class TestValidation:
    def test_valid_post(self, registry):
        registry.validate(
            POST,
            {"$type": POST, "text": "hello", "createdAt": "2024-04-01T00:00:00Z"},
        )

    def test_missing_required_field(self, registry):
        with pytest.raises(LexiconError):
            registry.validate(POST, {"$type": POST, "text": "no createdAt"})

    def test_wrong_type_field(self, registry):
        with pytest.raises(LexiconError):
            registry.validate(
                POST, {"$type": POST, "text": 42, "createdAt": "2024-04-01T00:00:00Z"}
            )

    def test_type_mismatch(self, registry):
        with pytest.raises(LexiconError):
            registry.validate(POST, {"$type": LIKE, "text": "x", "createdAt": "y"})

    def test_text_too_long(self, registry):
        with pytest.raises(LexiconError):
            registry.validate(
                POST,
                {"$type": POST, "text": "x" * 3001, "createdAt": "2024-04-01T00:00:00Z"},
            )

    def test_like_requires_subject_ref(self, registry):
        with pytest.raises(LexiconError):
            registry.validate(
                LIKE, {"$type": LIKE, "subject": "not-a-ref", "createdAt": "t"}
            )

    def test_follow_subject_is_string_did(self, registry):
        registry.validate(
            FOLLOW, {"$type": FOLLOW, "subject": "did:plc:abc", "createdAt": "t"}
        )

    def test_unknown_collection_passes_through(self, registry):
        registry.validate("com.example.custom.thing", {"$type": "com.example.custom.thing"})

    def test_invalid_collection_nsid_rejected(self, registry):
        with pytest.raises(LexiconError):
            registry.validate("notannsid", {})

    def test_whitewind_entry(self, registry):
        registry.validate(
            WHTWND_ENTRY,
            {"$type": WHTWND_ENTRY, "content": "# my blog", "title": "post"},
        )

    def test_feed_generator_record(self, registry):
        registry.validate(
            FEED_GENERATOR,
            {
                "$type": FEED_GENERATOR,
                "did": "did:web:feeds.example.com",
                "displayName": "My Feed",
                "createdAt": "2024-01-01T00:00:00Z",
            },
        )


class TestRegistry:
    def test_known_collections_include_bsky_core(self, registry):
        known = registry.schemas
        for nsid in (POST, LIKE, FOLLOW, FEED_GENERATOR):
            assert nsid in known

    def test_custom_schema_registration(self, registry):
        schema = RecordSchema(
            "com.example.test.item",
            (Field("value", "integer", required=True),),
        )
        registry.register(schema)
        registry.validate(
            "com.example.test.item", {"$type": "com.example.test.item", "value": 3}
        )
        with pytest.raises(LexiconError):
            registry.validate(
                "com.example.test.item", {"$type": "com.example.test.item", "value": "x"}
            )

    def test_known_values_enforced(self):
        schema = RecordSchema(
            "com.example.test.enum",
            (Field("mode", "string", known_values=("a", "b")),),
        )
        schema.validate({"$type": "com.example.test.enum", "mode": "a"})
        with pytest.raises(LexiconError):
            schema.validate({"$type": "com.example.test.enum", "mode": "c"})

    def test_strict_schema_rejects_extras(self):
        schema = RecordSchema("com.example.test.strict", (), allow_extra=False)
        with pytest.raises(LexiconError):
            schema.validate({"$type": "com.example.test.strict", "extra": 1})

    def test_unknown_field_type_rejected_when_schema_is_built(self):
        # A typo in a field type fails at once, not on the first record
        # that carries the field; records lacking it never hide it.
        with pytest.raises(LexiconError, match="unknown field type 'strnig'"):
            RecordSchema("com.example.test.typo", (Field("x", "strnig"),))
