"""Tests for the PLC directory."""

import pytest

from repro.atproto.keys import HmacKeypair
from repro.identity.plc import PlcDirectory, PlcError


@pytest.fixture()
def directory():
    return PlcDirectory()


@pytest.fixture()
def rotation_key():
    return HmacKeypair.from_seed(b"rotation")


@pytest.fixture()
def signing_key():
    return HmacKeypair.from_seed(b"signing").did_key()


def create_account(directory, rotation_key, signing_key, handle="alice.bsky.social"):
    return directory.create(
        rotation_keypair=rotation_key,
        signing_key=signing_key,
        handle=handle,
        pds_endpoint="https://pds.bsky.network",
    )


class TestCreate:
    def test_creates_valid_plc_did(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        assert did.startswith("did:plc:")
        assert len(did) == len("did:plc:") + 24
        assert did in directory

    def test_did_is_deterministic_in_genesis(self, rotation_key, signing_key):
        a = create_account(PlcDirectory(), rotation_key, signing_key)
        b = create_account(PlcDirectory(), rotation_key, signing_key)
        assert a == b

    def test_different_handles_different_dids(self, directory, rotation_key, signing_key):
        a = create_account(directory, rotation_key, signing_key, "alice.bsky.social")
        b = create_account(directory, rotation_key, signing_key, "bob.bsky.social")
        assert a != b

    def test_resolve_document(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        doc = directory.resolve(did)
        assert doc.handle == "alice.bsky.social"
        assert doc.pds_endpoint == "https://pds.bsky.network"
        assert doc.signing_key == signing_key

    def test_unknown_did_resolves_none(self, directory):
        assert directory.resolve("did:plc:" + "a" * 24) is None


class TestUpdate:
    def test_handle_change(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.update(did, rotation_key, handle="alice.example.com")
        assert directory.resolve(did).handle == "alice.example.com"
        assert len(directory.audit_log(did)) == 2

    def test_pds_migration(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.update(did, rotation_key, pds_endpoint="https://selfhosted.example.com")
        assert directory.resolve(did).pds_endpoint == "https://selfhosted.example.com"

    def test_labeler_endpoint_announcement(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.update(did, rotation_key, labeler_endpoint="https://labeler.example.com")
        assert directory.resolve(did).labeler_endpoint == "https://labeler.example.com"

    def test_update_requires_rotation_key(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        attacker = HmacKeypair.from_seed(b"attacker")
        with pytest.raises(PlcError):
            directory.update(did, attacker, handle="evil.example.com")

    def test_update_unknown_did(self, directory, rotation_key):
        with pytest.raises(PlcError):
            directory.update("did:plc:" + "a" * 24, rotation_key, handle="x.com")

    def test_audit_log_links_prev_hashes(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.update(did, rotation_key, handle="h1.example.com")
        directory.update(did, rotation_key, handle="h2.example.com")
        log = directory.audit_log(did)
        assert log[1].prev == log[0].op_hash()
        assert log[2].prev == log[1].op_hash()


class TestTombstone:
    def test_tombstone_hides_document(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.tombstone(did, rotation_key)
        assert directory.resolve(did) is None

    def test_tombstoned_cannot_update(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        directory.tombstone(did, rotation_key)
        with pytest.raises(PlcError):
            directory.update(did, rotation_key, handle="back.example.com")

    def test_tombstone_requires_rotation_key(self, directory, rotation_key, signing_key):
        did = create_account(directory, rotation_key, signing_key)
        with pytest.raises(PlcError):
            directory.tombstone(did, HmacKeypair.from_seed(b"other"))


class TestSnapshot:
    def test_export_snapshot(self, directory, rotation_key, signing_key):
        dids = [
            create_account(directory, rotation_key, signing_key, "user%d.bsky.social" % i)
            for i in range(5)
        ]
        directory.tombstone(dids[0], rotation_key)
        snapshot = {did: directory.resolve(did) for did in dids}
        assert snapshot[dids[0]] is None
        assert [doc.to_json()["id"] for doc in snapshot.values() if doc] == dids[1:]
