"""Additional PDS surface tests: blob sync API, preferences, accounts."""

import pytest

from repro.atproto.keys import HmacKeypair
from repro.atproto.lexicon import POST, PROFILE, LexiconRegistry
from repro.atproto.repo import RepoError, WriteOp
from repro.services.pds import Pds, PdsError
from repro.services.xrpc import ServiceDirectory, XrpcError

NOW = 1_713_000_000_000_000


@pytest.fixture()
def pds():
    return Pds("https://pds.test")


@pytest.fixture()
def account(pds):
    keypair = HmacKeypair.from_seed(b"acct")
    did = "did:plc:" + "s" * 24
    pds.create_account(did, keypair)
    return did


class TestBlobApiOverDirectory:
    def test_get_blob_via_xrpc_call(self, pds, account):
        directory = ServiceDirectory()
        directory.register(pds.url, pds)
        ref = pds.upload_blob(account, b"banner bytes", "image/jpeg")
        record = {
            "$type": PROFILE,
            "banner": ref.to_record_field(),
            "createdAt": "2024-04-13T00:00:00Z",
        }
        pds.create_record(account, PROFILE, record, NOW, rkey="self")
        data = directory.call(pds.url, "com.atproto.sync.getBlob", did=account, cid=str(ref.cid))
        assert data == b"banner bytes"

    def test_upload_requires_account(self, pds):
        with pytest.raises(PdsError):
            pds.upload_blob("did:plc:" + "z" * 24, b"x", "image/png")

    def test_unreferenced_blob_survives_until_gc(self, pds, account):
        ref = pds.upload_blob(account, b"orphan", "image/png")
        # Uploaded but never referenced: still fetchable (pending commit).
        assert pds.xrpc_getBlob(did=account, cid=str(ref.cid)) == b"orphan"

    def test_update_swaps_blob_reference(self, pds, account):
        old = pds.upload_blob(account, b"old avatar", "image/png")
        record = {
            "$type": PROFILE,
            "avatar": old.to_record_field(),
            "createdAt": "2024-04-13T00:00:00Z",
        }
        pds.create_record(account, PROFILE, record, NOW, rkey="self")
        new = pds.upload_blob(account, b"new avatar", "image/png")
        record2 = dict(record)
        record2["avatar"] = new.to_record_field()
        pds.update_record(account, PROFILE, "self", record2, NOW + 1)
        assert not pds.blobs.has(old.cid)  # old avatar garbage-collected
        assert pds.blobs.has(new.cid)


def _profile(ref=None) -> dict:
    record = {"$type": PROFILE, "createdAt": "2024-04-13T00:00:00Z"}
    if ref is not None:
        record["avatar"] = ref.to_record_field()
    return record


def _post_with(ref) -> dict:
    return {
        "$type": POST,
        "text": "look",
        "embed": {"images": [{"image": ref.to_record_field()}]},
        "createdAt": "2024-04-13T00:00:00Z",
    }


# Each scenario leaves the blob referenced by exactly the records that
# still hold it; the blob must be stored exactly while one does.
def _batch_create_takes_a_ref(pds, did, ref):
    pds.apply_writes(did, [WriteOp("create", PROFILE, "self", _profile(ref))], NOW)
    pds.create_record(did, POST, _post_with(ref), NOW + 1, rkey="p1")
    pds.delete_record(did, POST, "p1", NOW + 2)  # the profile still holds it


def _batch_delete_releases(pds, did, ref):
    pds.create_record(did, PROFILE, _profile(ref), NOW, rkey="self")
    pds.apply_writes(did, [WriteOp("delete", PROFILE, "self")], NOW + 1)


def _batch_update_releases(pds, did, ref):
    pds.create_record(did, PROFILE, _profile(ref), NOW, rkey="self")
    pds.apply_writes(did, [WriteOp("update", PROFILE, "self", _profile())], NOW + 1)


def _failed_create_takes_no_ref(pds, did, ref):
    pds.create_record(did, PROFILE, _profile(ref), NOW, rkey="self")
    with pytest.raises(RepoError):
        pds.create_record(did, PROFILE, _profile(ref), NOW + 1, rkey="self")
    pds.delete_record(did, PROFILE, "self", NOW + 2)


def _failed_update_takes_no_ref(pds, did, ref):
    pds.create_record(did, POST, _post_with(ref), NOW, rkey="p1")
    with pytest.raises(RepoError):
        pds.update_record(did, PROFILE, "self", _profile(ref), NOW + 1)
    pds.delete_record(did, POST, "p1", NOW + 2)


@pytest.mark.parametrize(
    "scenario, stored",
    [
        (_batch_create_takes_a_ref, True),
        (_batch_delete_releases, False),
        (_batch_update_releases, False),
        (_failed_create_takes_no_ref, False),
        (_failed_update_takes_no_ref, False),
    ],
    ids=lambda value: value.__name__.strip("_") if callable(value) else str(value),
)
def test_blob_refcounts_follow_committed_records(pds, account, scenario, stored):
    ref = pds.upload_blob(account, b"shared image", "image/png")
    scenario(pds, account, ref)
    assert pds.blobs.has(ref.cid) is stored


class TestAccountEdgeCases:
    def test_remove_unknown_account(self, pds):
        with pytest.raises(PdsError):
            pds.remove_account("did:plc:" + "q" * 24, NOW)

    def test_repo_unknown_account(self, pds):
        with pytest.raises(PdsError):
            pds.repo("did:plc:" + "q" * 24)

    def test_preferences_unknown_account(self, pds):
        with pytest.raises(PdsError):
            pds.put_preferences("did:plc:" + "q" * 24, {})

    def test_list_repos_skips_empty_repos(self, pds, account):
        # The account exists but has no commits yet.
        assert pds.xrpc_listRepos()["repos"] == []
        pds.create_record(
            account, POST,
            {"$type": POST, "text": "first", "createdAt": "2024-04-13T00:00:00Z"},
            NOW,
        )
        assert len(pds.xrpc_listRepos()["repos"]) == 1

    def test_validation_can_be_skipped(self):
        # A PDS with an empty lexicon registry lets through records a
        # lexicon would reject (the network is permissive at the sync layer).
        pds = Pds("https://pds.test", lexicons=LexiconRegistry())
        did = "did:plc:" + "s" * 24
        pds.create_account(did, HmacKeypair.from_seed(b"acct"))
        pds.create_record(did, POST, {"$type": POST, "text": "no createdAt"}, NOW)
        assert len(list(pds.repo(did).list_records(POST))) == 1
