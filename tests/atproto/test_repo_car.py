"""Tests for repositories and CAR export/import."""

import gc
import weakref

import pytest

from repro.atproto.car import CarError, read_car, write_car
from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import cid_for_cbor, cid_for_dag_cbor_bytes, cid_for_raw
from repro.atproto.keys import HmacKeypair, Secp256k1Keypair
from repro.atproto.lexicon import FOLLOW, LIKE, POST
from repro.atproto.repo import Repo, RepoError, WriteOp, encode_commit, import_car


def make_repo(fast=True) -> Repo:
    keypair = HmacKeypair.from_seed(b"repo") if fast else Secp256k1Keypair.from_seed(b"repo")
    return Repo("did:plc:testuser123", keypair)


def post_record(text: str) -> dict:
    return {"$type": POST, "text": text, "createdAt": "2024-04-01T00:00:00Z"}


def record_at(repo, collection: str, rkey: str):
    """The record at ``collection/rkey``, or None."""
    return dict(repo.list_records(collection)).get("%s/%s" % (collection, rkey))


class TestWriteOps:
    def test_create_requires_record(self):
        with pytest.raises(RepoError):
            WriteOp("create", POST, "rkey")

    def test_delete_rejects_record(self):
        with pytest.raises(RepoError):
            WriteOp("delete", POST, "rkey", {"$type": POST})

    def test_unknown_action(self):
        with pytest.raises(RepoError):
            WriteOp("upsert", POST, "rkey", {})


class TestRepoCrud:
    def test_create_and_get(self):
        repo = make_repo()
        meta = repo.create_record(POST, post_record("hello"), now_us=1000)
        op = meta.ops[0]
        assert op.action == "create"
        assert op.record["text"] == "hello"
        assert record_at(repo, POST, op.rkey)["text"] == "hello"
        assert repo.get_record_cid(POST, op.rkey) == op.cid

    def test_auto_rkey_is_tid(self):
        from repro.atproto.tid import Tid

        repo = make_repo()
        meta = repo.create_record(POST, post_record("x"), now_us=999)
        rkey = meta.ops[0][1].split("/")[1]
        assert Tid.is_valid(rkey)

    def test_explicit_rkey(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1, rkey="self")
        assert record_at(repo, POST, "self") is not None

    def test_duplicate_create_rejected(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1, rkey="self")
        with pytest.raises(RepoError):
            repo.create_record(POST, post_record("y"), now_us=2, rkey="self")

    def test_update(self):
        repo = make_repo()
        repo.create_record(POST, post_record("v1"), now_us=1, rkey="self")
        repo.apply_writes([WriteOp("update", POST, "self", post_record("v2"))], now_us=2)
        assert record_at(repo, POST, "self")["text"] == "v2"

    def test_update_missing_rejected(self):
        repo = make_repo()
        with pytest.raises(RepoError):
            repo.apply_writes([WriteOp("update", POST, "ghost", post_record("x"))], now_us=1)

    def test_delete(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1, rkey="self")
        repo.apply_writes([WriteOp("delete", POST, "self")], now_us=2)
        assert record_at(repo, POST, "self") is None
        assert len(repo.mst) == 0

    def test_identical_records_share_block(self):
        repo = make_repo()
        record = {"$type": LIKE, "subject": {"uri": "at://x/app.bsky.feed.post/1"},
                  "createdAt": "2024-01-01T00:00:00Z"}
        repo.create_record(LIKE, dict(record), now_us=1, rkey="a")
        repo.create_record(LIKE, dict(record), now_us=2, rkey="b")
        repo.apply_writes([WriteOp("delete", LIKE, "a")], now_us=3)
        # The shared block must survive deleting one referent.
        assert record_at(repo, LIKE, "b") is not None

    def test_list_records_by_collection(self):
        repo = make_repo()
        repo.create_record(POST, post_record("p"), now_us=1)
        repo.create_record(
            FOLLOW,
            {"$type": FOLLOW, "subject": "did:plc:other", "createdAt": "2024-01-01T00:00:00Z"},
            now_us=2,
        )
        posts = list(repo.list_records(POST))
        assert len(posts) == 1
        assert set(repo.collections()) == {POST, FOLLOW}

    def test_batch_write_is_one_commit(self):
        repo = make_repo()
        writes = [
            WriteOp("create", POST, "a", post_record("1")),
            WriteOp("create", POST, "b", post_record("2")),
        ]
        meta = repo.apply_writes(writes, now_us=10)
        assert [op.path for op in meta.ops] == [POST + "/a", POST + "/b"]
        assert repo.head == meta.commit_cid
        assert repo.rev == meta.rev

    def test_empty_batch_rejected(self):
        with pytest.raises(RepoError):
            make_repo().apply_writes([], now_us=1)

    @pytest.mark.parametrize(
        "refused",
        [
            WriteOp("create", POST, "one", post_record("again")),
            WriteOp("update", POST, "missing", post_record("x")),
            WriteOp("delete", POST, "missing"),
            WriteOp("create", POST, "two", post_record("twice")),
            WriteOp("create", POST, "bad key", post_record("x")),
        ],
        ids=["create-existing", "update-missing", "delete-missing", "create-twice", "bad-key"],
    )
    def test_refused_batch_changes_nothing(self, refused):
        repo = make_repo()
        repo.create_record(POST, post_record("one"), now_us=1, rkey="one")
        before = (len(repo.mst), repo.export_car(), repo.head, repo.rev)
        with pytest.raises(ValueError):
            repo.apply_writes([WriteOp("create", POST, "two", post_record("two")), refused], 2)
        assert (len(repo.mst), repo.export_car(), repo.head, repo.rev) == before
        assert record_at(repo, POST, "two") is None
        # The next commit's CAR holds the old records plus what its ops
        # announce, and no block besides them, the tree and the commit.
        meta = repo.create_record(POST, post_record("three"), now_us=3, rkey="three")
        car = repo.export_car()
        snapshot = import_car(car)
        paths = [path for path, _, _ in snapshot.records()]
        assert paths == [POST + "/one"] + [op.path for op in meta.ops]
        assert len(read_car(car)[1]) == 1 + len(repo.mst.blocks()) + len(paths)

    def test_batch_sees_its_own_earlier_writes(self):
        repo = make_repo()
        writes = [
            WriteOp("create", POST, "a", post_record("1")),
            WriteOp("update", POST, "a", post_record("2")),
            WriteOp("create", POST, "b", post_record("3")),
            WriteOp("delete", POST, "b"),
        ]
        meta = repo.apply_writes(writes, now_us=10)
        assert [op.action for op in meta.ops] == ["create", "update", "create", "delete"]
        assert record_at(repo, POST, "a")["text"] == "2"
        assert record_at(repo, POST, "b") is None
        assert [path for path, _, _ in import_car(repo.export_car()).records()] == [POST + "/a"]


class TestCommits:
    def test_rev_advances(self):
        repo = make_repo()
        first = repo.create_record(POST, post_record("1"), now_us=100)
        second = repo.create_record(POST, post_record("2"), now_us=200)
        assert second.rev > first.rev
        assert repo.rev == second.rev

    def test_commit_cid_changes_with_content(self):
        repo = make_repo()
        first = repo.create_record(POST, post_record("1"), now_us=100)
        second = repo.create_record(POST, post_record("2"), now_us=200)
        assert first.commit_cid != second.commit_cid

    def test_commit_history_recorded(self):
        repo = make_repo()
        created = repo.create_record(POST, post_record("1"), now_us=100)
        assert repo.head == created.commit_cid
        deleted = repo.apply_writes([WriteOp("delete", POST, created.ops[0].rkey)], now_us=200)
        assert [m.ops[0].action for m in (created, deleted)] == ["create", "delete"]
        assert deleted.ops[0].cid is None and deleted.ops[0].record is None
        assert repo.head == deleted.commit_cid
        assert repo.rev == deleted.rev

    def test_repo_retains_no_commit(self):
        # A repo holds its current records and one signed commit; the
        # CommitMeta a write returns belongs to the caller alone.
        repo = make_repo()
        meta = repo.create_record(POST, post_record("1"), now_us=100)
        head = meta.commit_cid
        ref = weakref.ref(meta)
        del meta
        gc.collect()
        assert ref() is None, "repo retained its CommitMeta"
        assert repo.head == head


class TestCommitEmitter:
    """Commit blocks are emitted directly, not through the generic encoder."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_blocks_equal_generic_encoding(self, fast):
        keypair = make_repo(fast).keypair
        data = cid_for_cbor({"node": 1})
        for did in ("did:plc:testuser123", "did:web:" + "x" * 40):
            rev = "3kq2abcdefgh2"
            unsigned, signed = encode_commit(did, rev, data, keypair)
            commit = {"did": did, "version": 3, "data": data, "rev": rev, "prev": None}
            assert unsigned == cbor_encode(commit)
            commit["sig"] = keypair.sign(unsigned)
            assert signed == cbor_encode(commit)

    def test_head_block_decodes_to_signed_commit(self):
        repo = make_repo()
        meta = repo.create_record(POST, post_record("x"), now_us=1000)
        commit_cid, block = repo.signed_commit_block()
        commit = cbor_decode(block)
        assert commit_cid == meta.commit_cid == cid_for_dag_cbor_bytes(block)
        assert commit["data"] == repo.mst.root_cid()
        assert commit["rev"] == repo.rev
        assert block == cbor_encode(commit)

    @pytest.mark.parametrize("fast", [True, False])
    def test_import_verifies_emitted_signature(self, fast):
        repo = make_repo(fast)
        repo.create_record(POST, post_record("a"), now_us=1000)
        repo.create_record(LIKE, {"$type": LIKE, "createdAt": "2024-04-01T00:00:00Z"}, now_us=2000)
        snapshot = import_car(repo.export_car(), verify_key=repo.keypair.public_key)
        assert snapshot.commit_cid == repo.head
        assert snapshot.rev == repo.rev


class TestCarRoundTrip:
    def test_export_import(self):
        repo = make_repo()
        for i in range(25):
            repo.create_record(POST, post_record("post %d" % i), now_us=1000 + i)
        car = repo.export_car()
        snapshot = import_car(car)
        assert snapshot.did == repo.did
        assert snapshot.rev == repo.rev
        assert len(dict(snapshot.list_records())) == 25

    def test_import_verifies_signature(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1)
        car = repo.export_car()
        snapshot = import_car(car, verify_key=repo.keypair.public_key)
        assert snapshot.did == repo.did

    def test_import_rejects_wrong_key(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1)
        car = repo.export_car()
        wrong = HmacKeypair.from_seed(b"other").public_key
        with pytest.raises(RepoError):
            import_car(car, verify_key=wrong)

    def test_secp256k1_repo_round_trip(self):
        repo = make_repo(fast=False)
        repo.create_record(POST, post_record("signed for real"), now_us=1)
        snapshot = import_car(repo.export_car(), verify_key=repo.keypair.public_key)
        assert list(snapshot.list_records())[0][1]["text"] == "signed for real"

    def test_export_requires_commit(self):
        with pytest.raises(RepoError):
            make_repo().export_car()

    def test_snapshot_collections(self):
        repo = make_repo()
        repo.create_record(POST, post_record("x"), now_us=1)
        snapshot = import_car(repo.export_car())
        assert [path.split("/")[0] for path, _, _ in snapshot.records()] == [POST]


class TestCarFormat:
    def test_round_trip(self):
        cid_a = cid_for_raw(b"block a")
        cid_b = cid_for_raw(b"block b")
        car = write_car(cid_a, [(cid_a, b"block a"), (cid_b, b"block b")])
        roots, blocks = read_car(car)
        assert roots == [cid_a]
        assert blocks[cid_b] == b"block b"

    def test_empty_car_rejected(self):
        with pytest.raises(CarError):
            read_car(b"")

    def test_truncated_section_rejected(self):
        cid = cid_for_raw(b"x")
        car = write_car(cid, [(cid, b"x")])
        with pytest.raises(CarError):
            read_car(car[:-1])

    def test_bad_header_rejected(self):
        from repro.atproto.cbor import cbor_encode
        from repro.atproto.varint import encode_varint

        header = cbor_encode({"version": 2, "roots": []})
        with pytest.raises(CarError):
            read_car(encode_varint(len(header)) + header)
