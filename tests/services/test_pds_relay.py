"""Tests for the PDS, the Relay, and the Firehose."""

import pytest

from repro.atproto.events import KIND_COMMIT, KIND_HANDLE, KIND_IDENTITY, KIND_TOMBSTONE
from repro.atproto.keys import HmacKeypair
from repro.atproto.lexicon import FOLLOW, POST, LexiconRegistry
from repro.atproto.repo import RepoError, import_car
from repro.services.pds import Pds, PdsError
from repro.services.relay import CAR_CACHE_MAX, Firehose, Relay
from repro.services.xrpc import XrpcError


NOW = 1_713_000_000_000_000


def post(text, t="2024-04-01T00:00:00Z"):
    return {"$type": POST, "text": text, "createdAt": t}


class TestPdsAccounts:
    def test_create_account(self, net):
        did, _ = net.create_user("alice")
        assert net.pds.has_account(did)
        assert len(net.pds.dids()) == 1

    def test_duplicate_account_rejected(self, net):
        did, key = net.create_user("alice")
        with pytest.raises(PdsError):
            net.pds.create_account(did, key)

    def test_remove_account(self, net):
        did, _ = net.create_user("alice")
        net.pds.remove_account(did, net.tick())
        assert not net.pds.has_account(did)

    def test_lexicon_validation_on_write(self, net):
        from repro.atproto.lexicon import LexiconError

        did, _ = net.create_user("alice")
        with pytest.raises(LexiconError):
            net.pds.create_record(did, POST, {"$type": POST, "text": "no createdAt"}, 1)

    def test_migration_between_pdses(self, net):
        did, _ = net.create_user("alice")
        meta = net.pds.create_record(did, POST, post("pre-move"), net.tick())
        repo = net.pds.repo(did)
        new_pds = Pds("https://selfhosted.test")
        net.pds._repos.pop(did)  # simulate transfer-out
        new_pds.import_repo(repo)
        assert new_pds.repo(did).get_record_cid(POST, meta.ops[0].rkey) == meta.ops[0].cid


@pytest.mark.parametrize(
    "refused",
    [
        lambda pds, did, now: pds.create_record(did, POST, post("again"), now, rkey="self"),
        lambda pds, did, now: pds.update_record(did, POST, "ghost", post("edit"), now),
    ],
    ids=["create_existing_rkey", "update_missing_record"],
)
def test_refused_write_leaves_head_and_rev(net, refused):
    did, _ = net.create_user("alice")
    net.pds.create_record(did, POST, post("first"), net.tick(), rkey="self")
    repo = net.pds.repo(did)
    before = (repo.head, repo.rev, len(net.relay.xrpc_subscribeRepos()))
    with pytest.raises(RepoError):
        refused(net.pds, did, net.tick())
    assert (repo.head, repo.rev, len(net.relay.xrpc_subscribeRepos())) == before


class TestAccountEdgeCases:
    @pytest.fixture()
    def pds(self):
        return Pds("https://pds.test")

    @pytest.fixture()
    def account(self, pds):
        did = "did:plc:" + "s" * 24
        pds.create_account(did, HmacKeypair.from_seed(b"acct"))
        return did

    def test_remove_unknown_account(self, pds):
        with pytest.raises(PdsError):
            pds.remove_account("did:plc:" + "q" * 24, NOW)

    def test_repo_unknown_account(self, pds):
        with pytest.raises(PdsError):
            pds.repo("did:plc:" + "q" * 24)

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


class TestPdsSyncApi:
    def test_list_repos_pagination(self, net):
        for i in range(5):
            did, _ = net.create_user("user%d" % i)
            net.pds.create_record(did, POST, post("x"), net.tick())
        first = net.pds.xrpc_listRepos(limit=2)
        assert len(first["repos"]) == 2
        second = net.pds.xrpc_listRepos(cursor=first["cursor"], limit=10)
        assert len(second["repos"]) == 3
        assert second["cursor"] is None

    def test_get_repo_car(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("hello"), net.tick())
        snapshot = import_car(net.pds.xrpc_getRepo(did=did))
        assert snapshot.did == did

    def test_get_repo_unknown(self, net):
        with pytest.raises(XrpcError):
            net.pds.xrpc_getRepo(did="did:plc:" + "z" * 24)

    def test_get_record(self, net):
        did, _ = net.create_user("alice")
        meta = net.pds.create_record(did, POST, post("hi"), net.tick())
        op = meta.ops[0]
        repo = net.pds.repo(did)
        assert dict(repo.list_records(POST))[op.path]["text"] == "hi"
        assert repo.get_record_cid(POST, op.rkey) == op.cid


class TestRelay:
    def test_commit_events_flow_to_firehose(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("hello"), net.tick())
        events = net.relay.xrpc_subscribeRepos()
        kinds = [e.kind for e in events]
        assert KIND_COMMIT in kinds

    def test_event_records_included(self, net):
        did, _ = net.create_user("alice")
        meta = net.pds.create_record(did, POST, post("payload"), net.tick())
        commit = [e for e in net.relay.xrpc_subscribeRepos() if e.kind == KIND_COMMIT][0]
        assert commit.ops[0].record["text"] == "payload"
        assert commit.ops is meta.ops  # the relay forwards the repo's ops as they are

    def test_seq_monotonic(self, net):
        did, _ = net.create_user("alice")
        for i in range(5):
            net.pds.create_record(did, POST, post("p%d" % i), net.tick())
        seqs = [e.seq for e in net.relay.xrpc_subscribeRepos()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_cursor_replay(self, net):
        did, _ = net.create_user("alice")
        for i in range(4):
            net.pds.create_record(did, POST, post("p%d" % i), net.tick())
        all_events = net.relay.xrpc_subscribeRepos()
        later = net.relay.xrpc_subscribeRepos(cursor=all_events[1].seq)
        assert [e.seq for e in later] == [e.seq for e in all_events[2:]]

    def test_relay_serves_repo_from_cache(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("cached"), net.tick())
        snapshot = import_car(net.relay.xrpc_getRepo(did=did))
        assert snapshot.did == did

    def test_list_repos_via_relay(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("x"), net.tick())
        result = net.relay.xrpc_listRepos()
        assert result["repos"][0]["did"] == did
        assert result["repos"][0]["rev"] is not None

    def test_tombstone_event(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("x"), net.tick())
        net.pds.remove_account(did, net.tick())
        kinds = [e.kind for e in net.relay.xrpc_subscribeRepos()]
        assert KIND_TOMBSTONE in kinds
        with pytest.raises(XrpcError):
            net.relay.xrpc_getRepo(did=did)

    def test_identity_and_handle_events(self, net):
        did, _ = net.create_user("alice")
        net.relay.publish_identity_event(did, net.tick())
        net.relay.publish_handle_event(did, "alice.example.com", net.tick())
        kinds = [e.kind for e in net.relay.xrpc_subscribeRepos()]
        assert KIND_IDENTITY in kinds and KIND_HANDLE in kinds

    def test_get_latest_commit(self, net):
        did, _ = net.create_user("alice")
        meta = net.pds.create_record(did, POST, post("x"), net.tick())
        mirrored = net.relay.cached_repo(did)
        assert (mirrored.head, mirrored.rev) == (meta.commit_cid, meta.rev)

    def test_multi_pds_aggregation(self, net):
        other_pds = Pds("https://pds2.test")
        net.relay.crawl_pds(other_pds)
        key = HmacKeypair.from_seed(b"bob")
        other_pds.create_account("did:plc:" + "b" * 24, key)
        other_pds.create_record("did:plc:" + "b" * 24, POST, post("from pds2"), net.tick())
        did_a, _ = net.create_user("alice")
        net.pds.create_record(did_a, POST, post("from pds1"), net.tick())
        dids = {e.did for e in net.relay.xrpc_subscribeRepos() if e.kind == KIND_COMMIT}
        assert dids == {"did:plc:" + "b" * 24, did_a}


class TestFirehoseRetention:
    DAY_US = 24 * 3600 * 1_000_000

    def test_old_events_pruned(self):
        from repro.atproto.events import IdentityEvent

        firehose = Firehose()
        base = 1_700_000_000_000_000
        for day in range(10):
            firehose.publish(
                lambda seq, day=day: IdentityEvent(
                    seq=seq, did="did:plc:" + "a" * 24, time_us=base + day * self.DAY_US
                )
            )
        # Only the last 3 days (plus the newest event's own day) survive.
        remaining = firehose.events_since(0)
        assert all(e.time_us >= base + 6 * self.DAY_US for e in remaining)
        assert remaining[1].seq > 1  # after the OutdatedCursor notice

    def test_cursor_before_retention_window(self):
        from repro.atproto.events import IdentityEvent

        firehose = Firehose()
        base = 1_700_000_000_000_000
        for day in range(10):
            firehose.publish(
                lambda seq, day=day: IdentityEvent(
                    seq=seq, did="did:plc:" + "a" * 24, time_us=base + day * self.DAY_US
                )
            )
        # Asking from seq 0 returns what retention kept, preceded by an
        # OutdatedCursor notice sizing the gap.
        events = firehose.events_since(0)
        info, replay = events[0], events[1:]
        assert info.kind == "#info"
        assert info.oldest_seq == replay[0].seq
        assert info.dropped == replay[0].seq - 1 == firehose.dropped_total
        assert [e.seq for e in replay] == list(range(replay[0].seq, 11))

    def test_live_subscription(self):
        from repro.atproto.events import IdentityEvent

        firehose = Firehose()
        received = []
        firehose.subscribe(received.append)
        firehose.publish(
            lambda seq: IdentityEvent(seq=seq, did="did:plc:" + "a" * 24, time_us=1)
        )
        assert len(received) == 1
        assert received[0].seq == 1


class TestListReposTombstonedCursor:
    """Pagination must survive the cursor DID being deleted between pages
    (bisect on sort position, not an exact-match index lookup)."""

    def seed_users(self, net, count=6):
        dids = []
        for i in range(count):
            did, _ = net.create_user("user%d" % i)
            net.pds.create_record(did, POST, post("x"), net.tick())
            dids.append(did)
        return sorted(dids)

    def drain(self, service, limit=2):
        seen, cursor = [], None
        while True:
            page = service.xrpc_listRepos(cursor=cursor, limit=limit)
            seen.extend(entry["did"] for entry in page["repos"])
            cursor = page["cursor"]
            if cursor is None:
                return seen

    def test_relay_pagination_continues_past_tombstoned_cursor(self, net):
        dids = self.seed_users(net)
        first = net.relay.xrpc_listRepos(limit=2)
        cursor = first["cursor"]
        net.pds.remove_account(cursor, net.tick())  # tombstone mid-crawl
        seen = [e["did"] for e in first["repos"]]
        while cursor is not None:
            page = net.relay.xrpc_listRepos(cursor=cursor, limit=2)
            seen.extend(e["did"] for e in page["repos"])
            cursor = page["cursor"]
        # Every surviving repo after the tombstoned one is still listed.
        assert set(seen) >= set(dids) - {first["cursor"]}
        assert len(seen) == len(set(seen))  # no duplicates either

    def test_pds_pagination_continues_past_tombstoned_cursor(self, net):
        dids = self.seed_users(net)
        first = net.pds.xrpc_listRepos(limit=2)
        cursor = first["cursor"]
        net.pds.remove_account(cursor, net.tick())
        seen = [e["did"] for e in first["repos"]]
        while cursor is not None:
            page = net.pds.xrpc_listRepos(cursor=cursor, limit=2)
            seen.extend(e["did"] for e in page["repos"])
            cursor = page["cursor"]
        assert set(seen) >= set(dids) - {first["cursor"]}
        assert len(seen) == len(set(seen))

    def test_full_listing_unaffected_without_tombstone(self, net):
        dids = self.seed_users(net)
        assert self.drain(net.relay) == dids
        assert self.drain(net.pds) == dids


class TestRelayCarCache:
    """getRepo serves a cached export while the head is unchanged; every
    new head or removal invalidates it, and the bound evicts oldest first."""

    def test_repeat_get_repo_matches_fresh_export(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("cached"), net.tick())
        first = net.relay.xrpc_getRepo(did=did)
        assert net.relay._car_cache[did][1] is first
        again = net.relay.xrpc_getRepo(did=did)
        assert again is first  # served from the cache
        assert again == net.pds.repo(did).export_car()

    def test_publish_commit_serves_new_head(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("one"), net.tick())
        before = net.relay.xrpc_getRepo(did=did)
        net.pds.create_record(did, POST, post("two"), net.tick())
        after = net.relay.xrpc_getRepo(did=did)
        assert after != before
        snapshot = import_car(after)
        assert str(snapshot.commit_cid) == str(net.pds.repo(did).head)
        assert after == net.pds.repo(did).export_car()

    def test_publish_tombstone_gives_404(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("gone soon"), net.tick())
        net.relay.xrpc_getRepo(did=did)
        net.pds.remove_account(did, net.tick())
        assert did not in net.relay._car_cache
        with pytest.raises(XrpcError) as err:
            net.relay.xrpc_getRepo(did=did)
        assert err.value.status == 404

    def test_oldest_entry_evicted_first(self, net):
        dids = []
        for index in range(CAR_CACHE_MAX + 1):
            did, _ = net.create_user("user%d" % index)
            net.pds.create_record(did, POST, post("p"), net.tick())
            net.relay.xrpc_getRepo(did=did)
            dids.append(did)
        cached = list(net.relay._car_cache)
        assert len(cached) == CAR_CACHE_MAX
        assert cached == dids[1:]  # the first fetch was evicted

    def test_bare_relay_counts_into_its_own_registry(self, net):
        did, _ = net.create_user("alice")
        net.pds.create_record(did, POST, post("counted"), net.tick())
        other = Relay("https://other-relay.test")
        assert net.relay.telemetry is not other.telemetry
        net.relay.xrpc_getRepo(did=did)
        net.relay.xrpc_getRepo(did=did)
        counters = net.relay.telemetry.registry.snapshot()["counters"]
        assert counters["read_cache_misses_total{cache=repo_car}"] == 1
        assert counters["read_cache_hits_total{cache=repo_car}"] == 1
        assert other.telemetry.registry.snapshot()["counters"] == {}
