"""Tests for CAR-based account migration and the WhiteWind AppView."""

import pytest

from repro.atproto.events import CommitEvent
from repro.atproto.keys import HmacKeypair
from repro.atproto.lexicon import POST, WHTWND_ENTRY
from repro.services.pds import Pds, PdsError
from repro.services.relay import Relay
from repro.services.whitewind import WhiteWindAppView

NOW = 1_713_000_000_000_000


def make_account(pds, name):
    keypair = HmacKeypair.from_seed(name.encode())
    did = "did:plc:" + (name * 24)[:24].ljust(24, "a")
    pds.create_account(did, keypair)
    return did, keypair


def post(text):
    return {"$type": POST, "text": text, "createdAt": "2024-04-13T00:00:00Z"}


class TestCarMigration:
    def test_full_migration_flow(self):
        old_pds = Pds("https://old.test")
        new_pds = Pds("https://new.test")
        did, keypair = make_account(old_pds, "mover")
        for index in range(12):
            old_pds.create_record(did, POST, post("post %d" % index), NOW + index)
        car = old_pds.xrpc_getRepo(did=did)
        old_pds.remove_account(did, NOW + 100)
        repo = new_pds.import_account_car(car, keypair, NOW + 200)
        assert new_pds.has_account(did)
        assert len(repo.mst) == 12
        assert len(list(new_pds.repo(did).list_records(POST))) == 12

    def test_migration_requires_correct_key(self):
        old_pds = Pds("https://old.test")
        new_pds = Pds("https://new.test")
        did, keypair = make_account(old_pds, "mover")
        old_pds.create_record(did, POST, post("x"), NOW)
        car = old_pds.xrpc_getRepo(did=did)
        from repro.atproto.repo import RepoError

        with pytest.raises(RepoError):
            new_pds.import_account_car(car, HmacKeypair.from_seed(b"wrong"), NOW)

    def test_migration_rejects_existing_account(self):
        pds = Pds("https://one.test")
        did, keypair = make_account(pds, "dupe")
        pds.create_record(did, POST, post("x"), NOW)
        car = pds.xrpc_getRepo(did=did)
        with pytest.raises(PdsError):
            pds.import_account_car(car, keypair, NOW)

    def test_migration_announces_on_relay(self):
        old_pds = Pds("https://old.test")
        new_pds = Pds("https://new.test")
        relay = Relay("https://relay.test")
        relay.crawl_pds(new_pds)
        did, keypair = make_account(old_pds, "mover")
        old_pds.create_record(did, POST, post("x"), NOW)
        car = old_pds.xrpc_getRepo(did=did)
        new_pds.import_account_car(car, keypair, NOW + 50)
        # The migration commit flows to the relay; the repo is now mirrored.
        assert relay.cached_repo(did) is not None
        events = relay.xrpc_subscribeRepos()
        assert any(e.did == did for e in events)


class TestWhiteWindAppView:
    def make_stack(self):
        pds = Pds("https://pds.test")
        relay = Relay("https://relay.test")
        relay.crawl_pds(pds)
        whitewind = WhiteWindAppView()
        whitewind.attach(relay)
        return pds, relay, whitewind

    def entry(self, title, content, visibility="public"):
        return {
            "$type": WHTWND_ENTRY,
            "title": title,
            "content": content,
            "createdAt": "2024-04-13T00:00:00Z",
            "visibility": visibility,
        }

    def test_indexes_only_whitewind_records(self):
        pds, _, whitewind = self.make_stack()
        did, _ = make_account(pds, "blogger")
        meta = pds.create_record(did, WHTWND_ENTRY, self.entry("Hello", "# first"), NOW)
        pds.create_record(did, POST, post("a bluesky post"), NOW + 1)
        assert [e["title"] for e in whitewind.xrpc_listEntries()["entries"]] == ["Hello"]
        # The post is not indexed under its own URI either.
        uris = [e["uri"] for e in whitewind.xrpc_listEntries(author=did)["entries"]]
        assert uris == ["at://%s/%s" % (did, meta.ops[0].path)]

    def test_get_entry(self):
        pds, _, whitewind = self.make_stack()
        did, _ = make_account(pds, "blogger")
        meta = pds.create_record(did, WHTWND_ENTRY, self.entry("T", "# body"), NOW)
        uri = "at://%s/%s" % (did, meta.ops[0][1])
        entries = whitewind.xrpc_listEntries(author=did)["entries"]
        assert entries == [{"uri": uri, "author": did, "title": "T"}]

    def test_unknown_entry_404(self):
        # Nothing is listed for an author with no entries.
        _, _, whitewind = self.make_stack()
        assert whitewind.xrpc_listEntries(author="did:plc:" + "g" * 24)["entries"] == []

    def test_list_by_author_newest_first(self):
        pds, _, whitewind = self.make_stack()
        did, _ = make_account(pds, "blogger")
        pds.create_record(did, WHTWND_ENTRY, self.entry("one", "1"), NOW)
        pds.create_record(did, WHTWND_ENTRY, self.entry("two", "2"), NOW + 10)
        result = whitewind.xrpc_listEntries(author=did)
        assert [e["title"] for e in result["entries"]] == ["two", "one"]

    def test_private_entries_hidden_from_listing(self):
        pds, _, whitewind = self.make_stack()
        did, _ = make_account(pds, "blogger")
        pds.create_record(
            did, WHTWND_ENTRY, self.entry("secret", "x", visibility="author"), NOW
        )
        assert whitewind.xrpc_listEntries()["entries"] == []

    def test_deletes_remove_entries(self):
        pds, _, whitewind = self.make_stack()
        did, _ = make_account(pds, "blogger")
        meta = pds.create_record(did, WHTWND_ENTRY, self.entry("gone", "x"), NOW)
        rkey = meta.ops[0][1].split("/", 1)[1]
        pds.delete_record(did, WHTWND_ENTRY, rkey, NOW + 5)
        assert whitewind.xrpc_listEntries()["entries"] == []

    def test_coexists_with_bluesky_appview(self, study_world):
        """In the simulated world, WhiteWind entries flow on the same
        firehose the Bluesky AppView consumes (Section 4)."""
        whitewind = WhiteWindAppView()
        # Replay the retained firehose backlog: Bluesky records, none of
        # which the WhiteWind index takes.
        events = study_world.relay.firehose.events_since(0)
        assert any(isinstance(event, CommitEvent) for event in events)
        for event in events:
            whitewind.consume_event(event)
        entries = whitewind.xrpc_listEntries(limit=100_000)["entries"]
        assert all(entry["uri"].split("/")[3] == WHTWND_ENTRY for entry in entries)
