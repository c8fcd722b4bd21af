"""Personal Data Servers.

A PDS hosts user repositories.  Bluesky
PBC operates the default PDSes; since early 2024 anyone can self-host one
and federate.  The PDS exposes the ``com.atproto.sync.*`` read interface a
Relay crawls, plus account/record management used by clients, and forwards
every commit to the relays that subscribed to it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.atproto.keys import Keypair
from repro.atproto.lexicon import LexiconRegistry, default_registry
from repro.atproto.repo import CommitMeta, Repo, WriteOp
from repro.services.xrpc import XrpcError, XrpcService


class PdsError(Exception):
    """Raised on invalid PDS operations."""


class Pds(XrpcService):
    """One Personal Data Server hosting many repositories."""

    def __init__(
        self,
        url: str,
        operator: str = "bsky",
        lexicons: Optional[LexiconRegistry] = None,
    ):
        self.url = url.rstrip("/")
        self.operator = operator
        self.lexicons = lexicons if lexicons is not None else default_registry()
        self._repos: dict[str, Repo] = {}
        self._commit_listeners: list[Callable[[str, CommitMeta], None]] = []
        self._tombstone_listeners: list[Callable[[str, int], None]] = []
        self._next_clock_id = 0

    # -- account lifecycle -----------------------------------------------------

    def create_account(self, did: str, keypair: Keypair) -> Repo:
        if did in self._repos:
            raise PdsError("account %s already exists on this PDS" % did)
        repo = Repo(did, keypair, clock_id=self._next_clock_id % 1024)
        self._next_clock_id += 1
        self._repos[did] = repo
        return repo

    def import_repo(self, repo: Repo) -> None:
        """Account migration: adopt an existing repository object."""
        if repo.did in self._repos:
            raise PdsError("account %s already exists on this PDS" % repo.did)
        self._repos[repo.did] = repo

    def import_account_car(self, car: bytes, keypair: Keypair, now_us: int) -> Repo:
        """Account migration over the wire: ingest a repo CAR export.

        Verifies the commit signature against the supplied keypair,
        rebuilds the repository, and replays all records as one signed
        migration commit (which also announces the new hosting location
        to subscribed relays).
        """
        from repro.atproto.repo import import_car

        snapshot = import_car(car, verify_key=keypair.public_key)
        # Every record is decoded first: a bad CAR is refused with nothing written.
        writes = []
        for path, record in snapshot.list_records():
            collection, _, rkey = path.partition("/")
            writes.append(WriteOp("create", collection, rkey, record))
        if snapshot.did in self._repos:
            raise PdsError("account %s already exists on this PDS" % snapshot.did)
        repo = Repo(snapshot.did, keypair, clock_id=self._next_clock_id % 1024)
        self._next_clock_id += 1
        self._repos[snapshot.did] = repo
        if writes:
            meta = repo.apply_writes(writes, now_us)
            self._notify(snapshot.did, meta)
        return repo

    def remove_account(self, did: str, now_us: int) -> None:
        """Delete an account (emits a tombstone to subscribed relays)."""
        if did not in self._repos:
            raise PdsError("unknown account %s" % did)
        del self._repos[did]
        for listener in self._tombstone_listeners:
            listener(did, now_us)

    def has_account(self, did: str) -> bool:
        return did in self._repos

    def repo(self, did: str) -> Repo:
        repo = self._repos.get(did)
        if repo is None:
            raise PdsError("unknown account %s" % did)
        return repo

    def dids(self) -> list[str]:
        return list(self._repos)

    # -- record writes ------------------------------------------------------------

    def create_record(
        self,
        did: str,
        collection: str,
        record: dict,
        now_us: int,
        rkey: Optional[str] = None,
    ) -> CommitMeta:
        self.lexicons.validate(collection, record)
        if rkey is None:
            rkey = str(self.repo(did).next_tid(now_us))
        return self._write(did, [WriteOp("create", collection, rkey, record)], now_us)

    def update_record(
        self, did: str, collection: str, rkey: str, record: dict, now_us: int
    ) -> CommitMeta:
        self.lexicons.validate(collection, record)
        return self._write(did, [WriteOp("update", collection, rkey, record)], now_us)

    def delete_record(self, did: str, collection: str, rkey: str, now_us: int) -> CommitMeta:
        return self._write(did, [WriteOp("delete", collection, rkey)], now_us)

    def apply_writes(self, did: str, writes: list[WriteOp], now_us: int) -> CommitMeta:
        for write in writes:
            if write.record is not None:
                self.lexicons.validate(write.collection, write.record)
        return self._write(did, writes, now_us)

    def _write(self, did: str, writes: list[WriteOp], now_us: int) -> CommitMeta:
        meta = self.repo(did).apply_writes(writes, now_us)
        self._notify(did, meta)
        return meta

    def _notify(self, did: str, meta: CommitMeta) -> None:
        for listener in self._commit_listeners:
            listener(did, meta)

    # -- subscriptions -------------------------------------------------------------

    def on_commit(self, listener: Callable[[str, CommitMeta], None]) -> None:
        self._commit_listeners.append(listener)

    def on_tombstone(self, listener: Callable[[str, int], None]) -> None:
        self._tombstone_listeners.append(listener)

    # -- XRPC surface ----------------------------------------------------------------

    def xrpc_listRepos(self, cursor: Optional[str] = None, limit: int = 500) -> dict:
        # bisect, not .index(): the cursor DID may have been deleted between
        # pages, and pagination must continue from its sort position rather
        # than silently ending the crawl (see Relay.xrpc_listRepos).
        from bisect import bisect_right

        dids = sorted(self._repos)
        start = bisect_right(dids, cursor) if cursor is not None else 0
        page = dids[start : start + limit]
        repos = []
        for did in page:
            repo = self._repos[did]
            if repo.head is not None:
                repos.append({"did": did, "head": str(repo.head), "rev": repo.rev})
        next_cursor = page[-1] if len(page) == limit else None
        return {"repos": repos, "cursor": next_cursor}

    def xrpc_getRepo(self, did: str) -> bytes:
        repo = self._repos.get(did)
        if repo is None:
            raise XrpcError(404, "repo %s not found" % did)
        if repo.head is None:
            raise XrpcError(404, "repo %s has no commits" % did)
        return repo.export_car()
