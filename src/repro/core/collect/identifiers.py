"""User Identifier Dataset (Section 3).

Weekly ``com.atproto.sync.listRepos`` crawls of the Relay yield the set of
all active users, their DIDs, and the latest repo commit revision — used
both as the seed list for every other crawl and to detect which repos
changed between snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.faults import DEFAULT_RETRY_POLICY, call_with_retries, retry_jitter_rng
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import ServiceDirectory


@dataclass
class IdentifierSnapshot:
    """One listRepos crawl: DID → (head CID, rev)."""

    time_us: int
    repos: dict[str, tuple[str, str]] = field(default_factory=dict)


@dataclass
class UserIdentifierDataset:
    snapshots: list[IdentifierSnapshot] = field(default_factory=list)
    # Pages that needed a transient-error retry (resumed from the same
    # cursor, so a flaky relay costs time but never truncates a crawl).
    page_retries: int = 0
    aborted_crawls: int = 0  # crawls abandoned after retries exhausted

    def all_dids(self) -> set[str]:
        """Every identifier seen in any snapshot (the paper's 5.59M)."""
        seen: set[str] = set()
        for snapshot in self.snapshots:
            seen.update(snapshot.repos)
        return seen

    def latest(self) -> IdentifierSnapshot:
        if not self.snapshots:
            raise ValueError("no snapshots collected")
        return self.snapshots[-1]


class ListReposCollector:
    """Paginates ``sync.listRepos`` against the Relay."""

    def __init__(
        self,
        services: ServiceDirectory,
        relay_url: str,
        page_size: int = 1000,
        retry_policy=None,
        integrity=None,
        on_progress=None,
        telemetry=None,
    ):
        self.services = services
        self.relay_url = relay_url
        self.page_size = page_size
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.integrity = integrity
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = UserIdentifierDataset()

    def crawl(self, now_us: int) -> IdentifierSnapshot:
        with self.telemetry.tracer.span("identifiers-crawl", cat="collector"):
            return self._crawl(now_us)

    def _crawl(self, now_us: int) -> IdentifierSnapshot:
        """One full pagination; transient page failures resume from the
        same cursor.  A crawl whose retries exhaust is abandoned (and
        counted) rather than recorded as a silently truncated snapshot —
        the weekly cadence supplies the next attempt."""
        from collections import Counter

        from repro.services.xrpc import XrpcError

        for existing in self.dataset.snapshots:
            if existing.time_us == now_us:
                # Resume: this crawl completed before the checkpoint.
                return existing
        snapshot = IdentifierSnapshot(time_us=now_us)
        counters: Counter = Counter()
        cursor = None
        virtual_now = now_us
        retry_rng = retry_jitter_rng("identifiers", now_us)
        try:
            while True:
                page, virtual_now = call_with_retries(
                    self.services,
                    self.relay_url,
                    "com.atproto.sync.listRepos",
                    now_us=virtual_now,
                    policy=self.retry_policy,
                    rng=retry_rng,
                    counters=counters,
                    cursor=cursor,
                    limit=self.page_size,
                )
                for entry in page["repos"]:
                    did = entry["did"]
                    if self.integrity is not None and not self.integrity.check_identifier(
                        self.relay_url, did, entry["head"], entry["rev"]
                    ):
                        continue  # quarantined: unusable as a crawl seed
                    snapshot.repos[did] = (entry["head"], entry["rev"])
                if self.on_progress is not None:
                    self.on_progress("listRepos:%s" % (cursor or "start"))
                cursor = page["cursor"]
                if cursor is None:
                    break
        except XrpcError:
            self.dataset.page_retries += counters["retries"]
            self.dataset.aborted_crawls += 1
            return snapshot
        self.dataset.page_retries += counters["retries"]
        self.dataset.snapshots.append(snapshot)
        return snapshot
