"""DID Documents and FQDN Handles dataset (Section 3).

Downloads the DID document for every identifier — from the PLC directory
for ``did:plc`` (the paper took a full snapshot of plc.directory) and via
``https://<fqdn>/.well-known/did.json`` for ``did:web`` — and extracts the
FQDN handles, PDS endpoints, and labeler endpoints used downstream.

Resolution goes over the network in the real study, so an optional
:class:`~repro.netsim.faults.FaultInjector` can make it flaky; the
collector retries transient failures with the shared backoff policy and
only records a DID as failed when the resolver truly has no document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver
from repro.netsim.faults import DEFAULT_RETRY_POLICY, TARGET_IDENTITY, retry_jitter_rng
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import XrpcError


@dataclass
class DidDocumentRow:
    did: str
    method: str  # "plc" | "web"
    handle: Optional[str]
    pds_endpoint: Optional[str]
    labeler_endpoint: Optional[str]


@dataclass
class DidDocumentDataset:
    time_us: int = 0
    documents: dict[str, DidDocumentRow] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)  # identifiers with no doc
    # Documents rejected by the integrity cross-check (claimed PDS does
    # not host the DID); accounted in the integrity report, never ingested.
    quarantined: set[str] = field(default_factory=set)
    # Resolution attempts that hit an injected transient error and were
    # retried; ``unresolved_transient`` counts DIDs abandoned only because
    # every retry failed (distinct from genuinely tombstoned DIDs).
    transient_retries: int = 0
    unresolved_transient: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def handles(self) -> list[str]:
        return [row.handle for row in self.documents.values() if row.handle]

    def did_web_rows(self) -> list[DidDocumentRow]:
        return [row for row in self.documents.values() if row.method == "web"]


class DidDocumentCollector:
    """Bulk DID-document downloader."""

    def __init__(
        self,
        resolver: DidResolver,
        injector=None,
        retry_policy=None,
        adversary=None,
        integrity=None,
        host_of=None,
        on_progress=None,
        telemetry=None,
    ):
        self.resolver = resolver
        self.injector = injector
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        # ``adversary`` tampers resolved documents in flight (a poisoned
        # directory response); ``integrity`` cross-checks every document's
        # claimed PDS against that PDS's own listRepos membership and
        # quarantines mismatches, attributed via ``host_of`` to the DID's
        # actual hosting PDS.
        self.adversary = adversary
        self.integrity = integrity
        self.host_of = host_of
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = DidDocumentDataset()

    def crawl(self, dids: Iterable[str], now_us: int) -> DidDocumentDataset:
        with self.telemetry.tracer.span("diddoc-crawl", cat="collector"):
            return self._crawl(dids, now_us)

    def _crawl(self, dids: Iterable[str], now_us: int) -> DidDocumentDataset:
        data = self.dataset
        data.time_us = now_us
        virtual_now = now_us
        for did in dids:
            if did in data.documents or did in data.failed or did in data.quarantined:
                continue  # resume: this DID is already accounted for
            resolved, virtual_now = self._resolve_with_retries(did, virtual_now)
            if resolved is None:
                data.failed.add(did)
                continue
            doc = resolved[0]
            if doc is None:
                # Tombstoned or unresolvable — the paper likewise obtained
                # fewer documents (5.08M) than identifiers (5.59M).
                data.failed.add(did)
                continue
            if self.adversary is not None:
                doc = self.adversary.tamper_diddoc(did, doc)
            if self.integrity is not None:
                host = self.host_of(did) if self.host_of is not None else did
                if not self.integrity.check_diddoc(host, did, doc):
                    data.quarantined.add(did)
                    if self.on_progress is not None:
                        self.on_progress("diddoc:%s" % did)
                    continue
            data.documents[did] = DidDocumentRow(
                did=did,
                method=did.split(":", 2)[1],
                handle=doc.handle,
                pds_endpoint=doc.pds_endpoint,
                labeler_endpoint=doc.labeler_endpoint,
            )
            if self.on_progress is not None:
                self.on_progress("diddoc:%s" % did)
        return self.dataset

    def _resolve_with_retries(self, did: str, now_us: int):
        """Resolve one DID behind the fault gate.

        Returns ``((doc,), now_us)`` on a completed lookup (doc may be
        None for tombstones) or ``(None, now_us)`` when injected transient
        failures exhausted the retry budget.
        """
        attempt = 0
        retry_rng = retry_jitter_rng("diddocs", now_us, did)
        while True:
            attempt += 1
            if self.injector is not None:
                try:
                    self.injector.raise_transient(TARGET_IDENTITY, now_us)
                except XrpcError:
                    if attempt >= self.retry_policy.max_attempts:
                        self.dataset.unresolved_transient += 1
                        return None, now_us
                    self.dataset.transient_retries += 1
                    now_us += self.retry_policy.backoff_us(attempt, retry_rng)
                    continue
            return (self.resolver.resolve(did),), now_us
