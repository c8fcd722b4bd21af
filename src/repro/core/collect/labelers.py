"""Labeling Services dataset (Sections 3 and 6).

Discovers every account announcing itself as a Labeler (service records in
repos + live firehose updates), resolves each one's endpoint from its DID
document, subscribes from sequence zero (labeler streams retain their full
history, so labels emitted before the collection period are recovered),
reconnects daily to backfill, and resolves endpoint IPs for the hosting
analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.identity.resolver import DidResolver
from repro.netsim.dns import DnsRecordType, DnsResolver, DnsError
from repro.netsim.faults import DEFAULT_RETRY_POLICY, call_with_retries, retry_jitter_rng
from repro.obs.telemetry import Telemetry
from repro.services.labeler import Label
from repro.services.xrpc import ServiceDirectory, XrpcError


@dataclass
class LabelerStatus:
    did: str
    endpoint: Optional[str] = None
    reachable: bool = False
    ip: Optional[str] = None
    cursor: int = 0
    label_count: int = 0


@dataclass
class LabelerDataset:
    statuses: dict[str, LabelerStatus] = field(default_factory=dict)
    labels: list[Label] = field(default_factory=list)
    signature_failures: int = 0
    # Transient subscribe failures absorbed by retrying before the daily
    # reconnect gave up on the endpoint for the day.
    transient_retries: int = 0

    def announced_count(self) -> int:
        return len(self.statuses)

    def functional_count(self) -> int:
        return sum(1 for s in self.statuses.values() if s.reachable)

    def active_count(self) -> int:
        return sum(1 for s in self.statuses.values() if s.label_count > 0)


class LabelerCollector:
    """Discovers labelers and drains their streams."""

    def __init__(
        self,
        services: ServiceDirectory,
        resolver: DidResolver,
        dns: DnsResolver,
        verify_signatures: bool = True,
        retry_policy=None,
        integrity=None,
        on_progress=None,
        telemetry=None,
    ):
        self.services = services
        self.resolver = resolver
        self.dns = dns
        self.verify_signatures = verify_signatures
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        # With an IntegrityMonitor, labels whose signature fails are
        # quarantined (dropped + accounted against the endpoint) instead
        # of being appended alongside the failure counter.
        self.integrity = integrity
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._verify_keys: dict[str, object] = {}
        self.dataset = LabelerDataset()

    def discover(self, dids) -> None:
        """Register labeler DIDs found in repos or on the firehose.

        Insertion is sorted per batch: callers pass sets as well as
        lists, and the ``statuses`` order decides how label pulls
        interleave — it must not depend on hash-randomized set order.
        """
        for did in sorted(dids):
            if did not in self.dataset.statuses:
                self.dataset.statuses[did] = LabelerStatus(did=did)

    def connect_and_backfill(self, now_us: int) -> int:
        """(Re)connect to every known labeler and pull new labels."""
        with self.telemetry.tracer.span("labeler-backfill", cat="collector"):
            return self._connect_and_backfill(now_us)

    def _connect_and_backfill(self, now_us: int) -> int:
        pulled = 0
        retry_rng = retry_jitter_rng("labelers", now_us)
        for status in self.dataset.statuses.values():
            if status.endpoint is None:
                doc = self.resolver.resolve(status.did)
                if doc is not None:
                    status.endpoint = doc.labeler_endpoint
            if status.endpoint is None:
                continue
            counters: Counter = Counter()
            try:
                labels, _ = call_with_retries(
                    self.services,
                    status.endpoint,
                    "com.atproto.label.subscribeLabels",
                    now_us=now_us,
                    policy=self.retry_policy,
                    rng=retry_rng,
                    counters=counters,
                    cursor=status.cursor,
                )
            except XrpcError as exc:
                self.dataset.transient_retries += counters["retries"]
                if self.retry_policy.is_retryable(exc.status):
                    continue  # endpoint down today; retry on next reconnect
                raise
            self.dataset.transient_retries += counters["retries"]
            status.reachable = True
            self._resolve_ip(status)
            for label in labels:
                if label.cts > now_us:
                    # The stream has not produced this label yet at the
                    # time of this reconnect; stop and resume next time.
                    break
                if self.verify_signatures and not self._signature_ok(label):
                    if self.integrity is not None:
                        # Quarantine: advance the cursor past the bad
                        # label (re-pulling it would fail identically)
                        # but keep it out of the dataset.
                        self.integrity.check_label(status.endpoint, label.uri, False)
                        self.dataset.signature_failures += 1
                        status.cursor = label.seq
                        continue
                    self.dataset.signature_failures += 1
                elif self.integrity is not None and label.sig:
                    self.integrity.check_label(status.endpoint, label.uri, True)
                self.dataset.labels.append(label)
                status.cursor = label.seq
                status.label_count += 1
                pulled += 1
                if self.on_progress is not None:
                    self.on_progress("label:%s:%d" % (status.did, label.seq))
        return pulled

    def _signature_ok(self, label: Label) -> bool:
        """Verify a label against its labeler's published signing key.

        Unsigned labels pass (signatures are optional in the wild); signed
        labels must verify against the DID document's key.  A document
        without a key, or with one that does not parse, fails them all; an
        unparseable key is remembered as ``False``.
        """
        if not label.sig:
            return True
        key = self._verify_keys.get(label.src)
        if key is None:
            doc = self.resolver.resolve(label.src)
            if doc is None or doc.signing_key is None:
                return False
            from repro.atproto.keys import public_key_from_did_key

            try:
                key = public_key_from_did_key(doc.signing_key)
            except ValueError:
                key = False
            self._verify_keys[label.src] = key
        return key is not False and key.verify(label.signed_payload(), label.sig)

    def _resolve_ip(self, status: LabelerStatus) -> None:
        if status.ip is not None or status.endpoint is None:
            return
        host = status.endpoint.split("://", 1)[-1].split("/", 1)[0]
        try:
            addresses = self.dns.lookup(host, DnsRecordType.A)
        except DnsError:
            return
        if addresses:
            status.ip = addresses[0]
