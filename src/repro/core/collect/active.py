"""Active measurements (Section 5).

Three probes the paper ran from university machines:

* handle-ownership verification — for every non-``bsky.social`` FQDN
  handle, check the ``_atproto.`` DNS TXT record, then the
  ``/.well-known/atproto-did`` file (98.7% / 1.3% split);
* a WHOIS scan of the registered domains (92% answered; IANA IDs for 76%);
* a Tranco top-1M cross-reference of registered domains (2.8% ranked).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.identity.handles import HandleResolver
from repro.netsim.faults import (
    DEFAULT_RETRY_POLICY,
    TARGET_DNS,
    TARGET_WHOIS,
    retry_jitter_rng,
)
from repro.netsim.psl import PublicSuffixList
from repro.obs.telemetry import Telemetry
from repro.netsim.tranco import TrancoList
from repro.netsim.whois import WhoisService
from repro.services.xrpc import XrpcError


@dataclass
class HandleProbeRow:
    handle: str
    did: Optional[str]
    mechanism: Optional[str]  # "dns-txt" | "well-known" | None


@dataclass
class WhoisRow:
    domain: str
    responded: bool
    registrar_name: Optional[str] = None
    iana_id: Optional[int] = None


@dataclass
class ActiveMeasurementDataset:
    handle_probes: list[HandleProbeRow] = field(default_factory=list)
    whois_rows: list[WhoisRow] = field(default_factory=list)
    registered_domains: list[str] = field(default_factory=list)
    tranco_ranked: set = field(default_factory=set)
    # Injected transient failures absorbed by retrying, and probes given
    # up on only because every retry failed.
    transient_retries: int = 0
    probes_exhausted: int = 0

    def whois_response_rate(self) -> float:
        if not self.whois_rows:
            return 0.0
        return sum(1 for r in self.whois_rows if r.responded) / len(self.whois_rows)

    def iana_id_rate(self) -> float:
        if not self.whois_rows:
            return 0.0
        return sum(1 for r in self.whois_rows if r.iana_id is not None) / len(self.whois_rows)

    def registrar_counts(self) -> Counter:
        return Counter(
            (r.iana_id, r.registrar_name)
            for r in self.whois_rows
            if r.iana_id is not None
        )


class ActiveMeasurements:
    """Runs the three probe campaigns."""

    def __init__(
        self,
        handle_resolver: HandleResolver,
        whois: WhoisService,
        tranco: TrancoList,
        psl: PublicSuffixList,
        injector=None,
        retry_policy=None,
        adversary=None,
        integrity=None,
        resolve_did_doc=None,
        on_progress=None,
        telemetry=None,
    ):
        self.handle_resolver = handle_resolver
        self.whois = whois
        self.tranco = tranco
        self.psl = psl
        self.injector = injector
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        # ``adversary`` forges DNS TXT/.well-known answers for poisoned
        # domains; ``integrity`` + ``resolve_did_doc`` run the
        # bidirectional check (handle → DID → document → handle) and
        # quarantine answers that fail it.
        self.adversary = adversary
        self.integrity = integrity
        self.resolve_did_doc = resolve_did_doc
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = ActiveMeasurementDataset()
        self._now_us = 0  # advances with retry backoffs across a campaign

    def _gate(self, target: str) -> bool:
        """Pass one probe through the fault injector, retrying transients.

        Returns False only when every retry failed — the probe is then
        recorded the same way a genuinely unanswered one would be.
        """
        if self.injector is None:
            return True
        attempt = 0
        retry_rng = retry_jitter_rng("active:%s" % target, self._now_us)
        while True:
            attempt += 1
            try:
                self.injector.raise_transient(target, self._now_us)
            except XrpcError:
                if attempt >= self.retry_policy.max_attempts:
                    self.dataset.probes_exhausted += 1
                    return False
                self.dataset.transient_retries += 1
                self._now_us += self.retry_policy.backoff_us(attempt, retry_rng)
                continue
            return True

    def probe_handles(self, handles: Iterable[str], now_us: int = 0) -> None:
        """Verify ownership mechanisms for (non-bsky.social) handles."""
        with self.telemetry.tracer.span("handle-probes", cat="collector"):
            self._probe_handles(handles, now_us)

    def _probe_handles(self, handles: Iterable[str], now_us: int = 0) -> None:
        self._now_us = max(self._now_us, now_us)
        probed = {row.handle for row in self.dataset.handle_probes}
        for handle in handles:
            if handle in probed:
                continue  # resume: already probed before the checkpoint
            if not self._gate(TARGET_DNS):
                self.dataset.handle_probes.append(HandleProbeRow(handle, None, None))
                continue
            try:
                probe = self.handle_resolver.probe(handle)
            except ValueError:
                self.dataset.handle_probes.append(HandleProbeRow(handle, None, None))
                continue
            did, mechanism = probe.did, probe.mechanism
            if self.adversary is not None and did is not None:
                forged = self.adversary.forge_handle_answer(handle)
                if forged is not None:
                    did = forged  # the domain's zone answers with a lie
            if self.integrity is not None and did is not None:
                host = self._registered_domain(handle) or handle
                doc = self.resolve_did_doc(did) if self.resolve_did_doc else None
                if not self.integrity.check_handle_bidi(host, handle, did, doc):
                    # The mechanism observation stands (the answer did
                    # arrive via DNS TXT / .well-known) but the claimed
                    # DID is quarantined, not recorded as owned.
                    did = None
            self.dataset.handle_probes.append(HandleProbeRow(handle, did, mechanism))
            if self.on_progress is not None:
                self.on_progress("probe:%s" % handle)

    def _registered_domain(self, handle: str) -> Optional[str]:
        try:
            return self.psl.registered_domain(handle)
        except ValueError:
            return None

    def extract_registered_domains(self, handles: Iterable[str]) -> list[str]:
        """Registered (effective second-level) domains via the PSL."""
        seen: dict[str, None] = {}
        for handle in handles:
            try:
                registered = self.psl.registered_domain(handle)
            except ValueError:
                continue
            if registered is not None:
                seen.setdefault(registered, None)
        self.dataset.registered_domains = list(seen)
        return self.dataset.registered_domains

    def scan_whois(self, domains: Optional[Iterable[str]] = None, now_us: int = 0) -> None:
        with self.telemetry.tracer.span("whois-scan", cat="collector"):
            self._scan_whois(domains, now_us)

    def _scan_whois(self, domains: Optional[Iterable[str]] = None, now_us: int = 0) -> None:
        self._now_us = max(self._now_us, now_us)
        targets = list(domains) if domains is not None else self.dataset.registered_domains
        scanned = {row.domain for row in self.dataset.whois_rows}
        for domain in targets:
            if domain in scanned:
                continue  # resume: already scanned before the checkpoint
            if self.on_progress is not None:
                self.on_progress("whois:%s" % domain)
            if not self._gate(TARGET_WHOIS):
                self.dataset.whois_rows.append(WhoisRow(domain, responded=False))
                continue
            record = self.whois.query(domain)
            if record is None:
                self.dataset.whois_rows.append(WhoisRow(domain, responded=False))
            else:
                self.dataset.whois_rows.append(
                    WhoisRow(
                        domain,
                        responded=True,
                        registrar_name=record.registrar_name,
                        iana_id=record.iana_id,
                    )
                )

    def cross_reference_tranco(self, domains: Optional[Iterable[str]] = None) -> set:
        targets = list(domains) if domains is not None else self.dataset.registered_domains
        ranked = {domain for domain in targets if self.tranco.in_top(domain)}
        self.dataset.tranco_ranked = ranked
        return ranked
