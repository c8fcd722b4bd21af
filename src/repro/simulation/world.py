"""The assembled world: all services wired together plus the timeline run.

``World(config)`` constructs the infrastructure (PLC directory, PDS shards,
Relay, AppView, DNS/web/WHOIS/Tranco, feed platforms, labelers) and
``world.run()`` executes the generative timeline from Bluesky's launch to
the end of the paper's measurement window.  Collectors attach *before*
``run()`` — exactly like the real study, which subscribed to the Firehose
on 2024-03-06 and crawled snapshots while the network kept moving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.atproto.events import FirehoseEvent
from repro.atproto.keys import Keypair, make_keypair
from repro.identity.handles import publish_dns_proof, publish_well_known_proof
from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver, publish_did_web_document
from repro.identity.did import DidDocument, ServiceEndpoint, PDS_SERVICE_ID
from repro.netsim.dns import DnsResolver, DnsZone
from repro.netsim.hosting import HostingClass, IpAllocator
from repro.netsim.tranco import TrancoList
from repro.netsim.web import WebHostRegistry
from repro.netsim.whois import (
    RegistrarDatabase,
    Registrar,
    WhoisService,
    cctld_registrars,
    long_tail_registrars,
)
from repro.services.appview import AppView
from repro.services.feedgen import FeedGeneratorHost, FeedRouter
from repro.services.feedservice import (
    ALL_PROFILES,
    FeedServicePlatform,
    PlatformProfile,
)
from repro.services.labeler import LabelerPolicies, LabelerService
from repro.services.pds import Pds
from repro.services.relay import Relay
from repro.services.xrpc import ServiceDirectory
from repro.simulation.config import SimulationConfig
from repro.simulation.feeds import FeedSpec, build_feed_specs
from repro.simulation.labelers import LabelerRuntime, build_labeler_specs
from repro.simulation.population import PopulationPlan, UserSpec, build_population

N_DEFAULT_PDS_SHARDS = 4
SELF_HOST_PDS_RATE = 0.002  # fraction of users running their own PDS


@dataclass
class UserState:
    """A live user: spec + identity + hosting."""

    spec: UserSpec
    did: str = ""
    keypair: Optional[Keypair] = None
    pds: Optional[Pds] = None
    joined: bool = False
    tombstoned: bool = False
    current_handle: str = ""
    handle_changes_done: int = 0


@dataclass
class FeedRuntime:
    """A live feed: spec + URI + hosting endpoint."""

    spec: FeedSpec
    uri: str = ""
    endpoint: str = ""
    service_did: str = ""
    feed_obj: Optional[object] = None
    announced: bool = False


class World:
    """The full simulated Bluesky deployment."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.rng = random.Random(config.seed ^ 0x5EED)

        # --- network substrate ---
        self.dns_zone = DnsZone()
        self.dns = DnsResolver(self.dns_zone)
        self.web = WebHostRegistry()
        self.services = ServiceDirectory()
        self.set_telemetry(self.services.telemetry)
        self.registrars = RegistrarDatabase()
        for registrar in long_tail_registrars(242):
            self.registrars.add(registrar)
        for registrar in cctld_registrars(12):
            self.registrars.add(registrar)
        self.whois = WhoisService(self.registrars)
        self.tranco = TrancoList()
        self.ip_allocator = IpAllocator()

        # --- identity ---
        self.plc = PlcDirectory()
        self.resolver = DidResolver(self.plc, self.web)

        # --- core services ---
        self.pds_shards = [
            Pds("https://shard%02d.pds.bsky.network" % index)
            for index in range(N_DEFAULT_PDS_SHARDS)
        ]
        self.self_hosted_pdses: list[Pds] = []
        self.relay = Relay("https://bsky.network")
        self.relay.set_telemetry(self.telemetry)
        for shard in self.pds_shards:
            # Registered, not crawled: the engine publishes every commit
            # explicitly in deterministic merged order (see engine.py).
            self.relay.register_pds(shard)
            self.services.register(shard.url, shard)
        self.services.register(self.relay.url, self.relay)
        self.appview = AppView(
            "https://api.bsky.app",
            self.resolver,
            self.services,
            telemetry=self.telemetry,
        )
        self.appview.attach(self.relay)
        self.services.register(self.appview.url, self.appview)
        # Self-hosted feed-generator hosts created mid-run (create_feed);
        # tracked so telemetry rebinds reach them too.
        self._self_hosted_feed_hosts: list[FeedGeneratorHost] = []

        # --- population & ecosystem plans ---
        self.population: PopulationPlan = build_population(config)
        self.users: list[UserState] = [UserState(spec) for spec in self.population.users]
        self._register_domains()

        self.labelers: list[LabelerRuntime] = [
            LabelerRuntime(spec) for spec in build_labeler_specs(random.Random(config.seed + 1))
        ]
        self.feed_specs: list[FeedSpec] = build_feed_specs(
            config, self.population.users, random.Random(config.seed + 2)
        )
        self.feeds: list[FeedRuntime] = [FeedRuntime(spec) for spec in self.feed_specs]
        self.feed_router = FeedRouter()
        self.feed_platforms: dict[str, FeedServicePlatform] = {}
        self._build_feed_platforms()

        self._firehose_observers: list[tuple[int, Callable[[FirehoseEvent], None]]] = []
        self.relay.firehose.subscribe(self._dispatch_observers)
        # (time_us, callback(now_us)) actions the engine fires as the
        # timeline passes them — how collectors take mid-run snapshots.
        self.scheduled_actions: list[tuple[int, Callable[[int], None]]] = []
        # Bumped on every tombstone so cached live-user views (e.g. the
        # engine's impersonator pool) can invalidate in O(1).
        self.tombstone_epoch = 0
        # day_us -> (per-shard running digest, ...); filled by the engine,
        # embedded in checkpoints and verified on resume (see pipeline.py).
        self.shard_digest_log: dict[int, tuple] = {}
        self._ran = False

    # -- wiring helpers ------------------------------------------------------------

    def set_telemetry(self, telemetry) -> None:
        """Install the study telemetry: bind its virtual clock to the
        service directory's ``now_us`` and point the directory's metric
        families at its registry."""
        telemetry.bind_now_virtual(lambda: self.services.now_us)
        self.telemetry = telemetry
        self.services.set_telemetry(telemetry)
        # Rebind every service keeping read-path caches/counters.  Guarded
        # with getattr: the first call happens from __init__ before the
        # relay/appview/feed hosts exist.
        for service in self._read_path_services():
            service.set_telemetry(telemetry)

    def _read_path_services(self) -> list:
        services = [getattr(self, "appview", None), getattr(self, "relay", None)]
        services.extend(getattr(self, "feed_platforms", {}).values())
        services.extend(getattr(self, "_self_hosted_feed_hosts", ()))
        return [service for service in services if service is not None]

    def flush_read_caches(self) -> None:
        """Drop read-path cache contents everywhere.

        The pipeline calls this at every journal boundary so cache warmth
        never crosses an action: a crash/resume run (which skips completed
        actions instead of replaying their reads) then reports exactly the
        hit/miss totals of an uninterrupted run."""
        self.appview.flush_read_caches()
        self.relay.flush_read_caches()

    def _register_domains(self) -> None:
        """Register every custom handle domain in WHOIS (+ Tranco filler)."""
        for index, (domain, (registrar_name, is_cctld)) in enumerate(
            self.population.domain_registrations.items()
        ):
            registrar = self.registrars.get(registrar_name)
            if registrar is None:
                registrar = Registrar(None, registrar_name, icann_accredited=False)
                self.registrars.add(registrar)
            self.whois.register(domain, registrar)
            # Deterministic ~8% of WHOIS servers never answer (paper: the
            # scan reached 92% of registered domains).
            if index % 12 == 11:
                self.whois.mark_unresponsive(domain)

    def _build_feed_platforms(self) -> None:
        endpoints = {
            "Skyfeed": "https://skyfeed.me",
            "Bluefeed": "https://bluefeed.app",
            "Blueskyfeeds": "https://blueskyfeeds.com",
            "Goodfeeds": "https://goodfeeds.co",
            "Blueskyfeedcreator": "https://blueskyfeedcreator.com",
        }
        profile_by_name: dict[str, PlatformProfile] = {p.name: p for p in ALL_PROFILES}
        for name, endpoint in endpoints.items():
            host = endpoint[len("https://") :]
            platform = FeedServicePlatform(
                profile_by_name[name], "did:web:" + host, endpoint, telemetry=self.telemetry
            )
            self.services.register(endpoint, platform)
            self.ip_allocator.allocate(host, HostingClass.CLOUD)
            self.feed_platforms[name] = platform

    def add_firehose_observer(
        self, callback: Callable[[FirehoseEvent], None], start_us: int = 0
    ) -> None:
        """Attach a live firehose consumer active from ``start_us`` on."""
        self._firehose_observers.append((start_us, callback))

    def schedule(self, time_us: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now_us)`` when the timeline reaches ``time_us``.

        Must be called before :meth:`run`.  Used by collectors for their
        dated crawls (weekly listRepos, the April 24 repo snapshot, the
        bi-weekly feed crawls, daily labeler reconnects).
        """
        self.scheduled_actions.append((time_us, callback))

    def _dispatch_observers(self, event: FirehoseEvent) -> None:
        for start_us, callback in self._firehose_observers:
            if event.time_us >= start_us:
                callback(event)

    # -- account management (used by the engine) --------------------------------------

    def signup(self, user: UserState, now_us: int) -> None:
        """Create the account: keys, DID, repo, handle proofs."""
        spec = user.spec
        seed = b"user:%d:%d" % (self.config.seed, spec.index)
        keypair = make_keypair(seed)
        user.keypair = keypair
        if self.rng.random() < SELF_HOST_PDS_RATE and spec.custom_domain:
            pds = Pds("https://pds.%s" % spec.custom_domain)
            self.self_hosted_pdses.append(pds)
            self.relay.register_pds(pds)
            self.services.register(pds.url, pds)
        else:
            pds = self.pds_shards[spec.index % len(self.pds_shards)]
        user.pds = pds

        if spec.identity_method == "web":
            did = "did:web:%s" % spec.handle
            doc = DidDocument(did=did, handle=spec.handle, signing_key=keypair.did_key())
            doc.set_service(ServiceEndpoint(PDS_SERVICE_ID, "AtprotoPersonalDataServer", pds.url))
            publish_did_web_document(self.web, doc)
        else:
            did = self.plc.create(
                rotation_keypair=keypair,
                signing_key=keypair.did_key(),
                handle=spec.handle,
                pds_endpoint=pds.url,
            )
        user.did = did
        user.current_handle = spec.handle
        self._publish_handle_proof(spec, did)
        pds.create_account(did, keypair)
        user.joined = True

    def _publish_handle_proof(self, spec: UserSpec, did: str) -> None:
        if spec.is_bsky_handle:
            # bsky.social subdomains are auto-linked via well-known files.
            publish_well_known_proof(self.web, spec.handle, did)
        elif spec.verification_mechanism == "dns-txt":
            publish_dns_proof(self.dns_zone, spec.handle, did)
        else:
            publish_well_known_proof(self.web, spec.handle, did)

    def change_handle(self, user: UserState, new_handle: str, now_us: int) -> None:
        """Rotate a handle and announce it on the firehose."""
        if user.spec.identity_method == "web":
            return  # did:web identifiers cannot change their domain
        self.plc.update(user.did, user.keypair, handle=new_handle)
        user.current_handle = new_handle
        publish_dns_proof(self.dns_zone, new_handle, user.did)
        self.relay.publish_handle_event(user.did, new_handle, now_us)
        self.relay.publish_identity_event(user.did, now_us, handle=new_handle)

    def tombstone_user(self, user: UserState, now_us: int) -> None:
        if user.spec.identity_method != "web":
            self.plc.tombstone(user.did, user.keypair)
        user.pds.remove_account(user.did, now_us)
        user.tombstoned = True
        self.tombstone_epoch += 1

    # -- labeler / feed instantiation (used by the engine) ------------------------------

    def start_labeler(self, runtime: LabelerRuntime, now_us: int):
        """Bring a labeler online: account, service record, endpoint.

        Returns the service-record ``CommitMeta``; the engine queues it
        for the deterministic merge.
        """
        spec = runtime.spec
        keypair = make_keypair(b"labeler:" + spec.key.encode())
        handle = "%s.bsky.social" % spec.key.replace("-", "")
        pds = self.pds_shards[0]
        did = self.plc.create(
            rotation_keypair=keypair,
            signing_key=keypair.did_key(),
            handle=handle,
            pds_endpoint=pds.url,
        )
        pds.create_account(did, keypair)
        runtime.did = did
        host = "%s.labeler.example" % spec.key
        endpoint = "https://" + host
        runtime.endpoint = endpoint
        service = LabelerService(
            did,
            endpoint,
            LabelerPolicies(
                label_values=spec.values,
                descriptions={v: {"severity": "inform"} for v in spec.values},
            ),
            signing_keypair=keypair,
        )
        runtime.service = service
        if spec.is_official:
            # Clients are force-subscribed to the official labeler and its
            # !takedown labels purge content from the AppView (Section 6.2).
            self.appview.official_labeler_did = did
        # Announce: service record in the repo + endpoint in the DID doc.
        from repro.simulation.clock import iso_timestamp

        meta = pds.create_record(
            did,
            "app.bsky.labeler.service",
            service.service_record(iso_timestamp(now_us)),
            now_us,
            rkey="self",
        )
        self.plc.update(did, keypair, labeler_endpoint=endpoint)
        self.relay.publish_identity_event(did, now_us)
        if spec.functional:
            self.services.register(endpoint, service)
            address = self.ip_allocator.allocate(
                host,
                spec.hosting if spec.hosting is not None else HostingClass.CLOUD,
            )
            from repro.netsim.dns import DnsRecordType

            self.dns_zone.add(host, DnsRecordType.A, address.ip)
            self.appview.add_labeler(service)
        # Non-functional labelers announce but never expose an endpoint.
        return meta

    def create_feed(self, runtime: FeedRuntime, now_us: int):
        """Instantiate a feed on its platform and announce it.

        Returns the generator-record ``CommitMeta``, or None when the
        creator has not joined or was removed.
        """
        from repro.services.feedgen import (
            CuratedFeed,
            FeedRule,
            PersonalizedFeed,
            RetentionPolicy,
        )
        from repro.simulation.clock import iso_timestamp
        from repro.simulation import feeds as feeds_mod

        spec = runtime.spec
        creator = self.users[spec.creator_index]
        if not creator.joined or creator.tombstoned:
            return None  # creator must exist; engine retries are not needed
        uri = "at://%s/app.bsky.feed.generator/%s" % (creator.did, spec.rkey)
        runtime.uri = uri

        if spec.unhosted:
            # The record is announced but the service never goes up: the
            # paper's feeds-without-metadata (≈6% of discovered feeds).
            host_fqdn = "feed-%05d.dead.example" % spec.index
            runtime.endpoint = "https://" + host_fqdn
            runtime.service_did = "did:web:" + host_fqdn
            record = {
                "$type": "app.bsky.feed.generator",
                "did": runtime.service_did,
                "displayName": spec.display_name,
                "description": spec.description,
                "createdAt": iso_timestamp(now_us),
            }
            meta = creator.pds.create_record(
                creator.did, "app.bsky.feed.generator", record, now_us, rkey=spec.rkey
            )
            runtime.announced = True
            return meta

        if spec.platform == feeds_mod.SELF_HOSTED:
            host_fqdn = "feed-%05d.self.example" % spec.index
            endpoint = "https://" + host_fqdn
            service_did = "did:web:" + host_fqdn
            host = FeedGeneratorHost(service_did, endpoint, telemetry=self.telemetry)
            self._self_hosted_feed_hosts.append(host)
            self.services.register(endpoint, host)
            self.ip_allocator.allocate(host_fqdn, HostingClass.CLOUD)
        else:
            platform = self.feed_platforms[spec.platform]
            host = platform
            endpoint = platform.endpoint
            service_did = platform.service_did
        runtime.endpoint = endpoint
        runtime.service_did = service_did

        if spec.kind == feeds_mod.KIND_PERSONALIZED:
            feed_obj = PersonalizedFeed(uri, self._personalized_source())
            host.add_feed(feed_obj)
        else:
            rule = self._rule_for(spec, creator)
            retention = RetentionPolicy()
            if spec.retention_days is not None:
                retention = RetentionPolicy.days(spec.retention_days)
            elif spec.retention_count is not None:
                retention = RetentionPolicy.last(spec.retention_count)
            if isinstance(host, FeedServicePlatform):
                feed_obj = host.create_feed(creator.did, uri, rule, retention)
            else:
                feed_obj = CuratedFeed(uri, rule, retention)
                host.add_feed(feed_obj)
            feed_obj.stop_ingest_after_us = spec.inactive_after_us
            self.feed_router.register(feed_obj)
        runtime.feed_obj = feed_obj

        record = {
            "$type": "app.bsky.feed.generator",
            "did": service_did,
            "displayName": spec.display_name,
            "description": spec.description,
            "createdAt": iso_timestamp(now_us),
        }
        meta = creator.pds.create_record(
            creator.did, "app.bsky.feed.generator", record, now_us, rkey=spec.rkey
        )
        runtime.announced = True
        return meta

    def _rule_for(self, spec, creator: UserState):
        from repro.services.feedgen import FeedRule
        from repro.simulation import feeds as feeds_mod

        if spec.kind == feeds_mod.KIND_AGGREGATOR:
            return FeedRule(whole_network=True)
        if spec.kind == feeds_mod.KIND_LANGUAGE:
            return FeedRule(languages=frozenset(spec.languages))
        if spec.kind == feeds_mod.KIND_AUTHOR:
            return FeedRule(authors=frozenset({creator.did}))
        if spec.kind == feeds_mod.KIND_DEAD:
            if spec.topic:
                return FeedRule(keywords=frozenset({spec.topic}))
            return FeedRule(authors=frozenset({"did:plc:" + "0" * 24}))
        # Topic feed.
        return FeedRule(
            keywords=frozenset({spec.topic}),
            regex=spec.regex,
            languages=frozenset(spec.languages),
        )

    def _personalized_source(self):
        """Personalized feeds serve the viewer's recently liked posts."""
        recent_likes = self.recent_likes_by_viewer = getattr(
            self, "recent_likes_by_viewer", {}
        )

        def source(viewer: str):
            return list(recent_likes.get(viewer, ()))

        return source

    # -- running ---------------------------------------------------------------------------

    def run(self, progress: Optional[Callable[[str], None]] = None) -> "World":
        """Execute the timeline; idempotent."""
        if self._ran:
            return self
        from repro.simulation.engine import Engine

        Engine(self).run(progress=progress)
        self._ran = True
        return self

    # -- convenience views --------------------------------------------------------------------

    def user_by_did(self) -> dict[str, UserState]:
        return {u.did: u for u in self.users if u.joined}
