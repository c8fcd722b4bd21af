"""Tests for the dataset collectors against the shared tiny study."""

from collections import Counter

import pytest

from repro.atproto.car import write_car
from repro.atproto.cbor import cbor_encode
from repro.atproto.cid import cid_for_dag_cbor_bytes
from repro.atproto.events import KIND_COMMIT
from repro.atproto.keys import HmacKeypair, make_keypair
from repro.atproto import mst as mst_module
from repro.atproto.lexicon import FEED_GENERATOR, FOLLOW, LABELER_SERVICE, LIKE, POST, PROFILE
from repro.atproto.mst import Mst
from repro.atproto.repo import encode_commit
from repro.core.collect.labelers import LabelerCollector
from repro.core.collect.repos import (
    FeedGenRow,
    PostRow,
    RepositoriesCollector,
    SubjectRow,
    parse_created_at_us,
)
from repro.core.integrity import KIND_CAR_MALFORMED, KIND_LABEL_SIGNATURE, IntegrityMonitor
from repro.identity.did import LABELER_SERVICE_ID, DidDocument, ServiceEndpoint
from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver, publish_did_web_document
from repro.netsim.dns import DnsResolver, DnsZone
from repro.netsim.web import WebHostRegistry
from repro.services.labeler import LabelerPolicies, LabelerService
from repro.services.xrpc import ServiceDirectory
from repro.simulation.config import (
    FIREHOSE_COLLECT_START_US,
    LABEL_SNAPSHOT_US,
    REPO_SNAPSHOT_US,
)


class TestIdentifierDataset:
    def test_weekly_snapshots_taken(self, study_datasets):
        # ~8 weeks of collection window plus the repo-snapshot crawl.
        assert len(study_datasets.identifiers.snapshots) >= 8

    def test_snapshots_grow(self, study_datasets):
        sizes = [len(s.repos) for s in study_datasets.identifiers.snapshots]
        assert sizes[-1] >= sizes[0]

    def test_identifiers_superset_of_latest(self, study_datasets):
        ids = study_datasets.identifiers
        assert set(ids.latest().repos) <= ids.all_dids()

    def test_changed_between_detects_activity(self, study_datasets):
        ids = study_datasets.identifiers
        if len(ids.snapshots) >= 2:
            before, after = ids.snapshots[0].repos, ids.snapshots[-1].repos
            changed = [did for did, head in after.items() if before.get(did) != head]
            assert changed  # an active network always advances revs

    def test_revs_are_tids(self, study_datasets):
        from repro.atproto.tid import Tid

        snapshot = study_datasets.identifiers.latest()
        for did, (head, rev) in list(snapshot.repos.items())[:10]:
            assert Tid.is_valid(rev)
            assert head.startswith("b")  # base32 CID


class TestDidDocumentDataset:
    def test_documents_for_most_identifiers(self, study_datasets):
        docs = study_datasets.did_documents
        total = len(docs) + len(docs.failed)
        assert len(docs) > 0.9 * total

    def test_handles_extracted(self, study_datasets):
        handles = study_datasets.did_documents.handles()
        assert handles
        assert all("." in h for h in handles)

    def test_did_web_rows_detected(self, study_datasets):
        for row in study_datasets.did_documents.did_web_rows():
            assert row.did.startswith("did:web:")

    def test_pds_endpoints_present(self, study_datasets):
        rows = list(study_datasets.did_documents.documents.values())
        assert all(row.pds_endpoint for row in rows[:20])


class TestRepositoriesDataset:
    def test_snapshot_covers_live_repos(self, study_datasets):
        repos = study_datasets.repositories
        assert repos.repo_count > 0
        assert repos.time_us >= REPO_SNAPSHOT_US

    def test_operation_totals_ordering(self, study_datasets):
        """The paper's ordering: likes > posts > follows > reposts > blocks."""
        totals = study_datasets.repositories.operation_totals()
        assert totals["likes"] > totals["posts"]
        assert totals["posts"] > totals["reposts"]
        assert totals["follows"] > totals["blocks"]

    def test_posts_have_parseable_timestamps(self, study_datasets):
        posts = study_datasets.repositories.posts
        parsed = [p for p in posts if p.created_us is not None]
        assert len(parsed) == len(posts)

    def test_follow_subjects_are_dids(self, study_datasets):
        for row in study_datasets.repositories.follows[:50]:
            assert row.subject.startswith("did:")

    def test_feed_generator_records_extracted(self, study_datasets):
        rows = study_datasets.repositories.feed_generators
        assert rows
        for row in rows[:10]:
            assert row.service_did.startswith("did:")
            assert row.uri.startswith("at://")

    def test_labeler_services_with_announce_times(self, study_datasets):
        services = study_datasets.repositories.labeler_services
        assert len(services) >= 40
        assert any(created is not None for _, created in services)

    def test_non_bsky_collections_observed(self, study_datasets):
        other = study_datasets.repositories.other_collections
        assert other.get("com.whtwnd.blog.entry", 0) >= 1

    def test_commit_signatures_verified_end_to_end(self, study_datasets):
        repos = study_datasets.repositories
        assert repos.verified_signatures == repos.repo_count


class TestFirehoseDataset:
    def test_window_start_respected(self, study_datasets):
        assert study_datasets.firehose.start_us == FIREHOSE_COLLECT_START_US

    def test_commits_dominate(self, study_datasets):
        firehose = study_datasets.firehose
        assert firehose.event_counts[KIND_COMMIT] / firehose.total_events() > 0.9

    def test_post_creation_times_recorded(self, study_datasets):
        posts = study_datasets.firehose.post_created_us
        assert posts
        assert all(uri.startswith("at://") for uri in list(posts)[:10])
        assert all(t >= FIREHOSE_COLLECT_START_US for t in posts.values())

    def test_op_counts_by_collection(self, study_datasets):
        ops = study_datasets.firehose.op_counts
        assert ops[("app.bsky.feed.like", "create")] > 0
        assert ops[("app.bsky.feed.post", "create")] > 0

    def test_deletions_observed(self, study_datasets):
        ops = study_datasets.firehose.op_counts
        deletes = sum(count for (_, action), count in ops.items() if action == "delete")
        assert deletes > 0


class TestLabelerDataset:
    def test_paper_counts(self, study_datasets):
        labels = study_datasets.labels
        assert labels.announced_count() == 62
        assert labels.functional_count() == 46
        assert labels.active_count() == 36

    def test_no_future_labels(self, study_datasets):
        assert all(l.cts <= LABEL_SNAPSHOT_US for l in study_datasets.labels.labels)

    def test_historic_backfill(self, study_datasets):
        """Labels from before the collection window are recovered."""
        early = [
            l
            for l in study_datasets.labels.labels
            if l.cts < FIREHOSE_COLLECT_START_US
        ]
        assert early  # official labeler ran since April 2023

    def test_labels_sorted_within_source(self, study_datasets):
        by_src = {}
        for label in study_datasets.labels.labels:
            by_src.setdefault(label.src, []).append(label)
        for src, labels in by_src.items():
            seqs = [l.seq for l in labels]
            assert seqs == sorted(seqs)

    def test_unreachable_labelers_have_no_labels(self, study_datasets):
        for status in study_datasets.labels.statuses.values():
            if not status.reachable:
                assert status.label_count == 0

    def test_ips_resolved_for_reachable(self, study_datasets):
        reachable = [s for s in study_datasets.labels.statuses.values() if s.reachable]
        assert all(s.ip is not None for s in reachable)


class TestFeedGeneratorDataset:
    def test_discovery(self, study_datasets):
        feeds = study_datasets.feed_generators
        assert feeds.discovered_count() > 20

    def test_metadata_fetched(self, study_datasets):
        feeds = study_datasets.feed_generators
        assert len(feeds.metadata) + len(feeds.no_metadata) >= feeds.discovered_count() * 0.95

    def test_reachable_subset(self, study_datasets):
        feeds = study_datasets.feed_generators
        assert len(feeds.reachable()) <= feeds.discovered_count()

    def test_observed_posts_exist(self, study_datasets):
        assert study_datasets.feed_generators.total_observed_posts() > 50

    def test_observations_have_authors(self, study_datasets):
        for posts in study_datasets.feed_generators.feed_posts.values():
            for observation in list(posts.values())[:3]:
                assert observation.author.startswith("did:")
            break

    def test_multiple_crawls_happened(self, study_datasets):
        assert len(study_datasets.feed_generators.crawl_times) >= 2


class TestActiveMeasurements:
    def test_probes_cover_non_bsky_handles(self, study_datasets):
        probes = study_datasets.active.handle_probes
        assert all(not p.handle.endswith(".bsky.social") for p in probes)

    def test_dns_mechanism_dominates(self, study_datasets):
        probes = study_datasets.active.handle_probes
        counts = Counter(row.mechanism for row in probes if row.mechanism is not None)
        total = sum(counts.values())
        if total >= 10:
            assert counts.get("dns-txt", 0) / total > 0.8

    def test_registered_domains_extracted(self, study_datasets):
        domains = study_datasets.active.registered_domains
        assert all("." in d for d in domains)

    def test_whois_rows_match_domains(self, study_datasets):
        active = study_datasets.active
        assert len(active.whois_rows) == len(active.registered_domains)


def test_unparseable_labeler_key_quarantines_its_labels():
    # A labeler whose DID document carries a publicKeyMultibase that is not
    # base58btc ("0", "O", "I" and "l" are outside the alphabet) fails
    # every signed label, as a document without a key does; the crawl
    # goes on.
    did, endpoint = "did:web:lab.example", "https://lab.example"
    web = WebHostRegistry()
    service = ServiceEndpoint(LABELER_SERVICE_ID, "AtprotoLabeler", endpoint)
    publish_did_web_document(
        web, DidDocument(did=did, signing_key="did:key:z0OIl", services=[service])
    )
    labeler = LabelerService(
        did, endpoint, LabelerPolicies(("spam",), {}), signing_keypair=make_keypair(b"lab")
    )
    directory = ServiceDirectory()
    directory.register(endpoint, labeler)
    for index in range(2):
        labeler.emit("at://did:plc:%s/app.bsky.feed.post/%d" % ("a" * 24, index), "spam", 10)
    monitor = IntegrityMonitor()
    collector = LabelerCollector(
        directory, DidResolver(PlcDirectory(), web), DnsResolver(DnsZone()), integrity=monitor
    )
    collector.discover([did])
    assert collector.connect_and_backfill(now_us=100) == 0
    assert collector.dataset.labels == []
    assert collector.dataset.signature_failures == 2
    assert [q.kind for q in monitor.report.quarantined] == [KIND_LABEL_SIGNATURE] * 2
    assert collector._verify_keys == {did: False}


SHAPE_DID = "did:plc:" + "s" * 24
CREATED = "2024-03-01T12:00:00.000Z"
CREATED_US = parse_created_at_us(CREATED)
WRONG_SHAPES = {
    "like-subject-string": (
        LIKE + "/r",
        {"$type": LIKE, "subject": "at://x", "createdAt": CREATED},
        "likes",
        [SubjectRow(SHAPE_DID, CREATED_US, "")],
    ),
    "like-uri-int": (
        LIKE + "/r",
        {"$type": LIKE, "subject": {"uri": 3, "cid": "c"}, "createdAt": CREATED},
        "likes",
        [SubjectRow(SHAPE_DID, CREATED_US, "")],
    ),
    "follow-created-int": (
        FOLLOW + "/r",
        {"$type": FOLLOW, "subject": "did:plc:x", "createdAt": 5},
        "follows",
        [SubjectRow(SHAPE_DID, None, "did:plc:x")],
    ),
    "post-langs-int": (
        POST + "/r",
        {"$type": POST, "text": "hi", "createdAt": CREATED, "langs": 5},
        "posts",
        [PostRow(SHAPE_DID, "r", CREATED_US, 2024, None, False)],
    ),
    "post-embed-list": (
        POST + "/r",
        {"$type": POST, "text": "hi", "createdAt": CREATED, "embed": ["images"]},
        "posts",
        [PostRow(SHAPE_DID, "r", CREATED_US, 2024, None, False)],
    ),
    "profile-name-int": (
        PROFILE + "/r",
        {"$type": PROFILE, "displayName": 7},
        "profiles",
        {SHAPE_DID: ""},
    ),
    "feedgen-fields-wrong": (
        FEED_GENERATOR + "/r",
        {"$type": FEED_GENERATOR, "did": 1, "displayName": [], "description": {}},
        "feed_generators",
        [FeedGenRow(SHAPE_DID, "r", None, "", "", "")],
    ),
    # Only writes check MST keys: a key without a '/' is a collection of
    # its own, even when a known collection's name is a prefix of it.
    "key-labeler-services": (
        LABELER_SERVICE + "s",
        {"$type": LABELER_SERVICE, "createdAt": CREATED},
        "other_collections",
        {LABELER_SERVICE + "s": 1},
    ),
    "key-likeX": (
        LIKE + "X",
        {"$type": LIKE, "subject": {"uri": "at://x", "cid": "c"}, "createdAt": CREATED},
        "other_collections",
        {LIKE + "X": 1},
    ),
    "key-postX": (
        POST + "X",
        {"$type": POST, "text": "hi", "createdAt": CREATED, "langs": ["en"]},
        "other_collections",
        {POST + "X": 1},
    ),
}


def _one_record_car(path: str, block: bytes) -> bytes:
    """A signed, digest-valid repository CAR holding one record block."""
    cid = cid_for_dag_cbor_bytes(block)
    mst = Mst()
    mst.set(path, cid)
    keypair = HmacKeypair.from_seed(b"shapes")
    _, commit = encode_commit(SHAPE_DID, "3kabcdefghi22", mst.root_cid(), keypair)
    commit_cid = cid_for_dag_cbor_bytes(commit)
    return write_car(commit_cid, [(commit_cid, commit), *mst.blocks().items(), (cid, block)])


def _crawl_one(path: str, block: bytes) -> RepositoriesCollector:
    collector = RepositoriesCollector(None, "https://relay.example", integrity=IntegrityMonitor())
    collector._ingest_repo(SHAPE_DID, _one_record_car(path, block))
    return collector


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES) + ["not-a-map"])
def test_wrong_shaped_record_reads_as_absent(case, monkeypatch):
    """A record field of the wrong type reads as a missing one; a record
    that is not a map quarantines its repository, and no row is added."""
    if case == "not-a-map":
        collector = _crawl_one(LIKE + "/r", cbor_encode(["not", "a", "map"]))
        data = collector.dataset
        (item,) = collector.integrity.report.quarantined
        assert (item.kind, item.item) == (KIND_CAR_MALFORMED, SHAPE_DID)
        assert LIKE + "/r" in item.detail
        assert data.failed_dids == {SHAPE_DID} and data.repo_count == 0
        assert data.likes == [] and data.records_per_repo == {}
        return
    path, record, attribute, rows = WRONG_SHAPES[case]
    monkeypatch.setattr(mst_module, "is_valid_mst_key", lambda key: True)
    collector = _crawl_one(path, cbor_encode(record))
    assert collector.integrity.report.quarantined == []
    assert getattr(collector.dataset, attribute) == rows
    assert collector.dataset.records_per_repo == {SHAPE_DID: 1}

