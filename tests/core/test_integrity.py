"""Byzantine-data hardening: the adversarial end-to-end acceptance tests.

The criterion from the issue: with an :class:`AdversarialPlan` poisoning
three or more hosts, the study still completes; the integrity report
attributes every quarantined item to a host and a corruption kind; and
the datasets for *clean* hosts are byte-identical to a fault-free run
with the same simulation seed.
"""

import pickle

import pytest

from repro.atproto.cbor import cbor_decode
from repro.netsim.faults import (
    ALL_CORRUPTION_KINDS,
    CORRUPT_FRAME,
    CORRUPT_HANDLE,
    Adversary,
    AdversarialPlan,
    CorruptionRule,
)
from tests.conftest import FORGED_DOMAINS, POISONED_PDSES, RELAY, adversarial_plan


@pytest.fixture(scope="module")
def adversarial_study(references):
    """(world, datasets) for a tiny study with ≥3 poisoned hosts."""
    reference = references["adversary"]
    return reference.world, reference.datasets


@pytest.fixture(scope="module")
def adversarial_datasets(adversarial_study):
    return adversarial_study[1]


def host_of(world, did: str) -> str:
    pds = world.relay.hosting_pds(did)
    return pds.url if pds is not None else world.relay.url


class TestPlan:
    def test_poison_covers_every_corruption_mode(self):
        plan = adversarial_plan()
        kinds = {rule.kind for rule in plan.rules}
        assert kinds == set(ALL_CORRUPTION_KINDS)
        assert set(POISONED_PDSES) <= {rule.host for rule in plan.rules}

    def test_empty_plan(self):
        assert AdversarialPlan().is_empty()
        assert not adversarial_plan().is_empty()

    def test_draws_are_stateless_and_seeded(self):
        plan = AdversarialPlan(
            seed=3, rules=(CorruptionRule(host="https://a", kind=CORRUPT_FRAME, probability=0.5),)
        )
        one, two = Adversary(plan), Adversary(plan)
        frames_one = [one.corrupt_frame(seq, "https://a") for seq in range(200)]
        frames_two = [two.corrupt_frame(seq, "https://a") for seq in range(200)]
        assert frames_one == frames_two  # same plan → same draws, any order
        assert any(f is not None for f in frames_one)
        assert any(f is None for f in frames_one)

    def test_forged_handle_answer_is_deterministic(self):
        plan = AdversarialPlan(
            seed=9, rules=(CorruptionRule(host="cnn.com", kind=CORRUPT_HANDLE),)
        )
        adversary = Adversary(plan)
        forged = adversary.forge_handle_answer("alice.cnn.com")
        assert forged is not None and forged.startswith("did:plc:")
        assert forged == Adversary(plan).forge_handle_answer("alice.cnn.com")
        assert adversary.forge_handle_answer("alice.example.com") is None


class TestAdversarialStudy:
    def test_study_completes_with_data(self, adversarial_datasets):
        data = adversarial_datasets
        assert sum(data.firehose.event_counts.values()) > 0
        assert data.repositories.repo_count > 0
        assert len(data.did_documents.documents) > 0
        assert data.integrity is not None
        assert data.adversary is not None

    def test_adversary_actually_tampered(self, adversarial_datasets):
        stats = adversarial_datasets.adversary
        assert stats.total() > 0
        tampered_hosts = {host for host, _ in stats.tampered}
        # At least the three poisoned PDSes and the relay acted up.
        assert set(POISONED_PDSES) <= tampered_hosts
        assert RELAY in tampered_hosts

    def test_every_quarantined_item_is_attributed(self, adversarial_datasets):
        report = adversarial_datasets.integrity
        assert report.total_quarantined() > 0
        for item in report.quarantined:
            assert item.host
            assert item.kind
            assert item.item
            assert item.detail

    def test_quarantines_match_counters(self, adversarial_datasets):
        report = adversarial_datasets.integrity
        assert sum(report.counts.values()) == len(report.quarantined)
        for (host, kind), count in report.counts.items():
            matching = [
                q for q in report.quarantined if q.host == host and q.kind == kind
            ]
            assert len(matching) == count

    def test_quarantines_confined_to_byzantine_hosts(
        self, adversarial_datasets, study_datasets
    ):
        """Adversary-caused quarantines name only poisoned hosts.

        The clean run's quarantines (e.g. bidirectional-verification
        failures from organically stale handles) are the baseline; any
        quarantine beyond that baseline must be attributed to a host the
        plan poisons.
        """
        baseline = {
            (q.host, q.kind, q.item) for q in study_datasets.integrity.quarantined
        }
        byzantine = set(POISONED_PDSES) | {RELAY} | set(FORGED_DOMAINS)
        extra = [
            q
            for q in adversarial_datasets.integrity.quarantined
            if (q.host, q.kind, q.item) not in baseline
        ]
        assert extra, "the adversary must cause quarantines beyond the baseline"
        for q in extra:
            assert q.host in byzantine, "unattributed quarantine: %r" % (q,)

    def test_nothing_tampered_escapes_quarantine(
        self, adversarial_datasets, study_datasets
    ):
        """Tampered-item count equals adversary-caused quarantines.

        Corrupting one item (CAR, frame, DID document, handle answer)
        must produce exactly one quarantine entry — nothing slips
        through, nothing is double-counted.
        """
        baseline = len(study_datasets.integrity.quarantined)
        caused = len(adversarial_datasets.integrity.quarantined) - baseline
        assert caused == adversarial_datasets.adversary.total()


class TestCleanHostIsolation:
    """Data from unpoisoned hosts must be byte-identical to a clean run."""

    def test_clean_host_repositories_identical(
        self, adversarial_study, study_datasets
    ):
        world, adversarial = adversarial_study

        def clean_rows(datasets):
            return [
                row
                for row in datasets.repositories.posts
                if host_of(world, row.did) not in POISONED_PDSES
            ]

        clean_run, adv_run = clean_rows(study_datasets), clean_rows(adversarial)
        assert len(clean_run) > 0
        assert pickle.dumps(clean_run) == pickle.dumps(adv_run)

    def test_clean_host_record_counts_identical(self, adversarial_study, study_datasets):
        world, adversarial = adversarial_study
        for did, count in study_datasets.repositories.records_per_repo.items():
            if host_of(world, did) in POISONED_PDSES:
                continue
            assert adversarial.repositories.records_per_repo[did] == count

    def test_poisoned_repos_quarantined_not_polluting(
        self, adversarial_study, study_datasets
    ):
        world, adversarial = adversarial_study
        quarantined_dids = {
            q.item
            for q in adversarial.integrity.quarantined
            if q.kind in ("block-digest", "commit-signature", "mst-invalid", "car-malformed")
        }
        assert quarantined_dids
        for did in quarantined_dids:
            assert host_of(world, did) in POISONED_PDSES
            assert did in adversarial.repositories.failed_dids
            assert "quarantined" in adversarial.repositories.failure_reasons[did]
            # None of its rows made it into the analysis datasets.
            assert all(row.did != did for row in adversarial.repositories.posts)

    def test_firehose_statistics_survive_relay_garbling(
        self, adversarial_datasets, study_datasets
    ):
        """Garbage frames are quarantined and replayed via the cursor, so
        the firehose dataset converges to the clean run's statistics."""
        adv, clean = adversarial_datasets.firehose, study_datasets.firehose
        assert dict(adv.event_counts) == dict(clean.event_counts)
        assert dict(adv.op_counts) == dict(clean.op_counts)
        assert adv.end_us == clean.end_us

    def test_clean_host_handle_probes_identical(
        self, adversarial_study, study_datasets
    ):
        """Probes for users hosted on clean PDSes are unchanged.

        (Users on poisoned shards lose their DID document to quarantine,
        so their handles legitimately drop out of the probe list.)
        """
        world, adversarial = adversarial_study
        clean_docs = {
            row.handle
            for row in study_datasets.did_documents.documents.values()
            if row.handle and host_of(world, row.did) not in POISONED_PDSES
        }

        def clean_rows(datasets):
            return [
                (r.handle, r.did, r.mechanism)
                for r in datasets.active.handle_probes
                if r.handle in clean_docs
            ]

        assert clean_rows(study_datasets) == clean_rows(adversarial)


class TestHandleBidiCheck:
    """Unit coverage for the bidirectional handle verification gate."""

    def make_monitor(self):
        from repro.core.integrity import IntegrityMonitor

        return IntegrityMonitor(directory=None)

    def make_doc(self, did="did:plc:" + "a" * 24, handle="alice.cnn.com"):
        from repro.identity.did import DidDocument

        return DidDocument(did=did, handle=handle)

    def test_honest_answer_passes(self):
        monitor = self.make_monitor()
        doc = self.make_doc()
        assert monitor.check_handle_bidi("cnn.com", "alice.cnn.com", doc.did, doc)
        assert monitor.report.total_quarantined() == 0

    def test_forged_did_fails_and_is_attributed_to_domain(self):
        monitor = self.make_monitor()
        doc = self.make_doc(handle="someone.else.example")
        assert not monitor.check_handle_bidi("cnn.com", "alice.cnn.com", doc.did, doc)
        (item,) = monitor.report.quarantined
        assert item.host == "cnn.com"
        assert item.kind == "handle-bidi"
        assert item.item == "alice.cnn.com"

    def test_missing_document_fails(self):
        monitor = self.make_monitor()
        assert not monitor.check_handle_bidi(
            "cnn.com", "alice.cnn.com", "did:plc:" + "b" * 24, None
        )
        assert monitor.report.total_quarantined() == 1

    def test_quarantine_is_idempotent(self):
        monitor = self.make_monitor()
        doc = self.make_doc(handle="someone.else.example")
        for _ in range(3):  # redone work after a crash/resume
            monitor.check_handle_bidi("cnn.com", "alice.cnn.com", doc.did, doc)
        assert monitor.report.total_quarantined() == 1


REPO_DID = "did:plc:" + "c" * 24
RECORD_PATH = b"app.bsky.feed.post/3kabc"


def _well_hashed_car(node, commit_data=True) -> bytes:
    """A CAR whose every block hashes to its CID, holding ``node`` as the
    MST root under an unsigned v3 commit (without ``data`` if asked)."""
    from repro.atproto.car import write_car
    from repro.atproto.cbor import cbor_encode
    from repro.atproto.cid import cid_for_dag_cbor_bytes

    record = cbor_encode({"$type": "app.bsky.feed.post", "text": "hi"})
    node_block = cbor_encode(node(cid_for_dag_cbor_bytes(record)))
    commit = {"did": REPO_DID, "version": 3, "rev": "3kabcdefghi22", "prev": None}
    if commit_data:
        commit["data"] = cid_for_dag_cbor_bytes(node_block)
    commit_block = cbor_encode(commit)
    blocks = [commit_block, node_block, record]
    root = cid_for_dag_cbor_bytes(commit_block)
    return write_car(root, [(cid_for_dag_cbor_bytes(block), block) for block in blocks])


def _entry(value, **fields) -> dict:
    """A valid single MST entry for ``RECORD_PATH``, with ``fields`` replaced."""
    return {"p": 0, "k": RECORD_PATH, "v": value, "t": None, **fields}


SCHEMA_INVALID_CASES = [
    pytest.param(
        lambda v: {"l": None, "e": [{"k": RECORD_PATH, "v": v, "t": None}]}, True, "mst-invalid",
        id="entry-without-p",
    ),
    pytest.param(lambda v: {"l": None, "e": _entry(v)}, True, "mst-invalid", id="e-not-list"),
    pytest.param(
        lambda v: {"l": None, "e": [_entry(v, k=RECORD_PATH.decode())]}, True, "mst-invalid",
        id="k-not-bytes",
    ),
    pytest.param(lambda v: [_entry(v)], True, "mst-invalid", id="node-is-list"),
    pytest.param(
        lambda v: {"l": None, "e": [_entry(v)]}, False, "car-malformed",
        id="commit-without-data",
    ),
]


class TestSchemaInvalidRepoBlocks:
    """Blocks that decode and hash correctly but break the repo data model
    are quarantined, never raised out of the crawl."""

    @pytest.mark.parametrize("node, commit_data, kind", SCHEMA_INVALID_CASES)
    def test_quarantined_by_kind(self, node, commit_data, kind):
        from repro.core.integrity import IntegrityMonitor

        monitor = IntegrityMonitor(directory=None)
        car = _well_hashed_car(node, commit_data)
        verify = monitor.verify_repo_car
        assert verify("https://pds.example", REPO_DID, car, read_record=decode_record) is None
        (item,) = monitor.report.quarantined
        assert (item.kind, item.item) == (kind, REPO_DID)

    def test_well_formed_control_is_admitted(self):
        from repro.core.integrity import IntegrityMonitor

        monitor = IntegrityMonitor(directory=None)
        car = _well_hashed_car(lambda v: {"l": None, "e": [_entry(v)]})
        verify = monitor.verify_repo_car
        snapshot = verify("https://pds.example", REPO_DID, car, read_record=decode_record)
        assert snapshot is not None
        assert [path for path, _, _ in snapshot.records()] == [RECORD_PATH.decode()]


def decode_record(path: str, block: bytes) -> None:
    """A record reader for ``verify_repo_car`` that only decodes."""
    cbor_decode(block)


def _sections(car: bytes) -> tuple[int, list[tuple[int, int]]]:
    """The end of a CAR's header and each section's ``(start, end)``."""
    from repro.atproto.varint import decode_varint

    header_len, pos = decode_varint(car, 0)
    header_end = pos = pos + header_len
    spans = []
    while pos < len(car):
        length, body = decode_varint(car, pos)
        spans.append((pos, body + length))
        pos = body + length
    return header_end, spans


def _verify(car: bytes, did: str = REPO_DID, verify_key=None):
    """``verify_repo_car``'s snapshot, or the quarantined ``(kind, detail)``."""
    from repro.core.integrity import IntegrityMonitor

    monitor = IntegrityMonitor(directory=None)
    snapshot = monitor.verify_repo_car(
        "https://pds.example", did, car, verify_key=verify_key, read_record=decode_record
    )
    if snapshot is not None:
        return snapshot
    (item,) = monitor.report.quarantined
    return item.kind, item.detail


class TestIncompleteRepoCars:
    """A ``getRepo`` response is admitted only with its whole signed tree:
    a CAR missing blocks is quarantined, never read as a smaller repo and
    never raised out of the crawl."""

    def test_cut_after_the_commit_block(self):
        car = _well_hashed_car(lambda v: {"l": None, "e": [_entry(v)]})
        _header_end, spans = _sections(car)
        kind, detail = _verify(car[: spans[0][1]])
        assert kind == "mst-invalid"
        assert detail.startswith("missing MST block")

    def test_header_root_no_section_carries(self):
        from repro.atproto.car import write_car
        from repro.atproto.cbor import cbor_encode
        from repro.atproto.cid import cid_for_dag_cbor_bytes

        commit = cbor_encode({"did": REPO_DID, "version": 3, "rev": "3kabcdefghi22"})
        other = cid_for_dag_cbor_bytes(cbor_encode({"other": True}))
        car = write_car(other, [(cid_for_dag_cbor_bytes(commit), commit)])
        assert _verify(car) == ("car-malformed", "root block %s missing from CAR" % other)

    @pytest.mark.parametrize("with_entry", [False, True], ids=["entry-less", "one-entry"])
    def test_chain_of_nodes(self, with_entry):
        from repro.atproto.car import write_car
        from repro.atproto.cbor import cbor_encode
        from repro.atproto.cid import cid_for_dag_cbor_bytes

        # 1,500 nodes, each linking the next, and every digest checks
        # out: the walk used to recurse past Python's recursion limit.
        record = cid_for_dag_cbor_bytes(cbor_encode({"text": "hi"}))
        blocks, link = [], None
        for _ in range(1500):
            entries = [_entry(record)] if with_entry else []
            block = cbor_encode({"e": entries, "l": link})
            link = cid_for_dag_cbor_bytes(block)
            blocks.append((link, block))
        commit = cbor_encode(
            {"did": REPO_DID, "version": 3, "rev": "3kabcdefghi22", "data": link}
        )
        commit_cid = cid_for_dag_cbor_bytes(commit)
        car = write_car(commit_cid, [(commit_cid, commit)] + blocks[::-1])
        kind, detail = _verify(car)
        assert kind == "mst-invalid"
        assert detail.startswith("MST deeper than 129 levels")


@pytest.mark.slow
def test_every_cut_or_dropped_section_is_quarantined(study_world):
    """Every repository CAR of the clean reference study, cut at each
    section boundary and with each single section dropped: the crawl's
    check admits the full repository or quarantines it.  The variants
    skip the signature check (a pure-Python ECDSA verify each), which a
    cut or a dropped section cannot change."""
    checked = 0
    for pds in study_world.pds_shards:
        for row in pds.xrpc_listRepos(limit=100_000)["repos"]:
            did = row["did"]
            key = pds.repo(did).keypair.public_key
            car = pds.xrpc_getRepo(did=did)
            full = _verify(car, did, key)
            expected = list(full.records())
            header_end, spans = _sections(car)
            variants = [car[:end] for _start, end in spans[:-1]] + [car[:header_end]]
            variants += [car[:start] + car[end:] for start, end in spans]
            for variant in variants:
                result = _verify(variant, did)
                if isinstance(result, tuple):
                    assert result[0] in ("car-malformed", "mst-invalid"), result
                else:
                    assert list(result.records()) == expected
                checked += 1
    assert checked > 1000


class TestReportRendering:
    def test_integrity_section_lists_hosts_and_kinds(self, adversarial_datasets):
        from repro.core.report import render_integrity

        text = render_integrity(adversarial_datasets)
        assert "quarantined" in text
        for host in POISONED_PDSES:
            assert host in text

    def test_integrity_json_round_trips(self, adversarial_datasets, tmp_path):
        import json

        from repro.core.export import export_artefacts

        paths = export_artefacts(adversarial_datasets, str(tmp_path))
        integrity_path = [p for p in paths if p.endswith("integrity.json")]
        assert integrity_path
        with open(integrity_path[0]) as fh:
            payload = json.load(fh)
        assert payload["quarantined_total"] == len(
            adversarial_datasets.integrity.quarantined
        )
        assert payload["quarantined_by_host_kind"]
