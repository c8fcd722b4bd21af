"""Resilient collection under a seeded fault plan.

The acceptance criterion for fault injection: a *recoverable* plan (every
outage shorter than the retry horizon, every disconnect shorter than the
relay's retention window) must not change what the study measures.  The
faulted run completes, reports how many faults it absorbed, and its
Table 1 statistics are identical to the fault-free run with the same
simulation seed.
"""

import pytest

from repro.atproto.cid import cid_for_raw
from repro.atproto.events import CommitEvent, CommitOp
from repro.core.collect.firehose import FirehoseCollector
from repro.core.report import render_collection_health


@pytest.fixture(scope="module")
def faulted_datasets(references):
    """The tiny study run under the recoverable fault plan of seed 7."""
    return references["faults-7"].datasets


class TestLabelerTracking:
    """Satellite: deletes of app.bsky.labeler.service must retire the DID."""

    LABELER = "app.bsky.labeler.service/self"
    DID = "did:plc:" + "l" * 24

    def commit(self, seq, action, record=None):
        cid = None if action == "delete" else cid_for_raw(b"labeler")
        return CommitEvent(
            seq=seq,
            did=self.DID,
            time_us=seq,
            rev="rev%d" % seq,
            ops=(CommitOp(action=action, path=self.LABELER, cid=cid, record=record),),
        )

    def test_create_then_delete_retires_did(self):
        collector = FirehoseCollector()
        collector.consume(self.commit(1, "create", {"$type": "app.bsky.labeler.service"}))
        assert self.DID in collector.dataset.labeler_service_dids
        collector.consume(self.commit(2, "delete"))
        assert self.DID not in collector.dataset.labeler_service_dids

    def test_update_keeps_did(self):
        collector = FirehoseCollector()
        collector.consume(self.commit(1, "create", {"$type": "app.bsky.labeler.service"}))
        collector.consume(self.commit(2, "update", {"$type": "app.bsky.labeler.service"}))
        assert self.DID in collector.dataset.labeler_service_dids


class TestFaultedStudy:
    def test_run_completes_and_reports_faults(self, faulted_datasets):
        faults = faulted_datasets.faults
        assert faults is not None
        assert faults.calls_seen > 0
        assert faults.total_injected() > 0

    def test_firehose_survived_disconnects(self, faulted_datasets):
        firehose = faulted_datasets.firehose
        assert firehose.disconnects > 0
        assert firehose.reconnects == firehose.disconnects
        assert firehose.replayed_events > 0
        # Recoverable plan: every disconnect fits inside retention.
        assert firehose.gaps == []
        assert firehose.dropped_events == 0

    def test_table1_matches_fault_free_run(self, faulted_datasets, study_datasets):
        """The headline criterion: same seed, same Table 1, faults or not."""
        faulted, clean = faulted_datasets.firehose, study_datasets.firehose
        assert dict(faulted.event_counts) == dict(clean.event_counts)
        assert dict(faulted.op_counts) == dict(clean.op_counts)
        assert faulted.bytes_received == clean.bytes_received
        assert faulted.end_us == clean.end_us

    def test_downstream_datasets_match_fault_free_run(
        self, faulted_datasets, study_datasets
    ):
        """Retries hide the faults from every collector, not just Table 1."""
        assert (
            faulted_datasets.repositories.repo_count
            == study_datasets.repositories.repo_count
        )
        assert faulted_datasets.repositories.failed_dids == set()
        assert len(faulted_datasets.repositories.posts) == len(
            study_datasets.repositories.posts
        )
        assert len(faulted_datasets.did_documents.documents) == len(
            study_datasets.did_documents.documents
        )
        assert faulted_datasets.labels.announced_count() == (
            study_datasets.labels.announced_count()
        )


class TestHealthReport:
    def test_renders_for_faulted_run(self, faulted_datasets):
        text = render_collection_health(faulted_datasets)
        assert "Collection health" in text
        assert "injected faults" in text.lower() or "Injected faults" in text

    def test_renders_for_fault_free_run(self, study_datasets):
        text = render_collection_health(study_datasets)
        assert "Collection health" in text
