"""Crash-safe checkpoint/resume: atomic writes, the journal and the checkpointer.

That a study killed by a :class:`CrashPlan` and restarted with
``resume=True`` reproduces the uninterrupted run byte for byte is checked
by the crash/resume cells of ``tests/test_equivalence.py``;
``TestResumeDeterminism`` reads the same clean three-crash chain and
names the part that drifted.
"""

import os
import pickle

import pytest

from repro.atproto.cid import Cid, cid_for_raw
from repro.core.atomicio import atomic_write_bytes, atomic_write_csv, atomic_write_json
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    StudyCheckpointer,
    state_guard,
)
from repro.netsim.faults import CrashPlan, StudyCrashed


class TestAtomicWrites:
    def test_bytes_then_no_temp_left(self, tmp_path):
        path = str(tmp_path / "artefact.bin")
        atomic_write_bytes(path, b"payload")
        with open(path, "rb") as fh:
            assert fh.read() == b"payload"
        assert os.listdir(str(tmp_path)) == ["artefact.bin"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "artefact.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as fh:
            assert '"v": 2' in fh.read()
        assert os.listdir(str(tmp_path)) == ["artefact.json"]

    def test_failed_publish_leaves_no_temp(self, tmp_path):
        # A destination we cannot replace (it is a directory): the publish
        # step fails, and the temp file must be cleaned up.
        target = tmp_path / "artefact.bin"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(str(target), b"x")
        assert os.listdir(str(tmp_path)) == ["artefact.bin"]
        assert os.path.isdir(str(target))

    def test_csv_render(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        atomic_write_csv(path, ("a", "b"), [(1, 2), (3, 4)])
        with open(path) as fh:
            assert fh.read().splitlines() == ["a,b", "1,2", "3,4"]


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        assert not journal.exists()
        journal.save({"cursor": 42, "frontier": {"did:plc:x"}})
        assert journal.exists()
        state = journal.load()
        assert state["cursor"] == 42
        assert state["frontier"] == {"did:plc:x"}

    def test_save_is_atomic_on_disk(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        journal.save({"n": 1})
        journal.save({"n": 2})
        # Only the journal file itself remains — no temp debris.
        assert os.listdir(str(tmp_path)) == ["study.ckpt"]
        assert journal.load()["n"] == 2

    # Version 1 journals carry histogram registry state, which the
    # registry can no longer adopt.
    @pytest.mark.parametrize("version", [999, 1])
    def test_version_mismatch_rejected(self, tmp_path, version):
        journal = CheckpointJournal(str(tmp_path))
        journal.save({"n": 1})
        path = os.path.join(str(tmp_path), "study.ckpt")
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        state["__version__"] = version
        with open(path, "wb") as fh:
            pickle.dump(state, fh)
        with pytest.raises(CheckpointError):
            journal.load()

    def test_load_without_checkpoint_returns_none(self, tmp_path):
        # Resuming with no journal on disk starts a fresh run.
        assert CheckpointJournal(str(tmp_path)).load() is None

    def test_cid_pickle_round_trip(self):
        cid = cid_for_raw(b"block")
        clone = pickle.loads(pickle.dumps(cid))
        assert clone == cid
        assert isinstance(clone, Cid)
        assert clone.digest == cid.digest


class TestCheckpointer:
    def test_crash_is_abrupt_no_save(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        ckpt = StudyCheckpointer(journal, CrashPlan(points=(3,)), save_every=1)
        ckpt.bind(lambda: {"progress": ckpt.ticks})
        ckpt.tick("a")
        ckpt.tick("b")
        with pytest.raises(StudyCrashed) as info:
            ckpt.tick("c")
        assert info.value.tick == 3
        assert info.value.label == "c"
        # Ticks a and b were journaled; the crashing tick was not.
        assert journal.load()["progress"] == 2

    def test_done_set_round_trips(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        ckpt = StudyCheckpointer(journal)
        ckpt.bind(lambda: {})
        ckpt.mark_done("repo-snapshot@100")
        ckpt.save()
        fresh = StudyCheckpointer(journal)
        fresh.restore()
        assert fresh.is_done("repo-snapshot@100")
        assert not fresh.is_done("repo-snapshot@200")

    def test_state_guard(self):
        state_guard({"seed": 1}, "seed", 1)
        with pytest.raises(CheckpointError):
            state_guard({"seed": 1}, "seed", 2)

    def test_seeded_crash_plan_deterministic(self):
        assert CrashPlan.seeded(5).points == CrashPlan.seeded(5).points
        assert CrashPlan.seeded(5, n_points=3).points != ()
        lo, hi = 50, 2000
        for point in CrashPlan.seeded(12, n_points=5, lo=lo, hi=hi).points:
            assert lo <= point <= hi


@pytest.mark.slow
class TestResumeDeterminism:
    """Three kills, three resumes, zero drift."""

    def test_chain_reaches_completion(self, clean_resumed):
        datasets = clean_resumed.datasets
        assert sum(datasets.firehose.event_counts.values()) > 0
        assert datasets.repositories.repo_count > 0
        assert len(datasets.active.handle_probes) > 0

    def test_artefacts_byte_identical_to_uninterrupted_run(self, clean_resumed, reference):
        files = clean_resumed.fingerprint["files"]
        assert "events.jsonl" in files and "metrics.json" in files
        assert files == reference.fingerprint["files"]

    def test_core_datasets_match_uninterrupted_run(self, clean_resumed, study_datasets):
        datasets = clean_resumed.datasets
        assert dict(datasets.firehose.event_counts) == dict(
            study_datasets.firehose.event_counts
        )
        assert dict(datasets.firehose.op_counts) == dict(study_datasets.firehose.op_counts)
        assert (
            datasets.repositories.records_per_repo
            == study_datasets.repositories.records_per_repo
        )
        assert set(datasets.did_documents.documents) == set(
            study_datasets.did_documents.documents
        )
        assert datasets.labels.announced_count() == study_datasets.labels.announced_count()
        assert [r.handle for r in datasets.active.handle_probes] == [
            r.handle for r in study_datasets.active.handle_probes
        ]
