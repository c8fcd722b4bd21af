"""Crash-safe checkpoint/resume: the resume-determinism acceptance tests.

The criterion from the issue: a study killed by a :class:`CrashPlan` at
seeded points and restarted with ``resume=True`` must produce artefacts
byte-identical to an uninterrupted run with the same simulation seed —
through a chain of three crashes, and also with an adversarial plan
active across the crash boundary.
"""

import filecmp
import json
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
from repro.core.export import export_artefacts
from repro.core.pipeline import run_study
from repro.netsim.faults import CrashPlan, StudyCrashed
from repro.simulation.config import SimulationConfig

CRASH_POINTS = (900, 900, 900)  # per-process ticks: three crash/resume cycles


def run_crash_chain(checkpoint_dir: str, adversarial_plan=None):
    """Kill the study three times, resuming after each, then finish."""
    for index, point in enumerate(CRASH_POINTS):
        with pytest.raises(StudyCrashed):
            run_study(
                SimulationConfig.tiny(),
                adversarial_plan=adversarial_plan,
                checkpoint_dir=checkpoint_dir,
                resume=index > 0,
                crash_plan=CrashPlan(points=(point,)),
            )
    return run_study(
        SimulationConfig.tiny(),
        adversarial_plan=adversarial_plan,
        checkpoint_dir=checkpoint_dir,
        resume=True,
    )


def deterministic_events(path: str) -> list[str]:
    """The resume-comparable projection of an exported ``events.jsonl``.

    The artefact carries dual clocks and volatile process-local events by
    design; only the deterministic stream (volatile lines dropped, the
    forensic ``wall_us`` stripped) is promised identical across a resume.
    """
    out = []
    with open(path) as fh:
        for line in fh:
            event = json.loads(line)
            if event.get("volatile"):
                continue
            event.pop("wall_us", None)
            out.append(json.dumps(event, sort_keys=True))
    return out


def assert_exports_identical(datasets_a, datasets_b, tmp_path):
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    paths_a = export_artefacts(datasets_a, dir_a)
    paths_b = export_artefacts(datasets_b, dir_b)
    names = [os.path.basename(p) for p in paths_a]
    assert names == [os.path.basename(p) for p in paths_b]
    byte_identical = [n for n in names if n != "events.jsonl"]
    match, mismatch, errors = filecmp.cmpfiles(
        dir_a, dir_b, byte_identical, shallow=False
    )
    assert not errors
    assert mismatch == [], "artefacts differ after resume: %s" % mismatch
    assert len(match) == len(byte_identical)
    if "events.jsonl" in names:
        assert deterministic_events(
            os.path.join(dir_a, "events.jsonl")
        ) == deterministic_events(os.path.join(dir_b, "events.jsonl"))


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

    def test_clear(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        journal.save({"n": 1})
        journal.clear()
        assert not journal.exists()

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
    """The tentpole acceptance test: three kills, three resumes, zero drift."""

    @pytest.fixture(scope="class")
    def resumed(self, tmp_path_factory):
        checkpoint_dir = str(tmp_path_factory.mktemp("ckpt-clean"))
        return run_crash_chain(checkpoint_dir)

    def test_chain_reaches_completion(self, resumed):
        _, datasets = resumed
        assert sum(datasets.firehose.event_counts.values()) > 0
        assert datasets.repositories.repo_count > 0
        assert len(datasets.active.handle_probes) >= 0

    def test_artefacts_byte_identical_to_uninterrupted_run(
        self, resumed, study_datasets, tmp_path
    ):
        _, datasets = resumed
        assert_exports_identical(study_datasets, datasets, tmp_path)

    def test_core_datasets_match_uninterrupted_run(self, resumed, study_datasets):
        _, datasets = resumed
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


@pytest.mark.slow
class TestResumeUnderAdversary:
    """Crash/resume composes with Byzantine hosts: the quarantine ledger
    and every artefact stay byte-identical across the crash boundary."""

    def test_adversarial_chain_matches_uninterrupted(self, tmp_path_factory, tmp_path):
        from tests.core.test_integrity import adversarial_plan

        checkpoint_dir = str(tmp_path_factory.mktemp("ckpt-adv"))
        _, resumed = run_crash_chain(checkpoint_dir, adversarial_plan=adversarial_plan())
        _, baseline = run_study(
            SimulationConfig.tiny(), adversarial_plan=adversarial_plan()
        )
        assert resumed.integrity.to_jsonable() == baseline.integrity.to_jsonable()
        assert dict(resumed.adversary.tampered) == dict(baseline.adversary.tampered)
        assert_exports_identical(baseline, resumed, tmp_path)
