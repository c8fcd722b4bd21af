"""Session-wide fixtures: the reference studies of the equivalence matrix.

Building a world is the expensive part of the integration tests; the
simulation is deterministic, so each matrix configuration's reference
study is built at most once per session and shared by every test that
only reads from it.  ``tests/test_equivalence.py`` checks each execution
axis against these references through :func:`fingerprint`, the one
definition of what must come out byte-identical.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.export import export_artefacts, firehose_frame_observer, study_fingerprint
from repro.core.pipeline import MeasurementPipeline, StudyDatasets
from repro.netsim.faults import AdversarialPlan, CrashPlan, FaultPlan, StudyCrashed
from repro.simulation.config import (
    FIREHOSE_COLLECT_END_US,
    FIREHOSE_COLLECT_START_US,
    SimulationConfig,
)
from repro.simulation.world import World

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ADVERSARY_SEED = 11
POISONED_PDSES = (
    "https://shard00.pds.bsky.network",
    "https://shard01.pds.bsky.network",
    "https://shard02.pds.bsky.network",
)
DECOY_PDS = "https://shard03.pds.bsky.network"
RELAY = "https://bsky.network"
FORGED_DOMAINS = ("cnn.com",)

# Matrix configuration -> (recoverable fault-plan seed or None, adversary on).
CONFIGS = {
    "clean": (None, False),
    "faults-7": (7, False),
    "faults-11": (11, False),
    "adversary": (None, True),
    "faults-11+adversary": (11, True),
}

CRASH_CHAIN = (900, 900, 900)  # per-process ticks: three crash/resume cycles


def fault_plan(seed: int) -> FaultPlan:
    """A recoverable plan: every outage and disconnect heals within the
    retry horizon and the relay's retention window."""
    return FaultPlan.recoverable(seed, FIREHOSE_COLLECT_START_US, FIREHOSE_COLLECT_END_US)


def adversarial_plan() -> AdversarialPlan:
    """Three poisoned PDS shards, a garbling relay and a forged handle domain."""
    return AdversarialPlan.poison(
        ADVERSARY_SEED,
        pds_hosts=POISONED_PDSES,
        relay_url=RELAY,
        handle_domains=FORGED_DOMAINS,
        decoy_pds=DECOY_PDS,
    )


@dataclass
class Study:
    world: World
    pipeline: MeasurementPipeline
    datasets: StudyDatasets
    frame_digest: str  # sha256 over every published firehose wire frame
    events: list  # every firehose event the relay published, in order
    fingerprint: Optional[dict] = None  # set on the session's references


def build_study(config: str = "clean", **pipeline_kwargs) -> Study:
    """Run one tiny study of a matrix configuration.

    ``pipeline_kwargs`` go to :class:`MeasurementPipeline`; under a crash
    plan the run raises :class:`~repro.netsim.faults.StudyCrashed`.
    """
    fault_seed, adversary = CONFIGS[config]
    world = World(SimulationConfig.tiny())
    digest = firehose_frame_observer(world)
    events = []
    world.relay.firehose.subscribe(events.append)
    pipeline = MeasurementPipeline(
        world,
        fault_plan=fault_plan(fault_seed) if fault_seed is not None else None,
        adversarial_plan=adversarial_plan() if adversary else None,
        **pipeline_kwargs,
    )
    datasets = pipeline.run()
    return Study(world, pipeline, datasets, digest(), events)


def resume_chain(config: str, points: tuple, checkpoint_dir: str) -> Study:
    """Kill the study at each crash point in turn, resuming after each
    crash, then let it finish."""
    for index, point in enumerate(points):
        with pytest.raises(StudyCrashed):
            build_study(
                config,
                checkpoint_dir=checkpoint_dir,
                resume=index > 0,
                crash_plan=CrashPlan(points=(point,)),
            )
    return build_study(config, checkpoint_dir=checkpoint_dir, resume=True)


def deterministic_events(jsonl: str) -> str:
    """The comparable projection of ``events.jsonl``: the log carries a
    forensic wall clock and volatile process-local events by design, so
    volatile lines are dropped and ``wall_us`` is stripped."""
    out = []
    for line in jsonl.splitlines():
        event = json.loads(line)
        if event.get("volatile"):
            continue
        event.pop("wall_us", None)
        out.append(json.dumps(event, sort_keys=True))
    return "\n".join(out)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def live_users(world: World) -> list:
    """The users that have joined and are not tombstoned."""
    return [u for u in world.users if u.joined and not u.tombstoned]


def official_labeler(world: World):
    """The runtime of the official Bluesky labeler."""
    return next(r for r in world.labelers if r.spec.is_official)


def relay_heads(world: World) -> dict:
    """``{did: (head CID, rev)}`` for every repository the relay holds a head of."""
    heads = {}
    for did in world.relay.known_dids():
        repo = world.relay.cached_repo(did)
        if repo is not None and repo.head is not None:
            heads[did] = (str(repo.head), repo.rev)
    return heads


def fingerprint(study: Study, directory: str) -> dict:
    """Everything a run must reproduce byte for byte on every execution axis.

    * ``study``: :func:`study_fingerprint` — Table 1, ``metrics.json``,
      the firehose counters and the wire-frame digest;
    * ``files``: the sha256 of every artefact :func:`export_artefacts`
      writes into ``directory`` (``events.jsonl`` as its
      :func:`deterministic_events` projection);
    * ``heads``: :func:`relay_heads`;
    * ``indexed_posts``: the AppView's indexed-post count.
    """
    files = {}
    for path in export_artefacts(study.datasets, directory):
        with open(path, "rb") as fh:
            data = fh.read()
        name = os.path.basename(path)
        if name == "events.jsonl":
            data = deterministic_events(data.decode()).encode()
        files[name] = _sha256(data)
    heads = relay_heads(study.world)
    return {
        "study": study_fingerprint(study.datasets, study.frame_digest),
        "files": files,
        "heads": _sha256(json.dumps(sorted(heads.items())).encode()),
        "repos_with_heads": len(heads),
        "indexed_posts": len(study.world.appview.index.posts),
    }


def run_in_child(script: str, hashseed: str) -> dict:
    """Run ``script`` in a fresh interpreter with ``PYTHONHASHSEED`` set
    to ``hashseed``, with ``src/`` and the repository root importable;
    returns the JSON object the script prints."""
    env = dict(os.environ)  # repro: allow(env-read) -- the child inherits the environment, then gets PYTHONPATH and PYTHONHASHSEED
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class References:
    """The runs of the equivalence matrix, each fingerprinted straight
    away, before any test can touch it.

    Each configuration's reference study is built on first use and kept.
    So are the clean configuration's axis runs, which tests outside the
    matrix read too; every other axis run is read by one matrix cell and
    is built for it alone.  No run is ever repeated.

    A kept run lives for the whole session, so it is frozen out of the
    cyclic garbage collector: otherwise every later collection re-walks
    its objects, which made each later study about 30% slower.
    ``gc.freeze`` freezes everything alive at the time, so the module
    that kept a run refreezes when it ends (:func:`_refreeze_kept_runs`).
    """

    refreeze_due = False

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._built: dict = {}

    def _run(self, key: str, build, keep: bool = True) -> Study:
        if key in self._built:
            return self._built[key]
        study = build()
        study.fingerprint = fingerprint(study, str(self._tmp.mktemp(key)))
        if keep:
            self._built[key] = study
            gc.collect()
            gc.freeze()
            References.refreeze_due = True
        return study

    def __getitem__(self, config: str) -> Study:
        return self._run("ref-" + config, lambda: build_study(config))

    def rerun(self, config: str) -> Study:
        """A second in-process run of ``config``."""
        return self._run("rerun-" + config, lambda: build_study(config), config == "clean")

    def resumed(self, config: str, points: tuple) -> Study:
        """``config`` run to completion through a crash at each of ``points``."""
        return self._run(
            "resumed-%s-%s" % (config, "-".join(map(str, points))),
            lambda: resume_chain(config, points, str(self._tmp.mktemp("ckpt"))),
            config == "clean",
        )


@pytest.fixture(scope="module", autouse=True)
def _refreeze_kept_runs():
    """Once a module that kept a run has torn its fixtures down, unfreeze,
    collect the reference cycles they left and freeze again, so that only
    what outlives the module (the kept runs) stays frozen."""
    yield
    if References.refreeze_due:
        References.refreeze_due = False
        gc.unfreeze()
        gc.collect()
        gc.freeze()


@pytest.fixture(scope="session")
def references(tmp_path_factory) -> References:
    return References(tmp_path_factory)


@pytest.fixture(scope="session")
def reference(references) -> Study:
    """The clean seed-2024 tiny study."""
    return references["clean"]


@pytest.fixture(scope="session")
def study(reference):
    """(world, datasets) of the clean reference study."""
    return reference.world, reference.datasets


@pytest.fixture(scope="session")
def study_world(reference) -> World:
    return reference.world


@pytest.fixture(scope="session")
def study_datasets(reference) -> StudyDatasets:
    return reference.datasets


@pytest.fixture(scope="session")
def clean_rerun(references) -> Study:
    """The clean study run a second time, in the same process."""
    return references.rerun("clean")


@pytest.fixture(scope="session")
def clean_resumed(references) -> Study:
    """The clean study run through :data:`CRASH_CHAIN`, resuming after each crash."""
    return references.resumed("clean", CRASH_CHAIN)
