"""The equivalence matrix: every whole-study byte-identity check, run once.

Each matrix configuration (see ``CONFIGS`` in ``tests/conftest.py``) has
one session-scoped reference study.  Every execution axis below runs
once and must reproduce its reference's :func:`~tests.conftest.fingerprint`
exactly:

========================  =====  ===============  ==============================
config                    rerun  hash-seed child  crash/resume
========================  =====  ===============  ==============================
clean (seed 2024)         yes    yes              900 x3
faults-7                  yes
faults-11                        yes              900; 1500
adversary                 yes                     900 x3
faults-11+adversary       yes
========================  =====  ===============  ==============================

Every run is a session-scoped entry of ``References`` in
``tests/conftest.py``, so the tests outside the matrix that read the
clean rerun or the clean crash chain (the same-seed tests of
``tests/core/test_determinism.py``, ``TestResumeDeterminism`` and
others) repeat no run.  The seed-2024 fingerprint is pinned by
``TestPinnedFingerprint`` in ``tests/simulation/test_sharding.py``, and
``TestSchedule`` in ``tests/core/test_pipeline.py`` checks that another
seed differs.  Warm against flushed caches needs no cell of its own:
every resumed process starts with cold caches.
"""

import json

import pytest

from repro.atproto.cid import cid_for_cbor
from repro.atproto.mst import Mst, mst_diff
from repro.obs.events import validate_events_lines
from tests.conftest import CONFIGS, CRASH_CHAIN, run_in_child

PROBE = "did:plc:hash-probe"

SLOW = pytest.mark.slow


def unexported(datasets) -> dict:
    """Dataset fields that merged tests compared directly, most of which
    no artefact carries."""
    faults, adversary = datasets.faults, datasets.adversary
    return {
        "records_per_repo": datasets.repositories.records_per_repo,
        "operation_totals": datasets.repositories.operation_totals(),
        "labels": len(datasets.labels.labels),
        "did_documents": sorted(datasets.did_documents.documents),
        "labels_announced": datasets.labels.announced_count(),
        "handle_probes": [row.handle for row in datasets.active.handle_probes],
        "transient_retries": datasets.repositories.transient_retries,
        "disconnects": datasets.firehose.disconnects,
        "injected": None
        if faults is None
        else (faults.total_injected(), dict(faults.injected_by_kind)),
        "tampered": None if adversary is None else dict(adversary.tampered),
    }


def assert_matches(study, reference):
    assert study.fingerprint == reference.fingerprint
    assert unexported(study.datasets) == unexported(reference.datasets)


def mst_diff_keys() -> list:
    """The keys of one MST diff, in the order ``mst_diff`` returns them
    (the order once followed string hashes)."""
    old, new = Mst(), Mst()
    for i in range(50):
        old.set("coll/k%03d" % i, cid_for_cbor({"i": i}))
        if i % 3:
            new.set("coll/k%03d" % i, cid_for_cbor({"i": i, "v": 2}))
    return list(mst_diff(old, new))


@pytest.mark.parametrize(
    "config",
    ["clean", "faults-7", "adversary", pytest.param("faults-11+adversary", marks=SLOW)],
)
def test_rerun(config, references):
    reference = references[config]
    assert_matches(references.rerun(config), reference)
    # The relay really crawled repos, so the heads comparison is not vacuous.
    assert reference.fingerprint["repos_with_heads"] > 0
    if CONFIGS[config][0] is not None:  # and the fault plan really fired
        snapshot = json.loads(reference.datasets.telemetry.metrics_json())
        assert any(key.startswith("faults_injected") for key in snapshot["gauges"])
        assert any("outcome=injected-" in key for key in snapshot["counters"])


_CHILD = """\
import json, tempfile
from tests.conftest import build_study, fingerprint
from tests.test_equivalence import PROBE, mst_diff_keys

with tempfile.TemporaryDirectory() as directory:
    result = fingerprint(build_study(%r), directory)
print(json.dumps({
    "fingerprint": result,
    "diff_keys": mst_diff_keys(),
    "hash_probe": hash(PROBE),
}))
"""


@SLOW
@pytest.mark.parametrize(
    "config, hashseed",
    [pytest.param("clean", "0", id="clean"), pytest.param("faults-11", "1", id="faults-11")],
)
def test_hash_seed_child(config, hashseed, references):
    child = run_in_child(_CHILD % config, hashseed)
    if child["hash_probe"] == hash(PROBE):  # this process runs under the same seed
        child = run_in_child(_CHILD % config, str(int(hashseed) + 2))
    # The interpreters really hash strings differently; otherwise equal
    # fingerprints would prove nothing.
    assert child["hash_probe"] != hash(PROBE)
    assert child["fingerprint"] == references[config].fingerprint
    assert child["diff_keys"] == mst_diff_keys() == sorted(child["diff_keys"])


@SLOW
@pytest.mark.parametrize(
    "config, points",
    [
        pytest.param("clean", CRASH_CHAIN, id="clean-900x3"),
        pytest.param("faults-11", (900,), id="faults-11-900"),
        pytest.param("faults-11", (1500,), id="faults-11-1500"),
        pytest.param("adversary", CRASH_CHAIN, id="adversary-900x3"),
    ],
)
def test_crash_resume(config, points, references):
    resumed = references.resumed(config, points)
    assert_matches(resumed, references[config])
    lines = resumed.datasets.telemetry.events_jsonl().splitlines()
    assert validate_events_lines(lines) == []
    datasets = resumed.datasets
    assert sum(datasets.firehose.event_counts.values()) > 0
    assert datasets.repositories.repo_count > 0
