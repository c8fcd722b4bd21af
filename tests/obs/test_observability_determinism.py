"""Byte-identity of the observability artefacts (the acceptance tests).

``metrics.prom`` must come out byte-identical across interpreter hash
seeds and crash/resume chains — it renders the deterministic registry
snapshot, so any divergence means
nondeterminism leaked into the registry itself.  The deterministic event
stream carries the same contract once the forensic wall clock (a dual
clock by design) is stripped.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.export import firehose_frame_observer, study_fingerprint
from repro.core.pipeline import MeasurementPipeline
from repro.netsim.faults import CrashPlan, FaultPlan, StudyCrashed
from repro.obs.events import validate_events_lines
from repro.obs.metrics import parse_series_key
from repro.simulation.config import (
    FIREHOSE_COLLECT_END_US,
    FIREHOSE_COLLECT_START_US,
    SimulationConfig,
)
from repro.simulation.world import World


def strip_wall(jsonl: str) -> str:
    """Drop the process-local wall clock; everything else must match."""
    out = []
    for line in jsonl.splitlines():
        event = json.loads(line)
        event.pop("wall_us", None)
        out.append(json.dumps(event, sort_keys=True))
    return "\n".join(out)


def observability_artefacts(datasets) -> dict:
    telemetry = datasets.telemetry
    return {
        "prom": telemetry.metrics_openmetrics(),
        "events": strip_wall(telemetry.events_jsonl(include_volatile=False)),
    }


def _fault_plan():
    # Injected faults populate fault.injected events and injected-*
    # call outcomes.
    return FaultPlan.recoverable(
        11, FIREHOSE_COLLECT_START_US, FIREHOSE_COLLECT_END_US
    )


def _run():
    world = World(SimulationConfig.tiny())
    frame_digest = firehose_frame_observer(world)
    datasets = MeasurementPipeline(world, fault_plan=_fault_plan()).run()
    artefacts = observability_artefacts(datasets)
    artefacts["fingerprint"] = study_fingerprint(datasets, frame_digest)
    artefacts["metrics"] = datasets.telemetry.metrics_snapshot()
    return artefacts


@pytest.mark.slow
class TestFaultedRun:
    @pytest.fixture(scope="class")
    def run(self):
        return _run()

    def test_event_stream_nonempty_with_faults(self, run):
        events = run["events"].splitlines()
        kinds = {json.loads(line)["kind"] for line in events}
        assert "fault.injected" in kinds
        assert "phase.start" in kinds and "phase.end" in kinds

    def test_call_counters_record_injected_faults(self, run):
        injected = 0
        for key, value in run["metrics"]["counters"].items():
            name, labels = parse_series_key(key)
            if name == "xrpc_calls_total" and labels["outcome"].startswith("injected-"):
                injected += value
        assert injected > 0


@pytest.mark.slow
class TestCrashResumeByteIdentity:
    def test_resumed_chain_matches_uninterrupted(self, tmp_path):
        uninterrupted = _run()

        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(StudyCrashed):
            MeasurementPipeline(
                World(SimulationConfig.tiny()),
                fault_plan=_fault_plan(),
                checkpoint_dir=checkpoint_dir,
                crash_plan=CrashPlan(points=(900,)),
            ).run()
        world = World(SimulationConfig.tiny())
        frame_digest = firehose_frame_observer(world)
        datasets = MeasurementPipeline(
            world,
            fault_plan=_fault_plan(),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ).run()
        resumed = observability_artefacts(datasets)
        resumed["fingerprint"] = study_fingerprint(datasets, frame_digest)

        assert resumed["prom"] == uninterrupted["prom"]
        assert resumed["events"] == uninterrupted["events"]
        assert resumed["fingerprint"] == uninterrupted["fingerprint"]

    def test_resumed_event_log_validates(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt2")
        with pytest.raises(StudyCrashed):
            MeasurementPipeline(
                World(SimulationConfig.tiny()),
                fault_plan=_fault_plan(),
                checkpoint_dir=checkpoint_dir,
                crash_plan=CrashPlan(points=(1500,)),
            ).run()
        world = World(SimulationConfig.tiny())
        datasets = MeasurementPipeline(
            world,
            fault_plan=_fault_plan(),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ).run()
        lines = datasets.telemetry.events_jsonl().splitlines()
        assert validate_events_lines(lines) == []


_CHILD = """\
import hashlib, json
from repro.core.pipeline import MeasurementPipeline
from repro.netsim.faults import FaultPlan
from repro.simulation.config import (
    FIREHOSE_COLLECT_END_US,
    FIREHOSE_COLLECT_START_US,
    SimulationConfig,
)
from repro.simulation.world import World

world = World(SimulationConfig.tiny())
plan = FaultPlan.recoverable(11, FIREHOSE_COLLECT_START_US, FIREHOSE_COLLECT_END_US)
datasets = MeasurementPipeline(world, fault_plan=plan).run()
telemetry = datasets.telemetry

events = []
for line in telemetry.events_jsonl(include_volatile=False).splitlines():
    event = json.loads(line)
    event.pop("wall_us", None)
    events.append(json.dumps(event, sort_keys=True))

print(json.dumps({
    "prom_sha": hashlib.sha256(telemetry.metrics_openmetrics().encode()).hexdigest(),
    "events_sha": hashlib.sha256("\\n".join(events).encode()).hexdigest(),
    "hash_probe": hash("did:plc:hash-probe"),
}))
"""


def _run_child(hashseed: str) -> dict:
    env = dict(os.environ)  # repro: allow(env-read) -- test harness must thread PYTHONPATH/PYTHONHASHSEED into the child
    env["PYTHONHASHSEED"] = hashseed
    src_dir = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src")
    )
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.slow
def test_observability_artefacts_identical_across_hash_seeds():
    run_a = _run_child("0")
    run_b = _run_child("1")
    assert run_a["hash_probe"] != run_b["hash_probe"]  # the seeds really differ
    assert run_a["prom_sha"] == run_b["prom_sha"]
    assert run_a["events_sha"] == run_b["events_sha"]
