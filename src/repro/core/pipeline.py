"""The end-to-end measurement pipeline.

Reproduces the paper's collection schedule against a simulated world:

* live Firehose subscription from 2024-03-06,
* weekly ``listRepos`` crawls during March and April 2024,
* a full DID-document snapshot in March 2024,
* a full repository snapshot on April 24,
* bi-weekly feed crawls from April 16 to May 10,
* daily labeler reconnect/backfill, with the label dataset closed on
  May 1,
* active DNS / WHOIS / Tranco measurements after the identity snapshot.

``MeasurementPipeline(world).run()`` returns a :class:`StudyDatasets`
bundle, the input to every analysis in :mod:`repro.core.analysis`.

Robustness layers (all optional except integrity, which is always on):

* ``fault_plan`` — transient unreliability (outages, flaky hosts,
  disconnects) behind every network call;
* ``adversarial_plan`` — Byzantine hosts serving corrupted CARs,
  wrong-key commits, garbage frames, lying DID documents, and forged
  handle answers; the always-on :class:`IntegrityMonitor` quarantines
  what fails verification instead of letting it pollute the datasets;
* ``checkpoint_dir`` / ``resume`` / ``crash_plan`` — crash-safe
  journaling: progress (done actions, every collector's dataset, the
  firehose cursor, the crawl frontier) is checkpointed atomically, a
  :class:`CrashPlan` kills the study at seeded points, and a resumed
  run produces export artefacts byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.checkpoint import CheckpointJournal, StudyCheckpointer, state_guard
from repro.core.collect.active import ActiveMeasurementDataset, ActiveMeasurements
from repro.core.collect.diddocs import DidDocumentCollector, DidDocumentDataset
from repro.core.collect.feedgens import FeedGeneratorCollector, FeedGeneratorDataset
from repro.core.collect.firehose import FirehoseCollector, FirehoseDataset
from repro.core.collect.identifiers import ListReposCollector, UserIdentifierDataset
from repro.core.collect.labelers import LabelerCollector, LabelerDataset
from repro.core.collect.repos import RepositoriesCollector, RepositoriesDataset
from repro.core.integrity import IntegrityMonitor, IntegrityReport
from repro.identity.handles import HandleResolver
from repro.netsim.faults import (
    AdversarialPlan,
    Adversary,
    AdversaryStats,
    CrashPlan,
    FaultInjector,
    FaultPlan,
    FaultStats,
)
from repro.netsim.psl import default_psl
from repro.obs.profile import populate_final_metrics
from repro.obs.telemetry import Telemetry
from repro.simulation.clock import US_PER_DAY
from repro.simulation.config import (
    DIDDOC_SNAPSHOT_US,
    FEED_COLLECT_END_US,
    FEED_COLLECT_START_US,
    FIREHOSE_COLLECT_END_US,
    FIREHOSE_COLLECT_START_US,
    LABEL_SNAPSHOT_US,
    REPO_SNAPSHOT_US,
)
from repro.simulation.world import World


@dataclass
class StudyDatasets:
    """Everything the analyses consume."""

    identifiers: UserIdentifierDataset
    did_documents: DidDocumentDataset
    repositories: RepositoriesDataset
    firehose: FirehoseDataset
    feed_generators: FeedGeneratorDataset
    labels: LabelerDataset
    active: ActiveMeasurementDataset
    # What the fault injector actually did during the run (None when the
    # study ran fault-free).
    faults: Optional[FaultStats] = None
    # The integrity/quarantine ledger (always present: verification runs
    # on every collected item whether or not an adversary was configured).
    integrity: Optional[IntegrityReport] = None
    # What the adversary actually tampered with (None without a plan).
    adversary: Optional[AdversaryStats] = None
    # The study's telemetry (registry + tracer + phase profile); the
    # report and exporter read it back, None only for hand-built bundles.
    telemetry: Optional[Telemetry] = None


class MeasurementPipeline:
    """Wires the collectors to a world and executes the study.

    ``fault_plan`` (optional) turns on deterministic fault injection: the
    plan's injector is installed on the world's service directory so every
    XRPC call passes its gate, the firehose collector gets the plan's
    disconnect windows, and the non-XRPC probes (identity, DNS, WHOIS)
    draw from the same injector.

    ``adversarial_plan`` (optional) installs a Byzantine :class:`Adversary`
    behind the same directory; the always-on integrity monitor is what
    keeps its corruption out of the datasets.

    ``checkpoint_dir`` enables crash-safe journaling; with ``resume=True``
    a journal found there is restored and completed work is skipped.
    ``crash_plan`` (testing) kills the study at seeded progress ticks.
    """

    def __init__(
        self,
        world: World,
        fault_plan: Optional[FaultPlan] = None,
        adversarial_plan: Optional[AdversarialPlan] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        crash_plan: Optional[CrashPlan] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.world = world
        # Per-shard digest segment restored from a checkpoint, verified
        # against the re-simulated world after ``world.run`` (the
        # simulation replays from scratch on resume; the digests prove
        # the replay matches the run the journal was written by).
        self._expected_shard_segment: Optional[dict] = None
        if telemetry is None:
            telemetry = world.telemetry
        else:
            world.set_telemetry(telemetry)
        self.telemetry = telemetry
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        services = world.services
        if fault_plan is not None and not fault_plan.is_empty():
            self.fault_injector = FaultInjector(fault_plan)
            services.fault_injector = self.fault_injector

        self.adversary: Optional[Adversary] = None
        if adversarial_plan is not None and not adversarial_plan.is_empty():
            self.adversary = Adversary(adversarial_plan, host_of=self._host_of)
            services.adversary = self.adversary

        # Verification is not optional: every collector passes its data
        # through the monitor even when no adversary is configured, so a
        # clean run and a poisoned run differ only in what gets
        # quarantined, never in how clean data is handled.
        self.integrity = IntegrityMonitor(directory=services)

        journal = CheckpointJournal(checkpoint_dir) if checkpoint_dir else None
        self.checkpointer = StudyCheckpointer(
            journal=journal, crash_plan=crash_plan, telemetry=telemetry
        )
        self.checkpointer.bind(self._checkpoint_state)
        tick = self.checkpointer.tick

        self.identifier_collector = ListReposCollector(
            services,
            world.relay.url,
            integrity=self.integrity,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.diddoc_collector = DidDocumentCollector(
            world.resolver,
            injector=self.fault_injector,
            adversary=self.adversary,
            integrity=self.integrity,
            host_of=self._host_of,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.repo_collector = RepositoriesCollector(
            services,
            world.relay.url,
            resolver=world.resolver,
            integrity=self.integrity,
            host_of=self._host_of,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.firehose_collector = FirehoseCollector(
            start_us=FIREHOSE_COLLECT_START_US,
            services=services,
            relay_url=world.relay.url,
            fault_plan=fault_plan,
            adversary=self.adversary,
            integrity=self.integrity,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.labeler_collector = LabelerCollector(
            services,
            world.resolver,
            world.dns,
            integrity=self.integrity,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.feedgen_collector = FeedGeneratorCollector(
            services,
            world.appview.url,
            integrity=self.integrity,
            on_progress=tick,
            telemetry=telemetry,
        )
        self.active_measurements = ActiveMeasurements(
            HandleResolver(world.dns, world.web),
            world.whois,
            world.tranco,
            default_psl(),
            injector=self.fault_injector,
            adversary=self.adversary,
            integrity=self.integrity,
            resolve_did_doc=world.resolver.resolve,
            on_progress=tick,
            telemetry=telemetry,
        )
        if resume:
            state = self.checkpointer.restore()
            if state is not None:
                self._restore(state)
        self._schedule()

    def _host_of(self, did: str) -> str:
        """The URL of the PDS hosting ``did`` (quarantine attribution)."""
        pds = self.world.relay.hosting_pds(did)
        return pds.url if pds is not None else self.world.relay.url

    # -- checkpoint plumbing ----------------------------------------------------

    def _checkpoint_state(self) -> dict:
        fh = self.firehose_collector
        return {
            "seed": self.world.config.seed,
            "scale": self.world.config.scale,
            "identifiers": self.identifier_collector.dataset,
            "diddocs": self.diddoc_collector.dataset,
            "repos": self.repo_collector.dataset,
            "firehose": {
                "dataset": fh.dataset,
                "cursor": fh.cursor,
                "connected": fh._connected,
            },
            "labels": self.labeler_collector.dataset,
            "feeds": self.feedgen_collector.dataset,
            "active": self.active_measurements.dataset,
            "integrity": self.integrity.report,
            "integrity_members": self.integrity.members_state(),
            "adversary": self.adversary.stats if self.adversary else None,
            "faults": (
                self.fault_injector.state() if self.fault_injector else None
            ),
            "telemetry": self.telemetry.state(),
            # Per-shard checkpoint segment: the latest per-shard running
            # digests the engine has produced.  Enough to prove a resumed
            # re-simulation is byte-identical without journaling world
            # state itself.
            "sim_shards": self.world.config.sim_shards,
            "shards": self._shard_segment(),
        }

    def _shard_segment(self) -> Optional[dict]:
        log = self.world.shard_digest_log
        if not log:
            return None
        day_us = max(log)
        return {"day_us": day_us, "digests": log[day_us]}

    def _restore(self, state: dict) -> None:
        state_guard(state, "seed", self.world.config.seed)
        state_guard(state, "scale", self.world.config.scale)
        # Soft guard: checkpoints written before sharding landed carry no
        # shard keys and stay restorable (CHECKPOINT_VERSION unchanged).
        if "sim_shards" in state:
            state_guard(state, "sim_shards", self.world.config.sim_shards)
        self._expected_shard_segment = state.get("shards")
        self.identifier_collector.dataset = state["identifiers"]
        self.diddoc_collector.dataset = state["diddocs"]
        self.repo_collector.dataset = state["repos"]
        fh = state["firehose"]
        self.firehose_collector.dataset = fh["dataset"]
        self.firehose_collector.cursor = fh["cursor"]
        self.firehose_collector._connected = fh["connected"]
        self.labeler_collector.dataset = state["labels"]
        self.feedgen_collector.dataset = state["feeds"]
        self.active_measurements.dataset = state["active"]
        self.integrity.adopt_report(state["integrity"])
        self.integrity.adopt_members(state.get("integrity_members"))
        if self.adversary is not None and state.get("adversary") is not None:
            self.adversary.stats = state["adversary"]
        if self.fault_injector is not None and state.get("faults") is not None:
            self.fault_injector.adopt_state(state["faults"])
        self.telemetry.adopt(state.get("telemetry"))

    def _add_action(self, time_us: int, name: str, fn) -> None:
        """Schedule one journaled action: skip-if-done, save-on-complete."""
        action_id = "%s@%d" % (name, time_us)

        def wrapped(now_us: int) -> None:
            ckpt = self.checkpointer
            ckpt.tick(action_id)
            if ckpt.is_done(action_id):
                return
            # Saves are deferred so the journal only captures action
            # boundaries (datasets + telemetry consistent); the phase
            # profiler records nothing if the action crashes mid-way.
            # Read caches are flushed at the boundary so their hit/miss
            # counters cannot depend on which earlier actions were
            # replayed vs skipped after a crash/resume.
            with ckpt.deferred_saves(), self.telemetry.phase(name):
                self.world.flush_read_caches()
                self.telemetry.emit_event("cache.flush", fields={"phase": name})
                fn(now_us)
            ckpt.mark_done(action_id)
            ckpt.save()

        self.world.schedule(time_us, wrapped)

    def _post_step(self, name: str, fn) -> None:
        """One journaled post-simulation step (same contract as actions)."""
        ckpt = self.checkpointer
        ckpt.tick(name)
        if ckpt.is_done(name):
            return
        with ckpt.deferred_saves(), self.telemetry.phase(name):
            self.world.flush_read_caches()
            self.telemetry.emit_event("cache.flush", fields={"phase": name})
            fn()
        ckpt.mark_done(name)
        ckpt.save()

    # -- schedule ---------------------------------------------------------------

    def _schedule(self) -> None:
        world = self.world
        self.firehose_collector.attach(world)
        t = FIREHOSE_COLLECT_START_US
        while t < FIREHOSE_COLLECT_END_US:
            self._add_action(
                t, "identifiers", lambda now_us: self.identifier_collector.crawl(now_us)
            )
            t += 7 * US_PER_DAY
        self._add_action(DIDDOC_SNAPSHOT_US, "diddoc-snapshot", self._snapshot_did_documents)
        self._add_action(REPO_SNAPSHOT_US, "repo-snapshot", self._snapshot_repositories)
        t = FIREHOSE_COLLECT_START_US
        while t < LABEL_SNAPSHOT_US:
            self._add_action(
                t,
                "labelers",
                lambda now_us: self.labeler_collector.connect_and_backfill(now_us),
            )
            t += US_PER_DAY
        self._add_action(FEED_COLLECT_START_US, "feed-start", self._start_feed_collection)
        t = FEED_COLLECT_START_US + 1
        while t < FEED_COLLECT_END_US:
            self._add_action(t, "feed-sweep", self._feed_crawl_sweep)
            t += 14 * US_PER_DAY

    # -- scheduled actions ------------------------------------------------------

    def _snapshot_did_documents(self, now_us: int) -> None:
        dids = self.identifier_collector.dataset.all_dids()
        if not dids:
            # The DID snapshot depends on at least one identifier crawl.
            self.identifier_collector.crawl(now_us)
            dids = self.identifier_collector.dataset.all_dids()
        self.diddoc_collector.crawl(sorted(dids), now_us)

    def _snapshot_repositories(self, now_us: int) -> None:
        self.identifier_collector.crawl(now_us)
        dids = self.identifier_collector.dataset.all_dids()
        self.repo_collector.crawl(sorted(dids), now_us)
        # Repos reveal labeler accounts and feed generators for discovery.
        self.labeler_collector.discover(self.repo_collector.dataset.labeler_service_dids)
        self.feedgen_collector.discover(
            row.uri for row in self.repo_collector.dataset.feed_generators
        )

    def _start_feed_collection(self, now_us: int) -> None:
        self.feedgen_collector.discover(self.firehose_collector.dataset.feed_generator_records)
        self.feedgen_collector.fetch_metadata(now_us)

    def _feed_crawl_sweep(self, now_us: int) -> None:
        """Bi-weekly sweep: refresh discovery, then crawl posts."""
        self.feedgen_collector.discover(self.firehose_collector.dataset.feed_generator_records)
        self.feedgen_collector.crawl_feed_posts(now_us)

    # -- execution -----------------------------------------------------------------

    def run(self, progress=None) -> StudyDatasets:
        with self.telemetry.tracer.span("study", cat="study"):
            return self._run(progress)

    def _run(self, progress=None) -> StudyDatasets:
        # The world replays deterministically from scratch (fresh World
        # on resume), so the simulation phase is recounted, not
        # accumulated across the checkpoint.
        self.telemetry.reset_phase("simulation")
        with self.telemetry.phase("simulation"):
            self.world.run(progress=progress)
        self._verify_shard_segment()
        # Close out any firehose disconnect window still open at the end
        # of the collection period: no further live frame will trigger the
        # resume path, so catch up explicitly before reading the dataset.
        self._post_step(
            "post:backfill",
            lambda: self.firehose_collector.backfill(FIREHOSE_COLLECT_END_US),
        )
        # Final labeler discovery/backfill (as of 2024-05-01 in the paper;
        # the firehose may have surfaced labelers the repo snapshot missed).
        self._post_step("post:labeler-final", self._final_labeler_pull)
        # Active identity measurements over the DID-document handles.
        self._post_step("post:active-probes", self._probe_identity)
        self._post_step(
            "post:whois", lambda: self.active_measurements.scan_whois(now_us=LABEL_SNAPSHOT_US)
        )
        self._post_step(
            "post:tranco", lambda: self.active_measurements.cross_reference_tranco()
        )
        # Final journal write: a later resume of a completed study finds
        # every action and step marked done and just re-exports.
        self.checkpointer.save()
        return self.datasets()

    def _verify_shard_segment(self) -> None:
        """Check the resumed re-simulation against the journal's per-shard
        digest segment; a mismatch means the resumed run is NOT the run
        the checkpoint came from (changed code, seed drift, corruption)
        and its artefacts must not be stitched onto the journal's."""
        expected = self._expected_shard_segment
        if expected is None:
            return
        from repro.core.checkpoint import CheckpointError

        actual = self.world.shard_digest_log.get(expected["day_us"])
        if actual is None:
            raise CheckpointError(
                "resumed simulation never reached checkpointed day %d"
                % expected["day_us"]
            )
        if tuple(actual) != tuple(expected["digests"]):
            raise CheckpointError(
                "per-shard digests diverged on resume at day %d: "
                "the re-simulated world does not match the checkpointed run"
                % expected["day_us"]
            )

    def _final_labeler_pull(self) -> None:
        self.labeler_collector.discover(self.firehose_collector.dataset.labeler_service_dids)
        self.labeler_collector.connect_and_backfill(LABEL_SNAPSHOT_US)

    def _probe_identity(self) -> None:
        non_bsky = [
            handle
            for handle in self.diddoc_collector.dataset.handles()
            if not handle.endswith(".bsky.social")
        ]
        self.active_measurements.probe_handles(non_bsky, now_us=LABEL_SNAPSHOT_US)
        self.active_measurements.extract_registered_domains(non_bsky)

    def datasets(self) -> StudyDatasets:
        ds = StudyDatasets(
            identifiers=self.identifier_collector.dataset,
            did_documents=self.diddoc_collector.dataset,
            repositories=self.repo_collector.dataset,
            firehose=self.firehose_collector.dataset,
            feed_generators=self.feedgen_collector.dataset,
            labels=self.labeler_collector.dataset,
            active=self.active_measurements.dataset,
            faults=self.fault_injector.stats if self.fault_injector else None,
            integrity=self.integrity.report,
            adversary=self.adversary.stats if self.adversary else None,
            telemetry=self.telemetry,
        )
        populate_final_metrics(self.telemetry, ds)
        return ds


def run_study(
    config=None,
    progress=None,
    fault_plan: Optional[FaultPlan] = None,
    adversarial_plan: Optional[AdversarialPlan] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    crash_plan: Optional[CrashPlan] = None,
    telemetry: Optional[Telemetry] = None,
) -> tuple[World, StudyDatasets]:
    """Convenience: build a world, run the full pipeline, return both.

    With ``crash_plan`` the call may raise
    :class:`~repro.netsim.faults.StudyCrashed`; rerun with ``resume=True``
    (and the same ``checkpoint_dir``) to continue from the journal.
    """
    from repro.simulation.config import SimulationConfig

    if config is None:
        config = SimulationConfig.tiny()
    world = World(config)
    pipeline = MeasurementPipeline(
        world,
        fault_plan=fault_plan,
        adversarial_plan=adversarial_plan,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        crash_plan=crash_plan,
        telemetry=telemetry,
    )
    datasets = pipeline.run(progress=progress)
    return world, datasets
