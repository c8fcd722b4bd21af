"""The benchmark's three workloads, driven through ``repro``'s public API.

Every workload splits into *units*: one unit is one simulated world, built
from a seed derived from the run's ``--seed``.  A run measures several
units, so one heavy-tailed world (a few accounts write most commits) or
one slow spell of a shared host does not decide the run's figures.

* ``study``  — the full measurement study plus every rendered artefact:
  what ``python -m repro`` users wait for.  Mostly the commit write path.
* ``crawl``  — repeated cold crawls (listRepos, DID documents, repository
  CARs with digest, MST and signature checks) of a finished world.  The
  decode/verify direction of the same atproto modules; no commit work.
* ``serve``  — one closed-loop client against a finished world's AppView:
  timeline, feed and profile reads interleaved with new writes.

Everything runs in this one process on one thread (``workers=1``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from perfbench.tracer import untraced
from repro.atproto.events import CommitEvent
from repro.atproto.lexicon import LIKE, POST, REPOST
from repro.core import report
from repro.core.collect.active import ActiveMeasurementDataset
from repro.core.collect.diddocs import DidDocumentCollector, DidDocumentDataset
from repro.core.collect.feedgens import FeedGeneratorDataset
from repro.core.collect.firehose import FirehoseDataset
from repro.core.collect.identifiers import ListReposCollector, UserIdentifierDataset
from repro.core.collect.labelers import LabelerDataset
from repro.core.collect.repos import RepositoriesCollector, RepositoriesDataset
from repro.core.export import study_fingerprint
from repro.core.integrity import KIND_DIDDOC_PDS, KIND_HANDLE_BIDI, IntegrityMonitor
from repro.core.pipeline import MeasurementPipeline, StudyDatasets
from repro.obs.metrics import read_cache_counters
from repro.obs.telemetry import Telemetry
from repro.services.feedgen import PostFeatures, tokenize
from repro.simulation import vocab
from repro.simulation.clock import iso_timestamp
from repro.simulation.config import PAPER, SimulationConfig
from repro.simulation.world import World

clock = time.perf_counter

WORKLOADS = ("study", "crawl", "serve")

# Read caches whose hit ratio the traced run reports (registry labels).
CACHES = ("repo_car", "post_view", "timeline_index", "feed_skeleton")

# -- sizes ----------------------------------------------------------------------
#
# ``--seconds`` fixes the amount of work, never a deadline: two commits run
# with the same arguments do exactly the same work, so their figures compare
# at an equal event count.  The constants below were calibrated on a 2-core
# host so that a run measures for about ``--seconds`` seconds there.

STUDY_SECONDS_PER_WORLD = 2.0
CRAWL_WORLDS = 3
CRAWL_SECONDS_PER_PASS = 0.75
SERVE_WORLDS = 3
SERVE_REQUESTS_PER_SECOND = 6000

# serve traffic: a fixed cycle of five requests, four reads to one write;
# reads split getTimeline:getFeed:getProfile = 2:1:1.  No source gives
# Bluesky's request mix, so both ratios are assumptions; README.md says
# why these were chosen.
SERVE_CYCLE = ("timeline", "feed", "timeline", "profile", "write")
# Writes follow the paper's Section 4 daily mix, posts:likes:reposts.
WRITE_MIX = (
    (POST, PAPER["daily_posts"]),
    (LIKE, PAPER["daily_likes"]),
    (REPOST, PAPER["daily_reposts"]),
)
# Quarantine kinds a fault-free study can produce from time skew alone.
TIME_SKEW_KINDS = frozenset({KIND_HANDLE_BIDI, KIND_DIDDOC_PDS})
TIMELINE_LIMIT = 50
FEED_LIMIT = 30


def study_config(seed: int) -> SimulationConfig:
    """The ``tiny`` preset the test suite and ``repro bench`` use."""
    return SimulationConfig.tiny(seed)


def world_config(seed: int) -> SimulationConfig:
    """A finished world for ``crawl``/``serve``: ~280 repositories, above
    the relay's 256-entry CAR cache, at a quarter of the paper's activity."""
    return SimulationConfig(
        seed=seed, scale=1 / 25_000, feed_scale=1 / 1200, activity_scale=0.25
    )


def unit_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + index for index in range(count)]


# -- shared plumbing --------------------------------------------------------------


class FirehoseObserver:
    """The harness's one firehose subscriber.

    While the program runs it only keeps each delivered event (one list
    append), so a measured window encodes a wire frame only where the
    program itself does.  :meth:`settle`, called between measured windows,
    hashes the kept events' wire frames in order — the digest
    :func:`repro.core.export.firehose_frame_observer` computes — and counts
    events, commits and frame bytes.
    """

    def __init__(self, world: World):
        self.pending: list = []
        self.hasher = hashlib.sha256()
        self.events = 0
        self.commits = 0
        self.frame_bytes = 0
        world.relay.firehose.subscribe(self.pending.append)

    def settle(self) -> None:
        with untraced():
            for event in self.pending:
                frame = event.wire_frame()
                self.hasher.update(frame)
                self.events += 1
                self.commits += isinstance(event, CommitEvent)
                self.frame_bytes += len(frame)
        self.pending.clear()

    def digest(self) -> str:
        self.settle()
        return self.hasher.hexdigest()


def cache_counts(world: World) -> dict[str, tuple[int, int]]:
    hits, misses = read_cache_counters(world.telemetry.registry)
    return {name: (hits.get((name,)), misses.get((name,))) for name in CACHES}


def cache_delta(before: dict, after: dict) -> dict[str, tuple[int, int]]:
    return {
        name: (after[name][0] - before[name][0], after[name][1] - before[name][1])
        for name in CACHES
    }


def empty_datasets(telemetry, **datasets) -> StudyDatasets:
    """A :class:`StudyDatasets` holding only what a workload collected."""
    fields = {
        "identifiers": UserIdentifierDataset(),
        "did_documents": DidDocumentDataset(),
        "repositories": RepositoriesDataset(),
        "firehose": FirehoseDataset(),
        "feed_generators": FeedGeneratorDataset(),
        "labels": LabelerDataset(),
        "active": ActiveMeasurementDataset(),
    }
    fields.update(datasets)
    return StudyDatasets(telemetry=telemetry, **fields)


def digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
    return hasher.hexdigest()


@dataclass
class Unit:
    """One world's measurement."""

    key: str  # identifies equal work across runs: same key, same fingerprint
    setup_s: float
    wall_s: float = 0.0
    elapsed_s: float = 0.0  # the measured phase as it ran (crawl's wall_s is a median)
    cpu_s: float = 0.0
    ops: int = 0  # the workload's unit of work: events, repos, requests
    throughput_wall_s: float = 0.0  # the wall time ``ops`` is divided by
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    events: int = 0
    commits: int = 0
    frame_bytes: int = 0
    caches: dict = field(default_factory=dict)
    read_us: list = field(default_factory=list)
    write_us: list = field(default_factory=list)

    def observed(self, observer: FirehoseObserver) -> None:
        observer.settle()
        self.events, self.commits = observer.events, observer.commits
        self.frame_bytes = observer.frame_bytes


# -- study --------------------------------------------------------------------------


def study_unit(seed: int) -> Unit:
    gc.collect()  # free the previous unit's world before timing starts
    start = clock()
    world = World(study_config(seed))
    unit = Unit(key="study/%d" % seed, setup_s=clock() - start)
    observer = FirehoseObserver(world)
    sim_wall = _time_method(world, "run")
    pipeline = MeasurementPipeline(world)
    before = cache_counts(world)
    unit.attempted = 1
    cpu0, wall0 = time.process_time(), clock()
    try:
        datasets = pipeline.run()
        text = report.full_report(datasets)
    except Exception as exc:  # a study that raises is a failed operation
        unit.wall_s = unit.elapsed_s = clock() - wall0
        unit.failed = 1
        unit.fingerprint = "raised %s" % type(exc).__name__
        return unit
    unit.wall_s = unit.elapsed_s = clock() - wall0
    unit.cpu_s = time.process_time() - cpu0
    unit.caches = cache_delta(before, cache_counts(world))
    unit.observed(observer)
    unit.ops, unit.throughput_wall_s = unit.events, sim_wall[0]
    with untraced():
        unit.fingerprint = study_fingerprint(datasets, observer.digest)
    # A fault-free study renders every artefact and quarantines no
    # self-certifying data.  Handle and DID-document cross-checks compare
    # snapshots taken days apart, so handle churn in between may
    # legitimately quarantine an identity; those kinds do not count.
    quarantined = datasets.integrity.by_kind()
    corrupt = sum(n for kind, n in quarantined.items() if kind not in TIME_SKEW_KINDS)
    if corrupt or "Table 1" not in text:
        unit.failed = 1
    return unit


def _time_method(obj, name: str) -> list:
    """Time every call of ``obj.<name>`` on this instance only; the total
    accumulates in the returned one-element list."""
    method = getattr(obj, name)
    total = [0.0]

    def timed(*args, **kwargs):
        start = clock()
        try:
            return method(*args, **kwargs)
        finally:
            total[0] += clock() - start

    setattr(obj, name, timed)
    return total


# -- crawl -----------------------------------------------------------------------------


@dataclass
class FinishedWorld:
    world: World
    observer: FirehoseObserver
    setup_s: float


def build_finished_world(seed: int) -> FinishedWorld:
    """Simulate a world to the end of its timeline (the crawl/serve set-up).
    Its wire frames are hashed after set-up is timed."""
    gc.collect()  # free the previous unit's world before timing starts
    start = clock()
    world = World(world_config(seed))
    observer = FirehoseObserver(world)
    world.run()
    setup_s = clock() - start
    observer.settle()
    return FinishedWorld(world, observer, setup_s)


@dataclass
class CrawlPass:
    wall_s: float
    cpu_s: float
    dids: list  # the repositories fetched, in crawl order
    failed: int
    fingerprint: str


def crawl_pass(finished: FinishedWorld) -> CrawlPass:
    """One cold crawl: fresh telemetry, flushed caches, fresh collectors."""
    world = finished.world
    telemetry = Telemetry()
    world.set_telemetry(telemetry)
    world.flush_read_caches()
    services, relay = world.services, world.relay
    now_us = world.config.end_us
    integrity = IntegrityMonitor(directory=services)

    def host_of(did: str) -> str:
        pds = relay.hosting_pds(did)
        return pds.url if pds is not None else relay.url

    cpu0, wall0 = time.process_time(), clock()
    identifiers = ListReposCollector(
        services, relay.url, integrity=integrity, telemetry=telemetry
    )
    dids = sorted(identifiers.crawl(now_us).repos)
    documents = DidDocumentCollector(
        world.resolver, integrity=integrity, host_of=host_of, telemetry=telemetry
    )
    docs = documents.crawl(dids, now_us)
    repositories = RepositoriesCollector(
        services,
        relay.url,
        resolver=world.resolver,
        integrity=integrity,
        host_of=host_of,
        telemetry=telemetry,
    )
    repos = repositories.crawl(dids, now_us)
    wall = clock() - wall0
    cpu = time.process_time() - cpu0
    failed = (
        len(repos.failed_dids)
        + integrity.report.total_quarantined()
        + len(docs.failed)
        + len(docs.quarantined)
        + (repos.repo_count - repos.verified_signatures)
    )
    with untraced():
        output = (
            sorted(identifiers.dataset.latest().repos.items()),
            sorted((did, row.handle, row.pds_endpoint) for did, row in docs.documents.items()),
            sorted(repos.records_per_repo.items()),
            repos.operation_totals(),
            repos.verified_signatures,
        )
        datasets = empty_datasets(
            telemetry, identifiers=identifiers.dataset, did_documents=docs, repositories=repos
        )
        fingerprint = digest(study_fingerprint(datasets, finished.observer.digest), output)
    return CrawlPass(wall, cpu, dids, failed, fingerprint)


def crawl_unit(seed: int, passes: int) -> Unit:
    finished = build_finished_world(seed)
    unit = Unit(key="crawl/%d" % seed, setup_s=finished.setup_s)
    unit.observed(finished.observer)
    fingerprints = set()
    caches = {name: (0, 0) for name in CACHES}
    walls, cpus = [], []
    gc.collect()
    for _ in range(passes):
        result = crawl_pass(finished)
        walls.append(result.wall_s)
        cpus.append(result.cpu_s)
        unit.attempted += len(result.dids)
        unit.failed += result.failed
        fingerprints.add(result.fingerprint)
        # Each pass counts into its own fresh registry.
        counts = cache_counts(finished.world)
        caches = {name: tuple(map(sum, zip(caches[name], counts[name]))) for name in CACHES}
    unit.caches = caches
    # Every pass does identical work, so the median pass stands for all of
    # them: a pass slowed by a busy host moves the median far less than
    # the sum.
    unit.wall_s = statistics.median(walls) * passes
    unit.elapsed_s = sum(walls)
    unit.cpu_s = statistics.median(cpus) * passes
    unit.ops, unit.throughput_wall_s = unit.attempted, unit.wall_s
    # Cold passes over an unchanged world must agree with each other.
    if len(fingerprints) != 1:
        unit.failed = unit.attempted
    unit.fingerprint = min(fingerprints)
    return unit


# -- serve ---------------------------------------------------------------------------------


def serve_requests(world: World, seed: int, count: int) -> tuple[list[tuple], list]:
    """The request list, drawn from ``seed`` before any timing starts.

    Reads name existing accounts and announced, hosted feeds; writes are
    (collection, author index, record) with records fully formed here, so
    the timed loop does only what a client request makes the server do.
    """
    rng = random.Random(seed ^ 0x5E12E)
    users = [user for user in world.users if user.joined and not user.tombstoned]
    dids = [user.did for user in users]
    feeds = [
        runtime.uri
        for runtime in world.feeds
        if runtime.announced
        and runtime.feed_obj is not None
        and runtime.uri in world.appview.index.feed_generators
        and world.services.is_reachable(runtime.endpoint)
    ]
    # Like/repost subjects: every live post, with its record CID.
    by_did = world.user_by_did()
    subjects = []
    for uri in sorted(world.appview.index.posts):
        did, _, path = uri[len("at://") :].partition("/")
        collection, _, rkey = path.partition("/")
        user = by_did.get(did)
        if user is None or user.tombstoned:
            continue
        cid = user.pds.repo(did).get_record_cid(collection, rkey)
        if cid is not None:
            subjects.append({"uri": uri, "cid": str(cid)})
    collections = [collection for collection, _ in WRITE_MIX]
    weights = [weight for _, weight in WRITE_MIX]
    now_us = world.config.end_us
    requests = []
    for index in range(count):
        kind = SERVE_CYCLE[index % len(SERVE_CYCLE)]
        now_us += 1_000_000
        if kind == "timeline" or kind == "profile":
            requests.append((kind, dids[rng.randrange(len(dids))], now_us))
        elif kind == "feed":
            requests.append((kind, feeds[rng.randrange(len(feeds))], now_us))
        else:
            collection = rng.choices(collections, weights)[0]
            author = rng.randrange(len(users))
            created_at = iso_timestamp(now_us)
            if collection == POST:
                lang = users[author].spec.lang
                record = {
                    "$type": POST,
                    "text": vocab.make_post_text(rng, lang),
                    "createdAt": created_at,
                    "langs": [lang],
                }
            else:
                subject = subjects[rng.randrange(len(subjects))]
                record = {"$type": collection, "subject": dict(subject), "createdAt": created_at}
            requests.append((kind, (collection, author, record), now_us))
    return requests, users


def serve_request(world: World, users: list, kind: str, target, now_us: int):
    """Issue one request the way a client and the write path would."""
    if kind == "timeline":
        return world.services.call(
            world.appview.url, "app.bsky.feed.getTimeline", actor=target, limit=TIMELINE_LIMIT
        )
    if kind == "feed":
        return world.services.call(
            world.appview.url, "app.bsky.feed.getFeed", feed=target, limit=FEED_LIMIT, now_us=now_us
        )
    if kind == "profile":
        return world.services.call(world.appview.url, "app.bsky.actor.getProfile", actor=target)
    # A write: commit on the PDS, publish through the relay (which feeds
    # the AppView), and route a post into the curated feeds, as the
    # simulation engine does for every post it writes.
    collection, author, record = target
    user = users[author]
    meta = user.pds.create_record(user.did, collection, record, now_us)
    world.relay.publish_commit(user.pds, user.did, meta)
    if collection == POST:
        world.feed_router.route(
            PostFeatures(
                uri="at://%s/%s" % (user.did, meta.ops[0][1]),
                author=user.did,
                time_us=now_us,
                text=record["text"],
                langs=tuple(record["langs"]),
                tokens=frozenset(tokenize(record["text"])),
            )
        )
    return meta.rev, str(meta.commit_cid)


def response_summary(response):
    """What a response is checked by: each served post's URI and counts
    (hashing whole hydrated pages costs as much as serving them)."""
    if isinstance(response, dict) and "feed" in response:
        return [
            (item["post"]["uri"], item["post"]["likeCount"], item["post"]["repostCount"])
            for item in response["feed"]
        ]
    return response


def serve_unit(seed: int, count: int) -> Unit:
    """Closed loop, one request outstanding.  Wall and CPU time are the sums
    over requests, each timed from issue to response, so the harness's own
    work between requests (hashing responses) is not counted.  The writes'
    wire frames are hashed after the whole request list."""
    finished = build_finished_world(seed)
    world = finished.world
    with untraced():
        requests, users = serve_requests(world, seed, count)
    unit = Unit(key="serve/%d/%d" % (seed, count), setup_s=finished.setup_s)
    before = cache_counts(world)
    responses = hashlib.sha256()
    gc.collect()
    for kind, target, now_us in requests:
        cpu0 = time.process_time()
        issued = clock()
        try:
            response = serve_request(world, users, kind, target, now_us)
        except Exception as exc:  # any exception fails the request
            unit.failed += 1
            response = "error %s" % type(exc).__name__
        elapsed = clock() - issued
        unit.cpu_s += time.process_time() - cpu0
        unit.wall_s += elapsed
        (unit.write_us if kind == "write" else unit.read_us).append(elapsed * 1e6)
        responses.update(repr(response_summary(response)).encode())
    unit.elapsed_s = unit.wall_s
    unit.caches = cache_delta(before, cache_counts(world))
    unit.attempted = len(requests)
    unit.ops, unit.throughput_wall_s = len(requests), unit.wall_s
    unit.observed(finished.observer)
    with untraced():
        unit.fingerprint = digest(
            study_fingerprint(empty_datasets(world.telemetry), finished.observer.digest),
            responses.hexdigest(),
        )
    return unit


# -- runs -----------------------------------------------------------------------------------


def plan(workload: str, seed: int, seconds: int) -> list[Callable[[], Unit]]:
    """The run's units, as zero-argument callables (one world each)."""
    if workload == "study":
        # Each world is studied twice, the second round after all the
        # others, and :func:`summarize` keeps the faster of the two: on a
        # shared host the speed swings over seconds, and a study that met
        # a slow spell is measured again in a different one.
        worlds = max(1, round(seconds / STUDY_SECONDS_PER_WORLD) // 2)
        seeds = unit_seeds(seed, worlds)
        return [lambda s=s: study_unit(s) for s in seeds + seeds]
    if workload == "crawl":
        passes = max(1, round(seconds / CRAWL_WORLDS / CRAWL_SECONDS_PER_PASS))
        return [lambda s=s: crawl_unit(s, passes) for s in unit_seeds(seed, CRAWL_WORLDS)]
    if workload == "serve":
        count = max(len(SERVE_CYCLE), seconds * SERVE_REQUESTS_PER_SECOND // SERVE_WORLDS)
        return [lambda s=s: serve_unit(s, count) for s in unit_seeds(seed, SERVE_WORLDS)]
    raise ValueError("unknown workload %r" % workload)


@dataclass
class RunResult:
    units: list
    metrics: dict  # name -> value (end-to-end, tracing off)
    attempted: int
    failed: int


def summarize(units: list[Unit]) -> RunResult:
    """End-to-end metrics.  A unit measured twice counts at its faster
    correct run: a study that raised early is short, but its figures
    describe an aborted run, so a failed run counts only if both failed."""
    kept: dict[str, Unit] = {}
    for unit in units:
        best = kept.get(unit.key)
        if best is None or (unit.failed > 0, unit.wall_s) < (best.failed > 0, best.wall_s):
            kept[unit.key] = unit
    fastest = list(kept.values())
    throughput_wall = sum(unit.throughput_wall_s for unit in fastest)
    metrics = {
        "setup_s": statistics.median(unit.setup_s for unit in units),
        "wall_s": sum(unit.wall_s for unit in fastest),
        "cpu_s": sum(unit.cpu_s for unit in fastest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": sum(unit.ops for unit in fastest) / throughput_wall
        if throughput_wall > 0
        else 0.0,
    }
    return RunResult(
        units=units,
        metrics=metrics,
        attempted=sum(unit.attempted for unit in units),
        failed=sum(unit.failed for unit in units),
    )


def workload_metrics(workload: str, result: RunResult) -> dict:
    """The per-workload throughput, latency and error figures of an
    untraced run; zero on workloads without such operations."""
    units = result.units
    reads = [us for unit in units for us in unit.read_us]
    writes = [us for unit in units for us in unit.write_us]
    ops_per_s = result.metrics["ops_per_s"]
    return {
        "events_per_s": ops_per_s if workload == "study" else 0.0,
        "repos_per_s": ops_per_s if workload == "crawl" else 0.0,
        "reads_per_s": len(reads) / result.metrics["wall_s"] if reads else 0.0,
        "read_p50_us": percentile(reads, 50),
        "read_p99_us": percentile(reads, 99),
        "write_p50_us": percentile(writes, 50),
        "error_rate": result.failed / result.attempted if result.attempted else 0.0,
    }


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# -- fingerprint ledger ---------------------------------------------------------------------


def program_hash(*roots: Path) -> str:
    """sha256 over every ``*.py`` file under ``roots``, path and bytes:
    the program a fingerprint belongs to."""
    hasher = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            hasher.update(path.relative_to(root.parent).as_posix().encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


class FingerprintLedger:
    """Fingerprints of earlier runs of the same program in this checkout.

    An entry is keyed by the program (:func:`program_hash` of the code
    under test and of the benchmark) and the unit (seed and size), so only
    runs of identical code on identical inputs are compared: a commit whose
    output legitimately differs starts entries of its own.  A fingerprint
    that differs from the one recorded first under its key fails the unit:
    the same program gave different output for the same inputs.  Failed
    units record nothing.
    """

    def __init__(self, path: Path, program: str):
        self.path = path
        self.program = program
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def entry(self, unit_key: str) -> str:
        return "%s/%s" % (self.program[:16], unit_key)

    def check(self, unit: Unit) -> Optional[str]:
        """The fingerprint recorded earlier, if ``unit``'s differs from it."""
        if unit.failed:
            return None
        expected = self.known.setdefault(self.entry(unit.key), unit.fingerprint)
        return expected if expected != unit.fingerprint else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp.%d" % os.getpid())
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
