"""Performance harness: micro-benches and the read-path gate (``make bench``).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf

Times the hot loop of the study (record encoding, CID computation, MST
insertion, signed commits, weighted sampling), the AppView read path
cached against :class:`tests.services.oracles.ReferenceReads`, and the
cost of rendering the observability artefacts.  Writes the results to
``BENCH_perf.json`` next to the numbers measured at the pre-optimization
baseline commit, so the speedup of the fast path is always visible;
``scripts/check_bench.py`` gates the file.  End-to-end study throughput
at equal work is perfbench's ``study`` workload, not this harness.

The microbenches use best-of-N wall timing (min over repeats) rather than
means: minimum time is the least noisy estimator of the true cost on a
machine with background load.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from typing import Callable

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PERF_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")

# Measured at the seed commit (before the fast path: per-call cbor
# re-encoding, unmemoized MST layers, triple commit encoding, eager frame
# encoding, O(n) rng.choices rebuilds) on the same container class that
# runs the suite.  Kept here so every re-run of the harness reports the
# speedup against the same reference point; ``scripts/check_bench.py``
# uses the five micro-bench rows as floors.
BASELINE = {
    "cbor_encode_ops_per_s": 52673.45434357205,
    "cid_for_cbor_ops_per_s": 41816.74058901543,
    "mst_insert_with_root_cid_ops_per_s": 2935.206928749629,
    "repo_create_record_ops_per_s": 1730.1130090527527,
    "weighted_sample_ops_per_s": 59124.93791140566,
    # Read-path reference: the uncached scan paths (seed-commit read
    # semantics, caches off) measured by bench_read_path on the same
    # container class.  The cached columns in BENCH_perf.json read
    # against these, so the index/cache win is always visible.
    "timeline_ops_per_s": 2085.0,
    "getfeed_ops_per_s": 4658.0,
    "search_ops_per_s": 4773.0,
}

# A representative post record (matches what the engine writes).
SAMPLE_RECORD = {
    "$type": "app.bsky.feed.post",
    "text": "lorem ipsum dolor sit amet consectetur adipiscing elit sed do",
    "createdAt": "2024-03-06T12:00:00.000Z",
    "langs": ["en"],
    "embed": {"images": [{"alt": "description of the image"}]},
}


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_cbor(n: int = 20000, repeats: int = 5) -> dict:
    from repro.atproto.cbor import cbor_encode
    from repro.atproto.cid import cid_for_cbor

    record = dict(SAMPLE_RECORD)
    return {
        "cbor_encode_ops_per_s": n / best_of(
            lambda: [cbor_encode(record) for _ in range(n)], repeats
        ),
        "cid_for_cbor_ops_per_s": n / best_of(
            lambda: [cid_for_cbor(record) for _ in range(n)], repeats
        ),
    }


def bench_mst(n: int = 2000, repeats: int = 3) -> dict:
    from repro.atproto.cid import Cid
    from repro.atproto.mst import Mst

    cids = [Cid(1, 0x71, hashlib.sha256(b"%d" % i).digest()) for i in range(n)]
    keys = ["app.bsky.feed.post/3k%08d" % i for i in range(n)]

    def run():
        tree = Mst()
        for key, cid in zip(keys, cids):
            tree.set(key, cid)
            tree.root_cid()  # per-commit root recomputation, as the repo does

    return {"mst_insert_with_root_cid_ops_per_s": n / best_of(run, repeats)}


def bench_commit(n: int = 2000, repeats: int = 3) -> dict:
    from repro.atproto.keys import make_keypair
    from repro.atproto.repo import Repo

    record = dict(SAMPLE_RECORD)

    def run():
        repo = Repo("did:plc:bench", make_keypair(b"bench"))
        for i in range(n):
            repo.create_record("app.bsky.feed.post", dict(record), i * 1000 + 1)

    return {"repo_create_record_ops_per_s": n / best_of(run, repeats)}


def bench_sampling(pool: int = 5000, rounds: int = 300, k: int = 10, repeats: int = 3) -> dict:
    from repro.simulation.sampling import CumulativeSampler

    population = list(range(pool))
    weights = [random.Random(7).random() + 0.01 for _ in population]
    sampler = CumulativeSampler(population, weights)
    rng = random.Random(42)

    def run():
        for _ in range(rounds):
            sampler.sample_k(rng, k)

    return {"weighted_sample_ops_per_s": rounds * k / best_of(run, repeats)}


def _build_read_appview(cached: bool):
    """An AppView + whole-network feed host over a synthetic population.

    Returns ``(reads, feed_uri, actor_dids, now_us, registry)``.  The same
    event stream feeds both builds: ``cached=True`` reads through the
    AppView itself (timeline index, hydrated-view caches, skeleton cache)
    and ``cached=False`` through :class:`ReferenceReads` over a feed that
    rebuilds its skeleton per call, so the two sides of every read
    microbenchmark answer byte-identical responses.
    """
    from repro.atproto.events import CommitEvent, CommitOp
    from repro.identity.plc import PlcDirectory
    from repro.identity.resolver import DidResolver
    from repro.netsim.web import WebHostRegistry
    from repro.services.appview import AppView
    from repro.services.feedgen import (
        CuratedFeed,
        FeedGeneratorHost,
        FeedRule,
        PostFeatures,
        tokenize,
    )
    from repro.services.labeler import Label
    from repro.services.xrpc import ServiceDirectory
    from tests.services.oracles import ReferenceReads

    n_users, follows_per_user, posts_per_user = 32, 12, 150

    services = ServiceDirectory()
    resolver = DidResolver(PlcDirectory(), WebHostRegistry())
    appview = AppView(
        "https://api.bsky.app",
        resolver,
        services,
        index_search=True,
        telemetry=services.telemetry,
    )
    services.register(appview.url, appview)

    class UncachedFeed(CuratedFeed):
        def _cache_token(self, viewer):
            return None  # force a full entries() rebuild per skeleton call

    host = FeedGeneratorHost(
        "did:web:feeds.bench.example",
        "https://feeds.bench.example",
        telemetry=services.telemetry,
    )
    services.register(host.endpoint, host)
    dids = ["did:plc:bench%04d" % index for index in range(n_users)]
    feed_uri = "at://%s/app.bsky.feed.generator/bench" % dids[0]
    feed_cls = CuratedFeed if cached else UncachedFeed
    feed = feed_cls(feed_uri, FeedRule(whole_network=True))
    host.add_feed(feed)

    seq = 0
    now_us = 1_700_000_000_000_000

    def emit(did, collection, rkey, record):
        nonlocal seq, now_us
        seq += 1
        now_us += 1_000
        op = CommitOp("create", "%s/%s" % (collection, rkey), None, record)
        appview.consume_event(CommitEvent(seq=seq, did=did, time_us=now_us, ops=(op,)))
        return now_us

    emit(
        dids[0],
        "app.bsky.feed.generator",
        "bench",
        {"did": host.service_did, "displayName": "bench", "createdAt": "2024-03-06"},
    )
    for index, did in enumerate(dids):
        for offset in range(1, follows_per_user + 1):
            emit(
                did,
                "app.bsky.graph.follow",
                "f%04d" % offset,
                {"subject": dids[(index + offset) % n_users]},
            )
    label_seq = 0
    for round_no in range(posts_per_user):
        for index, did in enumerate(dids):
            text = "post %d by user %d lorem ipsum dolor sit amet" % (round_no, index)
            if (round_no * n_users + index) % 16 == 0:
                text += " benchtoken"
            time_us = emit(
                did,
                "app.bsky.feed.post",
                "3k%03d%03d" % (round_no, index),
                {"text": text, "createdAt": "2024-03-06", "langs": ["en"]},
            )
            uri = "at://%s/app.bsky.feed.post/3k%03d%03d" % (did, round_no, index)
            feed.ingest(
                PostFeatures(
                    uri=uri,
                    author=did,
                    time_us=time_us,
                    text=text,
                    langs=("en",),
                    tokens=frozenset(tokenize(text)),
                )
            )
            # A few labels per post make hydration realistically label-
            # heavy (the cost the hydrated-view cache amortises).
            for val in ("spam", "rude", "nudity", "gore", "misleading", "graphic-media", "sexual", "intolerant"):
                label_seq += 1
                appview._ingest_label(
                    Label(
                        seq=label_seq,
                        src="did:plc:benchlabeler",
                        uri=uri,
                        val=val,
                        neg=False,
                        cts=time_us,
                    )
                )
    reads = appview if cached else ReferenceReads(appview)
    return reads, feed_uri, dids, now_us, services.telemetry.registry


def _read_loops(reads, feed_uri, dids, now_us, calls):
    """One side's timed read loops, as ``(metric name, loop)`` pairs."""

    def run_timeline():
        for index in range(calls):
            reads.xrpc_getTimeline(dids[index % len(dids)], limit=50)

    def run_getfeed():
        for _ in range(calls):
            reads.xrpc_getFeed(feed_uri, limit=50, now_us=now_us)

    def run_search():
        for _ in range(calls):
            reads.xrpc_searchPosts("benchtoken", limit=25)

    return (("timeline", run_timeline), ("getfeed", run_getfeed), ("search", run_search))


def bench_read_path(repeats: int = 3) -> dict:
    """Timeline / getFeed / searchPosts throughput, cached vs uncached.

    The ``*_ops_per_s`` metrics exercise the index-backed + cached read
    path; the ``*_uncached_ops_per_s`` twins run :class:`ReferenceReads`
    on an identically-populated AppView.  Repeats alternate between the
    two sides, so a slow stretch of the host hits both sides of a ratio
    alike; each metric is the best of ``repeats``.  ``read_cache_counters``
    records the deterministic hit/miss totals of the cached run (the CI
    guardrail asserts they are present and that cached ≥ 5x uncached).
    """
    from repro.obs.metrics import READ_CACHE_HITS, READ_CACHE_MISSES

    calls = 400
    sides = []
    for suffix, cached in (("", True), ("_uncached", False)):
        reads, feed_uri, dids, now_us, registry = _build_read_appview(cached)
        if cached:
            cached_registry = registry
        sides.append((suffix, _read_loops(reads, feed_uri, dids, now_us, calls)))
    walls: dict = {}
    for _ in range(repeats):
        for suffix, loops in sides:
            for name, run in loops:
                key = "%s%s_ops_per_s" % (name, suffix)
                t0 = time.perf_counter()
                run()
                elapsed = time.perf_counter() - t0
                walls[key] = min(walls.get(key, elapsed), elapsed)
    results: dict = {key: calls / wall for key, wall in walls.items()}
    results["read_cache_counters"] = {
        key: value
        for key, value in cached_registry.snapshot()["counters"].items()
        if key.startswith((READ_CACHE_HITS, READ_CACHE_MISSES))
    }
    return results


def bench_obs_export_overhead(repeats: int = 3) -> dict:
    """Cost of the observability export relative to the study (<5%).

    Runs the tiny pipeline once to get a populated registry + event log,
    then times the artefact rendering — OpenMetrics exposition and
    ``events.jsonl`` serialization — against the pipeline wall measured
    in the same process, so the ratio is robust to the absolute speed of
    the machine.  ``scripts/check_bench.py`` enforces the guardrail on
    ``obs_export_overhead_pct``.
    """
    from repro.core.pipeline import run_study
    from repro.simulation.config import SimulationConfig

    t0 = time.perf_counter()
    _, datasets = run_study(SimulationConfig.tiny())
    pipeline_wall = time.perf_counter() - t0
    telemetry = datasets.telemetry

    def export():
        telemetry.metrics_openmetrics()
        telemetry.events_jsonl()

    export_wall = best_of(export, repeats)
    return {
        "obs_export_wall_s": export_wall,
        "obs_export_pipeline_reference_wall_s": pipeline_wall,
        "obs_export_overhead_pct": round(export_wall / pipeline_wall * 100, 2),
    }


STAGES = (
    bench_cbor,
    bench_mst,
    bench_commit,
    bench_sampling,
    bench_read_path,
    bench_obs_export_overhead,
)


def write_bench_file(path: str, measured: dict) -> None:
    """Write the BENCH_perf.json document: baseline, measured, speedup."""
    document = {
        "generated_with": "python -m benchmarks.perf",
        "baseline": BASELINE,
        "optimized": measured,
        "speedup": {
            key: round(measured[key] / base, 3)
            for key, base in BASELINE.items()
            if key in measured
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def main() -> int:
    from benchmarks.render_comparison import render_perf

    measured: dict = {}
    for stage in STAGES:
        print("  running %s..." % stage.__name__)
        measured.update(stage())
    write_bench_file(BENCH_PERF_PATH, measured)
    print()
    print(render_perf(BENCH_PERF_PATH))
    print("wrote %s" % BENCH_PERF_PATH)
    print(
        "observability export overhead: %.2f%% (metrics.prom + "
        "events.jsonl render vs pipeline wall)" % measured["obs_export_overhead_pct"]
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
