"""Profiling helpers: finalize-time gauges and report table rows.

Two halves:

* :func:`populate_final_metrics` runs once when the pipeline assembles
  its datasets.  It derives gauges (idempotent ``set``, safe to repeat)
  from dataset fields the collectors already maintain — retry counts,
  item totals, quarantine tallies, fault-injection stats — so
  ``metrics.json`` is a complete picture without double-counting risk.
* The ``*_rows`` builders read a registry back into the host / NSID /
  outcome tables of the telemetry report section.
"""

from __future__ import annotations

#: Outcome label of a successful dispatch; everything else is an error.
OUTCOME_OK = "ok"


def populate_final_metrics(telemetry, datasets) -> None:
    """Derive finalize-time gauges from the assembled study datasets."""
    registry = telemetry.registry
    retries = registry.gauge("collector_retries", ("collector",))
    items = registry.gauge("collector_items", ("collector", "kind"))

    identifiers = datasets.identifiers
    retries.set(("identifiers",), identifiers.page_retries)
    items.set(("identifiers", "snapshots"), len(identifiers.snapshots))
    items.set(("identifiers", "dids"), len(identifiers.all_dids()))
    items.set(("identifiers", "aborted_crawls"), identifiers.aborted_crawls)

    diddocs = datasets.did_documents
    retries.set(("diddocs",), diddocs.transient_retries)
    items.set(("diddocs", "documents"), len(diddocs.documents))
    items.set(("diddocs", "failed"), len(diddocs.failed))
    items.set(("diddocs", "quarantined"), len(diddocs.quarantined))
    items.set(("diddocs", "unresolved_transient"), diddocs.unresolved_transient)

    repos = datasets.repositories
    retries.set(("repos",), repos.transient_retries)
    items.set(("repos", "repos"), repos.repo_count)
    items.set(("repos", "failed"), len(repos.failed_dids))
    items.set(("repos", "requests_attempted"), repos.requests_attempted)
    items.set(("repos", "requeued_dids"), repos.requeued_dids)
    items.set(("repos", "retry_rounds"), repos.retry_rounds)
    registry.gauge("repo_crawl_duration_us").set((), repos.crawl_duration_us)

    labels = datasets.labels
    retries.set(("labelers",), labels.transient_retries)
    items.set(("labelers", "announced"), labels.announced_count())
    items.set(("labelers", "functional"), labels.functional_count())
    items.set(("labelers", "labels"), len(labels.labels))
    items.set(("labelers", "signature_failures"), labels.signature_failures)

    feeds = datasets.feed_generators
    retries.set(("feedgens",), feeds.transient_retries)
    items.set(("feedgens", "discovered"), len(feeds.discovered))
    items.set(("feedgens", "with_metadata"), len(feeds.metadata))
    items.set(("feedgens", "getfeed_failures"), len(feeds.getfeed_failures))

    active = datasets.active
    retries.set(("active",), active.transient_retries)
    items.set(("active", "handle_probes"), len(active.handle_probes))
    items.set(("active", "whois_rows"), len(active.whois_rows))
    items.set(("active", "probes_exhausted"), active.probes_exhausted)

    firehose = datasets.firehose
    firehose_gauge = registry.gauge("firehose_resilience", ("kind",))
    firehose_gauge.set(("disconnects",), firehose.disconnects)
    firehose_gauge.set(("reconnects",), firehose.reconnects)
    firehose_gauge.set(("replayed_events",), firehose.replayed_events)
    firehose_gauge.set(("gaps",), len(firehose.gaps))
    firehose_gauge.set(("dropped_events",), firehose.dropped_events)

    integrity = datasets.integrity
    if integrity is not None:
        quarantine = registry.gauge("quarantined_items", ("host", "kind"))
        for (host, kind), count in sorted(integrity.counts.items()):
            quarantine.set((str(host), kind), count)

    faults = datasets.faults
    if faults is not None:
        injected = registry.gauge("faults_injected", ("kind",))
        for kind, count in sorted(faults.injected_by_kind.items()):
            injected.set((kind,), count)
        registry.gauge("fault_calls_seen").set((), faults.calls_seen)
        registry.gauge("fault_injected_latency_us").set((), faults.injected_latency_us)


# -- report tables -------------------------------------------------------------


def host_rows(registry, top_n: int = 10) -> list[tuple]:
    """Top-N hosts by call volume: (host, calls, errors)."""
    calls = registry.family("xrpc_calls_total")
    return ranked_call_rows(calls.items(), 0, top_n) if calls is not None else []


def nsid_rows(registry, top_n: int = 10) -> list[tuple]:
    """Top-N XRPC methods (NSIDs) by call volume: (nsid, calls, errors)."""
    calls = registry.family("xrpc_calls_total")
    return ranked_call_rows(calls.items(), 1, top_n) if calls is not None else []


def ranked_call_rows(items, index: int, top_n: int) -> list[tuple]:
    """Sum ``xrpc_calls_total`` series over one label, busiest first.

    ``items`` are ``((host, method, outcome), count)`` pairs; rows are
    ``(label value, calls, errors)``.
    """
    totals: dict[str, list] = {}
    for labels, count in items:
        row = totals.setdefault(labels[index], [0, 0])
        row[0] += count
        if labels[2] != OUTCOME_OK:
            row[1] += count
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1][0], kv[0]))[:top_n]
    return [(value, total, errors) for value, (total, errors) in ranked]


def outcome_rows(registry) -> list[tuple]:
    """Call outcomes sorted by volume: (outcome, calls)."""
    calls = registry.family("xrpc_calls_total")
    if calls is None:
        return []
    by_outcome = calls.sum_by(2)
    return sorted(by_outcome.items(), key=lambda kv: (-kv[1], kv[0]))
