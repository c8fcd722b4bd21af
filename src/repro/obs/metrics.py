"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

* **Hot-path cost.**  ``ServiceDirectory.call`` and the firehose ingest
  loop increment on every event; an increment is one tuple key and one
  dict store, no string formatting, no allocation beyond the key.
* **Determinism.**  ``snapshot_json()`` is byte-identical for two runs
  of the same seed: series are keyed and sorted by (family, labels),
  and every persisted value derives from virtual time or counted items,
  never from the wall clock.  Wall-clock families are declared
  ``volatile`` and stay out of the snapshot (they still feed the
  human-readable telemetry report).
* **Crash-safety.**  ``state()`` / ``adopt()`` round-trip the registry
  through the study checkpoint journal.  Because the pipeline journals
  at action boundaries, a resumed run's non-volatile series end up
  equal to an uninterrupted run's — the same contract the datasets
  already honour.  Volatile families are process-local and reset on
  adopt.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterable, Optional

#: Default histogram bounds for injected/virtual latencies, in µs:
#: log-spaced (~1-2.5-5 per decade) from sub-millisecond through the
#: minute-scale backoff ceiling and into the multi-minute tail.  The
#: tail buckets exist so p999 is *resolvable*: with the old coarse
#: bounds every tail quantile collapsed into the same bucket and
#: p99 == p999 by construction (see ``repro.obs.slo``).
LATENCY_BUCKETS_US = (
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    60_000_000,
    150_000_000,
    300_000_000,
    600_000_000,
)


def series_key(name: str, label_names: tuple, labels: tuple) -> str:
    if not label_names:
        return name
    inner = ",".join("%s=%s" % pair for pair in zip(label_names, labels))
    return "%s{%s}" % (name, inner)


class _Family:
    """Shared bookkeeping for one named series family."""

    kind = ""

    def __init__(self, name: str, label_names: Iterable[str] = (), volatile: bool = False):
        self.name = name
        self.label_names = tuple(label_names)
        self.volatile = volatile
        self._data: dict = {}

    def clear(self) -> None:
        self._data.clear()

    def items(self):
        return self._data.items()

    def get(self, labels: tuple = ()):
        return self._data.get(labels, 0)

    def _check_labels(self, labels: tuple) -> tuple:
        if len(labels) != len(self.label_names):
            raise ValueError(
                "%s takes %d labels %r, got %r"
                % (self.name, len(self.label_names), self.label_names, labels)
            )
        return labels


class CounterFamily(_Family):
    kind = "counter"

    def inc(self, labels: tuple = (), amount: int = 1) -> None:
        data = self._data
        data[labels] = data.get(labels, 0) + amount

    def total(self):
        return sum(self._data.values())

    def sum_by(self, index: int) -> dict:
        """Aggregate the family over one label position."""
        out: dict = {}
        for labels, value in self._data.items():
            key = labels[index]
            out[key] = out.get(key, 0) + value
        return out


class GaugeFamily(_Family):
    kind = "gauge"

    def set(self, labels: tuple = (), value=0) -> None:
        self._data[labels] = value

    def total(self):
        return sum(self._data.values())


class HistogramFamily(_Family):
    """Fixed upper-bound buckets; one extra overflow bucket.

    Per-series storage is ``[bucket_counts, sum, count, overflow_sum]``
    so an observe is a bisect plus in-place updates.  ``overflow_sum``
    tracks only the observations that landed past ``bounds[-1]``, so the
    overflow quantile estimate is the mean of the *overflow* population,
    not the mean of everything (the global mean is dragged down by the
    finite buckets and produced tail estimates below the last bound).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        label_names: Iterable[str] = (),
        bounds: tuple = LATENCY_BUCKETS_US,
        volatile: bool = False,
    ):
        super().__init__(name, label_names, volatile)
        self.bounds = tuple(bounds)

    def observe(self, labels: tuple = (), value=0) -> None:
        record = self._data.get(labels)
        if record is None:
            record = [[0] * (len(self.bounds) + 1), 0, 0, 0]
            self._data[labels] = record
        index = bisect_right(self.bounds, value)
        record[0][index] += 1
        record[1] += value
        record[2] += 1
        if index == len(self.bounds):
            record[3] += value

    def count(self, labels: tuple = ()) -> int:
        record = self._data.get(labels)
        return record[2] if record is not None else 0

    def sum(self, labels: tuple = ()):
        record = self._data.get(labels)
        return record[1] if record is not None else 0

    def percentile(self, labels: tuple, q: float):
        """Bucket-resolution quantile estimate; None without data.

        For a quantile landing in a finite bucket the estimate is that
        bucket's upper bound, so the error is bounded by the bucket
        width: the true quantile lies in ``(bounds[i-1], bounds[i]]``
        and the estimate never undershoots it.  For the overflow bucket
        the estimate is the mean of the overflow observations clamped to
        ``max(bounds[-1], overflow_mean)``.  Both halves are constant
        within a bucket and cumulative across buckets, so the estimate
        is monotone non-decreasing in ``q`` — the property the SLO
        report relies on (p50 <= p95 <= p99 <= p999).
        """
        record = self._data.get(labels)
        if record is None or record[2] == 0:
            return None
        return percentile_from_record(
            self.bounds, record[0], record[2], record[3], q
        )


def percentile_from_record(bounds, counts, count: int, overflow_sum, q: float):
    """Shared bucket-walk quantile estimate (see ``HistogramFamily.percentile``).

    Module-level so the SLO evaluator and the live dashboard can compute
    the same estimate from a *snapshot* dict (``le``/``counts``/``count``/
    ``overflow_sum``) without holding the family object.
    """
    if not count:
        return None
    target = q * count
    seen = 0
    last = len(bounds)
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= target and bucket_count:
            if index < last:
                return bounds[index]
            # Overflow bucket: the mean of the overflow population,
            # clamped so the tail estimate never dips below the last
            # finite bound (which the cumulative walk already crossed).
            return max(bounds[-1], int(overflow_sum) // max(1, counts[-1]))
    # q above 1.0 (or float slack at exactly 1.0): the max-ish estimate.
    if counts[-1]:
        return max(bounds[-1], int(overflow_sum) // max(1, counts[-1]))
    return bounds[-1]


class MetricsRegistry:
    """Named family store with idempotent creation and stable snapshots."""

    def __init__(self):
        self.families: dict[str, _Family] = {}

    # -- family creation (idempotent) ----------------------------------------

    def counter(self, name: str, label_names=(), volatile: bool = False) -> CounterFamily:
        return self._family(CounterFamily, name, label_names, volatile)

    def gauge(self, name: str, label_names=(), volatile: bool = False) -> GaugeFamily:
        return self._family(GaugeFamily, name, label_names, volatile)

    def histogram(
        self, name: str, label_names=(), bounds=LATENCY_BUCKETS_US, volatile: bool = False
    ) -> HistogramFamily:
        family = self.families.get(name)
        if family is None:
            family = HistogramFamily(name, label_names, bounds=bounds, volatile=volatile)
            self.families[name] = family
            return family
        self._check_existing(family, HistogramFamily, name, label_names)
        if family.bounds != tuple(bounds):
            raise ValueError("histogram %s re-declared with different bounds" % name)
        return family

    def _family(self, cls, name, label_names, volatile):
        family = self.families.get(name)
        if family is None:
            family = cls(name, label_names, volatile=volatile)
            self.families[name] = family
            return family
        self._check_existing(family, cls, name, label_names)
        return family

    @staticmethod
    def _check_existing(family, cls, name, label_names) -> None:
        if not isinstance(family, cls) or family.label_names != tuple(label_names):
            raise ValueError(
                "family %s already declared as %s%r"
                % (name, family.kind, family.label_names)
            )

    def family(self, name: str) -> Optional[_Family]:
        return self.families.get(name)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self, include_volatile: bool = False) -> dict:
        """A deterministic, JSON-ready view of every non-volatile series."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for name in sorted(self.families):
            family = self.families[name]
            if family.volatile and not include_volatile:
                continue
            if isinstance(family, HistogramFamily):
                for labels in sorted(family._data, key=_label_sort_key):
                    record = family._data[labels]
                    histograms[series_key(name, family.label_names, labels)] = {
                        "le": list(family.bounds) + ["+Inf"],
                        "counts": list(record[0]),
                        "sum": record[1],
                        "count": record[2],
                        "overflow_sum": record[3],
                    }
            else:
                target = counters if isinstance(family, CounterFamily) else gauges
                for labels in sorted(family._data, key=_label_sort_key):
                    target[series_key(name, family.label_names, labels)] = family._data[
                        labels
                    ]
        return {
            "schema": "repro-metrics-v1",
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def snapshot_json(self, include_volatile: bool = False) -> str:
        return (
            json.dumps(self.snapshot(include_volatile), indent=2, sort_keys=True) + "\n"
        )

    # -- OpenMetrics text exposition ------------------------------------------

    def render_openmetrics(self, include_volatile: bool = False) -> str:
        """The registry as OpenMetrics text (``metrics.prom``).

        Deterministic by the same construction as :meth:`snapshot`:
        families are visited in sorted name order, series in sorted
        label order, and volatile families stay out — so the rendering
        is byte-identical across fault seeds, hash seeds, and
        crash/resume chains.  Counters follow the spec's naming rule
        (the ``_total`` suffix belongs to the sample, not the family);
        histograms render cumulative ``_bucket`` series plus ``_sum``
        and ``_count``; the document ends with the mandatory ``# EOF``.
        """
        lines: list[str] = []
        for name in sorted(self.families):
            family = self.families[name]
            if (family.volatile and not include_volatile) or not family._data:
                continue
            if isinstance(family, HistogramFamily):
                lines.append("# TYPE %s histogram" % name)
                for labels in sorted(family._data, key=_label_sort_key):
                    record = family._data[labels]
                    cumulative = 0
                    for bound, bucket_count in zip(
                        list(family.bounds) + ["+Inf"], record[0]
                    ):
                        cumulative += bucket_count
                        lines.append(
                            "%s_bucket{%s} %d"
                            % (
                                name,
                                _openmetrics_labels(
                                    family.label_names, labels, ("le", str(bound))
                                ),
                                cumulative,
                            )
                        )
                    series = _openmetrics_labels(family.label_names, labels)
                    suffix = "{%s}" % series if series else ""
                    lines.append("%s_sum%s %s" % (name, suffix, _om_number(record[1])))
                    lines.append("%s_count%s %d" % (name, suffix, record[2]))
                continue
            if isinstance(family, CounterFamily):
                base = name[:-6] if name.endswith("_total") else name
                sample = base + "_total"
                lines.append("# TYPE %s counter" % base)
            else:
                sample = name
                lines.append("# TYPE %s gauge" % name)
            for labels in sorted(family._data, key=_label_sort_key):
                series = _openmetrics_labels(family.label_names, labels)
                suffix = "{%s}" % series if series else ""
                lines.append(
                    "%s%s %s" % (sample, suffix, _om_number(family._data[labels]))
                )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    # -- checkpoint plumbing ---------------------------------------------------

    def state(self) -> dict:
        """Picklable registry contents (non-volatile families only)."""
        out = {}
        for name, family in self.families.items():
            if family.volatile:
                continue
            if isinstance(family, HistogramFamily):
                data = {
                    labels: [list(rec[0]), rec[1], rec[2], rec[3]]
                    for labels, rec in family._data.items()
                }
            else:
                data = dict(family._data)
            out[name] = {
                "kind": family.kind,
                "label_names": family.label_names,
                "bounds": getattr(family, "bounds", None),
                "data": data,
            }
        return out

    def adopt(self, state: dict) -> None:
        """Load checkpointed contents in place.

        Families already handed out keep their object identity (the
        service directory and collectors hold direct references);
        volatile families reset — they are process-local by contract.
        """
        for family in self.families.values():
            family.clear()
        for name, entry in state.items():
            kind = entry["kind"]
            if kind == "histogram":
                family = self.histogram(
                    name, entry["label_names"], bounds=entry["bounds"]
                )
                family._data = {
                    # rec[3] defaults for states written before the
                    # overflow-sum slot existed (same-version journals
                    # only carry 4-element records).
                    labels: [list(rec[0]), rec[1], rec[2], rec[3] if len(rec) > 3 else 0]
                    for labels, rec in entry["data"].items()
                }
            else:
                maker = self.counter if kind == "counter" else self.gauge
                family = maker(name, entry["label_names"])
                family._data = dict(entry["data"])


def _label_sort_key(labels: tuple) -> tuple:
    return tuple(str(part) for part in labels)


def _om_escape(value) -> str:
    """OpenMetrics label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _openmetrics_labels(label_names: tuple, labels: tuple, extra=None) -> str:
    pairs = ['%s="%s"' % (name, _om_escape(value)) for name, value in zip(label_names, labels)]
    if extra is not None:
        pairs.append('%s="%s"' % (extra[0], _om_escape(extra[1])))
    return ",".join(pairs)


def _om_number(value) -> str:
    """Exposition-format number: ints verbatim, floats via repr.

    ``repr`` is exact and platform-independent for Python floats, so the
    rendering stays byte-identical wherever the snapshot is.
    """
    if isinstance(value, bool):  # bools are ints; be explicit anyway
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# -- disabled variants --------------------------------------------------------


class _NullFamily:
    """Accepts every metrics call and records nothing."""

    kind = "null"
    name = "null"
    label_names = ()
    volatile = True
    bounds = ()

    def inc(self, labels=(), amount=1):
        pass

    def set(self, labels=(), value=0):
        pass

    def observe(self, labels=(), value=0):
        pass

    def clear(self):
        pass

    def items(self):
        return ()

    def get(self, labels=()):
        return 0

    def total(self):
        return 0

    def sum_by(self, index):
        return {}

    def count(self, labels=()):
        return 0

    def sum(self, labels=()):
        return 0

    def percentile(self, labels, q):
        return None


_NULL_FAMILY = _NullFamily()


class NullRegistry(MetricsRegistry):
    """The ``--no-telemetry`` registry: every family is a shared no-op."""

    def counter(self, name, label_names=(), volatile=False):
        return _NULL_FAMILY

    def gauge(self, name, label_names=(), volatile=False):
        return _NULL_FAMILY

    def histogram(self, name, label_names=(), bounds=LATENCY_BUCKETS_US, volatile=False):
        return _NULL_FAMILY

    def family(self, name):
        return None

    def state(self) -> dict:
        return {}

    def adopt(self, state: dict) -> None:
        pass

    def render_openmetrics(self, include_volatile: bool = False) -> str:
        return "# EOF\n"


# -- read-path cache families --------------------------------------------------

#: Family names shared by every read-path cache (AppView hydrated views,
#: relay CAR/block cache, feed-generator skeleton cache).  One label —
#: the cache name — so ``metrics.json`` carries a deterministic hit/miss
#: row per cache and a new cache never mints a new family.
READ_CACHE_HITS = "read_cache_hits_total"
READ_CACHE_MISSES = "read_cache_misses_total"


def read_cache_counters(registry: MetricsRegistry) -> "tuple[CounterFamily, CounterFamily]":
    """The (hits, misses) counter pair for read-path caches.

    Counted only inside journaled pipeline actions (collector crawls), so
    the totals survive crash/resume via the checkpoint's registry state;
    cache *warmth* is flushed at every action boundary (see
    ``MeasurementPipeline``) which keeps the counts resume-invariant.
    """
    return (
        registry.counter(READ_CACHE_HITS, ("cache",)),
        registry.counter(READ_CACHE_MISSES, ("cache",)),
    )
