"""The metrics registry: counters and gauges.

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
from typing import Iterable, Optional

def series_key(name: str, label_names: tuple, labels: tuple) -> str:
    if not label_names:
        return name
    inner = ",".join("%s=%s" % pair for pair in zip(label_names, labels))
    return "%s{%s}" % (name, inner)


def parse_series_key(key: str) -> tuple[str, dict]:
    """Split a snapshot series key ``name{k=v,...}`` into (name, labels).

    Inverse of :func:`series_key` for the label alphabets the study
    uses (hosts, NSIDs, outcome slugs — no commas or braces in values).
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    labels: dict = {}
    for pair in key[brace + 1 : -1].split(","):
        label, _, value = pair.partition("=")
        labels[label] = value
    return key[:brace], labels


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


class CounterFamily(_Family):
    kind = "counter"

    def inc(self, labels: tuple = (), amount: int = 1) -> None:
        data = self._data
        data[labels] = data.get(labels, 0) + amount

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


class MetricsRegistry:
    """Named family store with idempotent creation and stable snapshots."""

    def __init__(self):
        self.families: dict[str, _Family] = {}

    # -- family creation (idempotent) ----------------------------------------

    def counter(self, name: str, label_names=(), volatile: bool = False) -> CounterFamily:
        return self._family(CounterFamily, name, label_names, volatile)

    def gauge(self, name: str, label_names=(), volatile: bool = False) -> GaugeFamily:
        return self._family(GaugeFamily, name, label_names, volatile)

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
        for name in sorted(self.families):
            family = self.families[name]
            if family.volatile and not include_volatile:
                continue
            target = counters if isinstance(family, CounterFamily) else gauges
            for labels in sorted(family._data, key=_label_sort_key):
                target[series_key(name, family.label_names, labels)] = family._data[labels]
        return {"schema": "repro-metrics-v1", "counters": counters, "gauges": gauges}

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
        the document ends with the mandatory ``# EOF``.
        """
        lines: list[str] = []
        for name in sorted(self.families):
            family = self.families[name]
            if (family.volatile and not include_volatile) or not family._data:
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
            out[name] = {
                "kind": family.kind,
                "label_names": family.label_names,
                "data": dict(family._data),
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
            maker = self.counter if entry["kind"] == "counter" else self.gauge
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


def _openmetrics_labels(label_names: tuple, labels: tuple) -> str:
    return ",".join(
        '%s="%s"' % (name, _om_escape(value)) for name, value in zip(label_names, labels)
    )


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
