"""Deterministic structured event log (``events.jsonl``).

The registry answers "how much"; the event log answers "what happened,
in order": phase transitions, fault injections, quarantines, cache
flushes, checkpoint saves.  Every event carries *both* study
clocks — ``virtual_us`` (deterministic, the simulated timeline) and
``wall_us`` (process-local, forensic) — plus a ``span`` correlation id
shared with the tracer, so a span in ``trace.json`` and its events in
``events.jsonl`` can be joined.

Determinism contract (mirrors the metrics registry):

* **Non-volatile events** are appended in a deterministic order, carry
  deterministic ``seq``/``virtual_us``/``kind``/``span``/``fields``,
  and ride the checkpoint journal via :meth:`EventLog.state` /
  :meth:`EventLog.adopt` — a crash/resume chain reproduces the exact
  event stream of an uninterrupted run.  Only ``wall_us`` differs
  between two processes (it is a dual clock by design; strip it to
  compare logs byte-for-byte).
* **Volatile events** (checkpoint saves — anything whose *occurrence*
  depends on crash timing) are
  flagged ``"volatile": true``, numbered in their own sequence space,
  never checkpointed, and excluded from artefact fingerprints.

The one subtlety is the simulation phase: it re-executes from scratch
in every resumed process (see ``Telemetry.reset_phase``), so its
``phase.start``/``phase.end`` events adopted from the journal would be
re-emitted by the replay.  :meth:`suppress_phase` arms one-shot
suppression for exactly the transitions the journal already holds.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Optional

EVENTS_SCHEMA = "repro-events-v1"

#: Event-count ceiling; emissions past it are counted, never silent.
DEFAULT_MAX_EVENTS = 200_000

#: The keys every event object carries, in serialization order.
_EVENT_KEYS = ("seq", "virtual_us", "wall_us", "kind", "span", "fields")


class EventLog:
    """Append-only dual-clock event recorder with checkpoint plumbing."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0
        self._seq = 0  # deterministic sequence (checkpointed)
        self._volatile_seq = 0  # process-local sequence (never checkpointed)
        self._wall0 = time.perf_counter()
        # Phase names whose next start/end emission must be swallowed
        # because the journal already holds the transition (replay dedup).
        self._suppress_starts: dict[str, int] = {}
        self._suppress_ends: dict[str, int] = {}

    # -- clocks ---------------------------------------------------------------

    def wall_us(self) -> float:
        return round((time.perf_counter() - self._wall0) * 1e6, 3)

    # -- recording ------------------------------------------------------------

    def emit(
        self,
        kind: str,
        virtual_us: int,
        fields: Optional[dict] = None,
        span: Optional[str] = None,
        volatile: bool = False,
    ) -> Optional[dict]:
        """Record one event; returns it (or None when capped/suppressed)."""
        if kind == "phase.start" or kind == "phase.end":
            name = (fields or {}).get("phase")
            pool = self._suppress_starts if kind == "phase.start" else self._suppress_ends
            remaining = pool.get(name, 0)
            if remaining:
                pool[name] = remaining - 1
                return None
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return None
        if volatile:
            self._volatile_seq += 1
            seq = self._volatile_seq
        else:
            self._seq += 1
            seq = self._seq
        event = {
            "seq": seq,
            "virtual_us": int(virtual_us),
            "wall_us": self.wall_us(),
            "kind": kind,
            "span": span,
            "fields": dict(fields) if fields else {},
        }
        if volatile:
            event["volatile"] = True
        self.events.append(event)
        return event

    def phase_span(self, name: str) -> str:
        """The correlation id for the phase occurrence about to start.

        Minted from the *occurrence number* (how many times this phase
        has started), not the event sequence, so a resumed run — whose
        re-emitted ``phase.start`` is suppressed — computes the same id
        the journaled start already carries, and the replayed
        ``phase.end`` joins the right span.
        """
        starts = 0
        for event in self.events:
            if (
                not event.get("volatile")
                and event["kind"] == "phase.start"
                and event["fields"].get("phase") == name
            ):
                starts += 1
        pending = self._suppress_starts.get(name, 0)
        return "phase:%s#%d" % (name, starts + 1 - pending)

    # -- replay dedup ---------------------------------------------------------

    def suppress_phase(self, name: str) -> None:
        """Arm one-shot suppression for a phase the replay will re-emit.

        Scans the adopted log: an unmatched ``phase.start`` for ``name``
        means the journal was written mid-phase (suppress only the start
        the redo emits); a matched pair means the phase completed before
        the crash (suppress both).  Counters are per-occurrence so
        multi-crash chains stay exact.
        """
        starts = ends = 0
        for event in self.events:
            if event.get("volatile"):
                continue
            if event["fields"].get("phase") != name:
                continue
            if event["kind"] == "phase.start":
                starts += 1
            elif event["kind"] == "phase.end":
                ends += 1
        if starts:
            self._suppress_starts[name] = starts
        if ends:
            self._suppress_ends[name] = ends

    # -- checkpoint plumbing ---------------------------------------------------

    def state(self) -> dict:
        """Picklable contents: the non-volatile stream only."""
        return {
            "seq": self._seq,
            "events": [e for e in self.events if not e.get("volatile")],
        }

    def adopt(self, state: Optional[dict]) -> None:
        if not state:
            return
        self._seq = state.get("seq", 0)
        self.events = [dict(e) for e in state.get("events", ())]

    # -- export ---------------------------------------------------------------

    def to_jsonl(self, include_volatile: bool = True) -> str:
        """One JSON object per line, keys in fixed order.

        Volatile events are included by default (the file is a forensic
        record, not a fingerprint input); pass ``include_volatile=False``
        for the strictly deterministic stream.
        """
        lines = []
        for event in self.events:
            if event.get("volatile") and not include_volatile:
                continue
            ordered = {key: event[key] for key in _EVENT_KEYS}
            ordered["fields"] = dict(sorted(event["fields"].items()))
            if event.get("volatile"):
                ordered["volatile"] = True
            lines.append(json.dumps(ordered, sort_keys=False, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def stats(self) -> dict:
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "deterministic_seq": self._seq,
        }


# ---------------------------------------------------------------------------
# JSONL schema validation (scripts/check_trace.py)
# ---------------------------------------------------------------------------


def validate_events_lines(lines: Iterable[str]) -> list[str]:
    """Schema-check an ``events.jsonl`` document; returns problems.

    Enforced: every line is a JSON object with exactly the event keys,
    typed correctly; ``seq`` strictly increases within each of the two
    sequence spaces (deterministic and volatile); spans are null or
    non-empty strings.  ``seq`` is the ordering invariant — ``virtual_us``
    is *not* monotone across the stream, because collectors run at their
    own scheduled virtual instants (the final labeler pull is stamped at
    the label-snapshot time even though it executes after later feed
    sweeps).
    """
    problems: list[str] = []
    last_det_seq = 0
    last_vol_seq = 0
    count = 0
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        count += 1
        try:
            event = json.loads(raw)
        except ValueError:
            problems.append("line %d is not valid JSON" % lineno)
            continue
        if not isinstance(event, dict):
            problems.append("line %d is not an object" % lineno)
            continue
        missing = [key for key in _EVENT_KEYS if key not in event]
        if missing:
            problems.append("line %d missing keys %r" % (lineno, missing))
            continue
        extra = set(event) - set(_EVENT_KEYS) - {"volatile"}
        if extra:
            problems.append("line %d has unknown keys %r" % (lineno, sorted(extra)))
        if not isinstance(event["kind"], str) or not event["kind"]:
            problems.append("line %d has bad kind %r" % (lineno, event.get("kind")))
        if not isinstance(event["seq"], int) or event["seq"] < 1:
            problems.append("line %d has bad seq %r" % (lineno, event.get("seq")))
            continue
        if not isinstance(event["virtual_us"], int) or event["virtual_us"] < 0:
            problems.append(
                "line %d has bad virtual_us %r" % (lineno, event.get("virtual_us"))
            )
            continue
        wall = event["wall_us"]
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append("line %d has bad wall_us %r" % (lineno, wall))
        span = event["span"]
        if span is not None and (not isinstance(span, str) or not span):
            problems.append("line %d has bad span %r" % (lineno, span))
        if not isinstance(event["fields"], dict):
            problems.append("line %d has non-object fields" % lineno)
        if event.get("volatile"):
            if event["seq"] <= last_vol_seq:
                problems.append(
                    "line %d volatile seq %d not increasing (last %d)"
                    % (lineno, event["seq"], last_vol_seq)
                )
            last_vol_seq = event["seq"]
        else:
            if event["seq"] <= last_det_seq:
                problems.append(
                    "line %d seq %d not increasing (last %d)"
                    % (lineno, event["seq"], last_det_seq)
                )
            last_det_seq = event["seq"]
    if not count:
        problems.append("event log is empty")
    return problems
