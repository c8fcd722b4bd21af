"""Crash-safe checkpoint/resume for the measurement pipeline.

The study journals its progress — which scheduled actions completed, every
collector's dataset, the firehose cursor, the repo-crawl frontier — into a
single pickled state file, published with write-temp-then-rename so a
crash mid-save leaves the previous complete checkpoint intact.

The contract is *determinism*, not mere continuation: everything the
collectors draw is a stateless function of (config seed, item), and every
collector guards against re-doing work the checkpoint already recorded,
so a run that crashes and resumes any number of times exports artefacts
byte-identical to an uninterrupted run of the same seed.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from typing import Any, Callable, Optional

from repro.core.atomicio import atomic_write_bytes
from repro.netsim.faults import CrashPlan, StudyCrashed
from repro.obs.telemetry import Telemetry

CHECKPOINT_FILENAME = "study.ckpt"
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """An unusable checkpoint (wrong version, different study config)."""


class CheckpointJournal:
    """On-disk store for one study's checkpoint state."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, CHECKPOINT_FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, state: dict) -> None:
        payload = dict(state)
        payload["__version__"] = CHECKPOINT_VERSION
        atomic_write_bytes(self.path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self) -> Optional[dict]:
        if not self.exists():
            return None
        with open(self.path, "rb") as handle:
            state = pickle.load(handle)
        if not isinstance(state, dict) or state.get("__version__") != CHECKPOINT_VERSION:
            raise CheckpointError("incompatible checkpoint at %s" % self.path)
        return state


class StudyCheckpointer:
    """Progress ticks, done-action bookkeeping, and periodic journaling.

    ``tick`` is called on every unit of collection progress (a scheduled
    action, one firehose ingest, one crawled repo, one probe).  The tick
    counter is *process-local* — a resumed run starts again from zero —
    which is what lets a :class:`CrashPlan` compose across a chain of
    crash/resume cycles instead of re-firing at the same spot forever.

    ``save_every`` bounds how much item-level progress a crash can lose
    between full action-boundary saves.

    **Boundary consistency.**  Periodic (tick-driven) saves are deferred
    while a scheduled action or post step executes (see
    :meth:`deferred_saves`): the tick counter still advances — so crash
    plans fire mid-action, like real crashes — but the journal is only
    written between actions, when every dataset *and* the telemetry
    registry form one transactionally consistent snapshot.  That is what
    makes a resumed run's metrics exactly equal an uninterrupted run's:
    a redone action re-counts from the same starting registry it first
    counted from.  Streaming stretches (firehose frames between actions)
    still save periodically — their ingest is cursor-guarded and thus
    idempotent.
    """

    def __init__(
        self,
        journal: Optional[CheckpointJournal] = None,
        crash_plan: Optional[CrashPlan] = None,
        save_every: int = 500,
        telemetry=None,
    ):
        self.journal = journal
        self.crash_plan = crash_plan
        self.save_every = save_every
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.done: set[str] = set()
        self.ticks = 0
        self._since_save = 0
        self._defer_depth = 0
        self._state_fn: Optional[Callable[[], dict]] = None
        registry = self.telemetry.registry
        self._m_saves = registry.counter("checkpoint_saves_total", volatile=True)
        self._m_restores = registry.counter("checkpoint_restores_total", volatile=True)

    def bind(self, state_fn: Callable[[], dict]) -> None:
        """Register the pipeline callback that snapshots full study state."""
        self._state_fn = state_fn

    # -- progress ------------------------------------------------------------

    def tick(self, label: str = "") -> None:
        self.ticks += 1
        if self.crash_plan is not None and self.crash_plan.should_crash(self.ticks):
            # An abrupt kill: no save here — whatever happened since the
            # last journal write is lost, exactly like a real crash.
            raise StudyCrashed(self.ticks, label)
        self._since_save += 1
        if (
            self.journal is not None
            and self._defer_depth == 0
            and self._since_save >= self.save_every
        ):
            self.save()

    @contextmanager
    def deferred_saves(self):
        """Suppress periodic saves for the duration (crashes still fire).

        Wrapped around each scheduled action / post step so the journal
        only ever captures action-boundary state; see the class docstring.
        """
        self._defer_depth += 1
        try:
            yield self
        finally:
            self._defer_depth -= 1

    def is_done(self, action_id: str) -> bool:
        return action_id in self.done

    def mark_done(self, action_id: str) -> None:
        self.done.add(action_id)

    # -- journaling ----------------------------------------------------------

    def save(self) -> None:
        if self.journal is None or self._state_fn is None:
            return
        with self.telemetry.tracer.span("checkpoint-save", cat="checkpoint"):
            state = self._state_fn()
            state["done"] = set(self.done)
            self.journal.save(state)
        self._m_saves.inc()
        # Volatile: *when* saves happen depends on crash timing and the
        # resume chain, so the event must stay out of the deterministic
        # stream (and out of the journal — it describes this process).
        self.telemetry.emit_event(
            "checkpoint.save",
            fields={"ticks": self.ticks, "done": len(self.done)},
            volatile=True,
        )
        self._write_status()
        self._since_save = 0

    def _write_status(self) -> None:
        """Publish the live dashboard feed (``status.json``).

        A small atomically-replaced JSON next to the journal that
        ``python -m repro top`` tails: the full registry snapshot
        (volatile families included — the dashboard is exactly where
        wall-clock counters belong), the phases open right now, and the
        newest events.  Purely informational: never read back, never
        fingerprinted.
        """
        telemetry = self.telemetry
        import json

        from repro.core.atomicio import atomic_write_text

        status = {
            "schema": "repro-status-v1",
            "ticks": self.ticks,
            "done_actions": len(self.done),
            "metrics": telemetry.registry.snapshot(include_volatile=True),
            "open_phases": telemetry.open_phases,
            "events_tail": telemetry.events.events[-30:],
        }
        path = os.path.join(self.journal.directory, "status.json")
        atomic_write_text(path, json.dumps(status, sort_keys=True) + "\n")

    def restore(self) -> Optional[dict]:
        """Load the journal (if any); re-adopts the done-action set."""
        if self.journal is None:
            return None
        with self.telemetry.tracer.span("checkpoint-restore", cat="checkpoint"):
            state = self.journal.load()
        if state is None:
            return None
        self._m_restores.inc()
        done = state.get("done")
        if isinstance(done, set):
            self.done = set(done)
        return state


def state_guard(state: dict, key: str, expected: Any) -> None:
    """Reject a checkpoint written by a differently-configured study."""
    found = state.get(key)
    if found != expected:
        raise CheckpointError(
            "checkpoint %s mismatch: journal has %r, this run has %r" % (key, found, expected)
        )
