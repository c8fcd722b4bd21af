"""Live study dashboard: ``python -m repro top <dir-or-file>``.

Tails the ``status.json`` feed a checkpointed run publishes on every
journal save (see ``StudyCheckpointer._write_status``) — or, post-hoc,
any exported ``metrics.json`` snapshot — and renders the run at a
glance: current phase, call throughput, and per-endpoint calls and
errors.

It prints one plain-text frame per refresh.  ``--once`` prints a
single frame and exits, which is what the tests drive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.obs.metrics import parse_series_key
from repro.obs.profile import ranked_call_rows

CALLS_FAMILY = "xrpc_calls_total"

REFRESH_DEFAULT_S = 2.0


def _resolve_path(path: str) -> Optional[str]:
    """A concrete feed file from a path argument (file or directory)."""
    if os.path.isdir(path):
        for name in ("status.json", "metrics.json"):
            candidate = os.path.join(path, name)
            if os.path.exists(candidate):
                return candidate
        return None
    return path if os.path.exists(path) else None


def _load(path: str) -> Optional[dict]:
    """Parse one feed frame; None when missing/torn (retry next tick)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("schema") == "repro-status-v1":
        return document
    if document.get("schema") == "repro-metrics-v1":
        return {"schema": "repro-status-v1", "metrics": document}
    return None


def _counter_total(metrics: dict, family: str) -> int:
    total = 0
    for key, value in metrics.get("counters", {}).items():
        if parse_series_key(key)[0] == family:
            total += value
    return total


def _current_phase(status: dict) -> str:
    """The innermost phase open when the feed was written."""
    open_phases = status.get("open_phases") or ()
    return open_phases[-1] if open_phases else "(idle)"


def _method_rows(metrics: dict, top_n: int = 8) -> list:
    """Top-N method NSIDs by call volume: (method, calls, errors)."""
    items = []
    for key, value in metrics.get("counters", {}).items():
        name, labels = parse_series_key(key)
        if name == CALLS_FAMILY:
            items.append(((labels["host"], labels["method"], labels["outcome"]), value))
    return ranked_call_rows(items, 1, top_n)


def render_frame(
    status: dict,
    previous: Optional[dict] = None,
    interval_s: float = REFRESH_DEFAULT_S,
    source: str = "",
) -> str:
    """One dashboard frame as plain text."""
    metrics = status.get("metrics", {})
    lines = []
    lines.append("repro top — %s" % (source or "study telemetry"))
    lines.append(
        "phase: %-24s  ticks: %-10s  done actions: %s"
        % (
            _current_phase(status),
            status.get("ticks", "-"),
            status.get("done_actions", "-"),
        )
    )

    calls = _counter_total(metrics, CALLS_FAMILY)
    rate = ""
    if previous is not None and interval_s > 0:
        prev_calls = _counter_total(previous.get("metrics", {}), CALLS_FAMILY)
        rate = "  (%.0f calls/s)" % (max(0, calls - prev_calls) / interval_s)
    lines.append("xrpc calls: %d%s" % (calls, rate))

    rows = _method_rows(metrics)
    if rows:
        lines.append("")
        lines.append("  %-44s %10s %10s" % ("endpoint", "calls", "errors"))
        for method, count, errors in rows:
            lines.append("  %-44s %10d %10d" % (method, count, errors))
    return "\n".join(lines)


def _run(path: str, interval_s: float, once: bool) -> int:
    previous = None
    while True:
        status = _load(path)
        if status is None:
            print("repro top: waiting for %s ..." % path, file=sys.stderr)
        else:
            print(render_frame(status, previous, interval_s, source=path))
            previous = status
        if once:
            return 0 if status is not None else 1
        print("-" * 72)
        time.sleep(interval_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live dashboard over a running (or finished) study: "
        "tails the status.json feed written on every checkpoint save, or "
        "renders a metrics.json snapshot post-hoc.",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=".",
        help="checkpoint directory (status.json), export directory, or a "
        "status.json/metrics.json file (default: current directory)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=REFRESH_DEFAULT_S,
        metavar="SECONDS",
        help="refresh period (default %.1fs)" % REFRESH_DEFAULT_S,
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))

    path = _resolve_path(args.path)
    if path is None:
        print(
            "repro top: no status.json or metrics.json at %r" % args.path,
            file=sys.stderr,
        )
        return 1
    return _run(path, max(0.1, args.interval), args.once)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
