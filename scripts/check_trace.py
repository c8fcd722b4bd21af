#!/usr/bin/env python
"""Sanity-check the traced-study artefacts (``make trace``).

Usage: python scripts/check_trace.py TRACE.json [METRICS.json [EVENTS.jsonl [METRICS.prom]]]

Exits non-zero if the trace would not load in chrome://tracing /
Perfetto, if its phase/study spans fail to nest, if the wall track is
not recorded in completion order, or if the optional metrics snapshot /
event log / OpenMetrics exposition is malformed.  The exposition check
is for parseability: a ``# EOF`` terminator, well-formed ``# TYPE``
declarations, and every sample line belonging to a declared family.
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.events import validate_events_lines  # noqa: E402
from repro.obs.trace import (  # noqa: E402
    validate_span_nesting,
    validate_trace,
    validate_wall_monotonic,
)

_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge)$")
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def check_metrics(path: str) -> list[str]:
    with open(path) as handle:
        snapshot = json.load(handle)
    problems = []
    if snapshot.get("schema") != "repro-metrics-v1":
        problems.append("metrics schema is %r" % snapshot.get("schema"))
    for section in ("counters", "gauges"):
        if not isinstance(snapshot.get(section), dict):
            problems.append("metrics %r section missing" % section)
    return problems


def check_events(path: str) -> list[str]:
    with open(path) as handle:
        return ["events: %s" % problem for problem in validate_events_lines(handle)]


def check_openmetrics(path: str) -> list[str]:
    with open(path) as handle:
        text = handle.read()
    problems: list[str] = []
    if not text.endswith("# EOF\n"):
        return ["openmetrics exposition does not end with '# EOF'"]
    declared: set[str] = set()
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line == "# EOF":
            if lineno != len(lines):
                problems.append("content after the '# EOF' terminator")
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            if match is None:
                problems.append("line %d: bad comment %r" % (lineno, line))
                continue
            if match.group(1) in declared:
                problems.append("line %d: duplicate TYPE for %r" % (lineno, match.group(1)))
            declared.add(match.group(1))
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append("line %d: unparseable sample %r" % (lineno, line))
            continue
        name = match.group(1)
        family = name[: -len("_total")] if name.endswith("_total") else name
        if name not in declared and family not in declared:
            problems.append("line %d: sample %r has no TYPE declaration" % (lineno, name))
        try:
            float(match.group(3))
        except ValueError:
            problems.append("line %d: bad value %r" % (lineno, match.group(3)))
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        document = json.load(handle)
    problems = validate_trace(document)
    problems += validate_span_nesting(document)
    problems += validate_wall_monotonic(document)
    events = document.get("traceEvents") or []
    if argv[1:]:
        problems += check_metrics(argv[1])
    if argv[2:]:
        problems += check_events(argv[2])
    if argv[3:]:
        problems += check_openmetrics(argv[3])
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem, file=sys.stderr)
        return 1
    print("ok: %s (%d events, spans nested, wall track monotone)" % (argv[0], len(events)))
    for extra in argv[1:4]:
        print("ok: %s" % extra)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
