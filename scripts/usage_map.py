#!/usr/bin/env python
"""Which functions under ``src/repro`` does no run reach?

Usage: python scripts/usage_map.py
       make usage-map

Runs every entry point :func:`entry_points` lists from the repository root
with a generated ``sitecustomize`` first on ``PYTHONPATH``.  In every
Python process those commands start, child interpreters included, it
records through ``sys.setprofile`` (and ``threading.setprofile``) the
file and first line of each code object that is called.  Filenames are
resolved with ``os.path.realpath`` when recorded and again when read, so
a module imported as ``scripts/../src/repro/...`` counts as the same file.

It then lists every ``def`` under ``src/repro``, nested ones too, keyed on
the file and its first line, which for a decorated function is its first
decorator's line (as ``co_firstlineno`` is).  Every function no process
called is printed by module, in two sections:

* the ones a reason accounts for: an entry of ``scripts/usage_keep.txt``
  (one ``module:qualname  category: reason`` per line), a target of
  perfbench's ``SPANS``, or a name imported by a ``tests/**/oracles.py``.
  A keep entry naming a class or function also covers what is defined in
  it;
* the rest, which is code to delete.

Keep-list categories are a closed set, see :data:`KEEP_CATEGORIES`.  Each
entry point's exit status is printed and the map goes on: the crash run
exits 3 by design, and ``check_bench.py``'s speed floors fail under the
recorder.  The whole run takes about 12 minutes on a 2-core host.  The
exit status is 1 when a function is unaccounted for or a keep entry is
stale.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
KEEP_PATH = os.path.join(ROOT, "scripts", "usage_keep.txt")

# Why an uncalled function may stay.
KEEP_CATEGORIES = {
    "input": "validates outside input or handles its errors",
    "protocol": "a Python protocol method or an abstract interface method",
    "roadmap": "an open ROADMAP item names it",
    "cli": "a CLI surface the map cannot drive",
    "branch": "a branch that runs take only on other input",
}

# Tracked files that entry points rewrite; restored after the run.
REWRITTEN = ("BENCH_perf.json", "bench_comparison.json")

# The recorder.  ``USAGE_MAP_OUT`` is the records directory and
# ``USAGE_MAP_PREFIX`` the resolved package directory whose calls count.
# Each process appends to its own file, reopened after a fork.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_OUT = os.environ.get("USAGE_MAP_OUT")
_PREFIX = os.environ.get("USAGE_MAP_PREFIX")


def _install():
    seen = set()
    state = {"pid": None, "file": None}
    realpath = os.path.realpath

    def record(code):
        path = realpath(code.co_filename)
        if not path.startswith(_PREFIX):
            return
        pid = os.getpid()
        if state["pid"] != pid:
            state["pid"] = pid
            name = os.path.join(_OUT, "calls-%d.txt" % pid)
            state["file"] = open(name, "a", buffering=1, encoding="utf-8")
        state["file"].write("%s\\t%d\\n" % (path, code.co_firstlineno))

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                record(code)

    sys.setprofile(profile)
    threading.setprofile(profile)


if _OUT and _PREFIX:
    _install()
'''


def entry_points(work: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command the map runs, in order, from ROOT.

    ``work`` is a scratch directory for the artefacts they write."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    checkpoint = os.path.join(work, "checkpoint")
    points = [
        ("make trace", ["make", "-s", "trace", "PYTHON=" + py]),
        (
            "repro all --fault-seed 11 --adversary-seed 3 --export",
            repro + ["all", "--fault-seed", "11", "--adversary-seed", "3",
                     "--export", os.path.join(work, "export")],
        ),
        (
            "repro --crash-seed 5",
            repro + ["--crash-seed", "5", "--checkpoint-dir", checkpoint],
        ),
        ("repro --resume", repro + ["--resume", "--checkpoint-dir", checkpoint]),
        ("repro top --once", repro + ["top", "--once", checkpoint]),
        (
            "repro lint",
            repro + ["lint", "src", "tests", "benchmarks", "scripts", "examples",
                     "--json-out", os.path.join(work, "lint.json")],
        ),
    ]
    for workload in ("study", "crawl", "serve"):
        for trace in ("0", "1"):
            points.append((
                "perfbench %s --trace %s" % (workload, trace),
                [py, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "8", "--trace", trace],
            ))
    for example in ("quickstart", "custom_labeler", "feed_service_platform",
                    "identity_migration", "whitewind_blog"):
        points.append(("example " + example, [py, "examples/%s.py" % example]))
    points += [
        ("example run_study", [py, "examples/run_study.py", "--scale", "60000"]),
        ("pytest tests/test_equivalence.py",
         [py, "-m", "pytest", "-q", "tests/test_equivalence.py"]),
        ("pytest benchmarks/", [py, "-m", "pytest", "-q", "benchmarks/"]),
        ("pytest perfbench/tests", [py, "-m", "pytest", "-q", "perfbench/tests"]),
        ("benchmarks.perf", [py, "-m", "benchmarks.perf"]),
        ("check_bench.py", [py, "scripts/check_bench.py", "BENCH_perf.json"]),
    ]
    return points


def run_entry_points(work: str) -> str:
    """Run every entry point under the recorder, with scratch space in
    ``work``; returns the directory the call records are in."""
    site = os.path.join(work, "site")
    records = os.path.join(work, "records")
    os.makedirs(site)
    os.makedirs(records)
    with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write(SITECUSTOMIZE)
    pythonpath = os.pathsep.join([site, SRC])
    env = dict(os.environ)  # repro: allow(env-read) -- children inherit it, plus the recorder
    env.update({
        "PYTHONPATH": pythonpath,
        "USAGE_MAP_OUT": os.path.realpath(records),
        "USAGE_MAP_PREFIX": os.path.join(os.path.realpath(SRC), "repro") + os.sep,
    })
    saved = {}
    for name in REWRITTEN:
        with open(os.path.join(ROOT, name), "rb") as handle:
            saved[name] = handle.read()
    try:
        for name, argv in entry_points(work):
            if argv[0] == "make":
                # The Makefile sets PYTHONPATH itself; a command-line value wins.
                argv = argv + ["PYTHONPATH=" + pythonpath]
            status = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            ).returncode
            print("exit %3d  %s" % (status, name), flush=True)
    finally:
        for name, data in saved.items():
            with open(os.path.join(ROOT, name), "wb") as handle:
                handle.write(data)
    return records


@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: str
    line: int  # first decorator's line, or the def line
    end: int

    @property
    def name(self) -> str:
        return "%s:%s" % (self.module, self.qualname)

    @property
    def span(self) -> int:
        return self.end - self.line + 1


def module_name(package_root: str, path: str) -> str:
    relative = os.path.relpath(path, package_root)[: -len(".py")]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _walk_defs(node, prefix: str, out: list, classes: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
            out.append((qualname, first, child.end_lineno))
            _walk_defs(child, qualname + ".<locals>.", out, classes)
        elif isinstance(child, ast.ClassDef):
            classes.append(prefix + child.name)
            _walk_defs(child, prefix + child.name + ".", out, classes)
        else:
            _walk_defs(child, prefix, out, classes)


def list_functions(package_dir: str) -> tuple[dict, set]:
    """Every def under ``package_dir`` keyed on (resolved path, first line),
    and the ``module:qualname`` of every def and class there."""
    package_dir = os.path.realpath(package_dir)
    package_root = os.path.dirname(package_dir)
    functions = {}
    names = set()
    for directory, subdirs, files in os.walk(package_dir):
        subdirs.sort()
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            module = module_name(package_root, path)
            defs, classes = [], []
            _walk_defs(tree, "", defs, classes)
            for qualname, line, end in defs:
                functions[(path, line)] = Function(module, qualname, path, line, end)
                names.add("%s:%s" % (module, qualname))
            names.update("%s:%s" % (module, qualname) for qualname in classes)
    return functions, names


def read_calls(records: str) -> set:
    """(resolved path, first line) of every recorded call."""
    calls = set()
    for filename in sorted(os.listdir(records)):
        if not filename.startswith("calls-"):
            continue
        with open(os.path.join(records, filename), encoding="utf-8") as handle:
            for row in handle:
                path, _, line = row.rstrip("\n").rpartition("\t")
                if path:
                    calls.add((os.path.realpath(path), int(line)))
    return calls


def read_keep_list(path: str) -> dict:
    """``module:qualname`` -> reason.  Raises ValueError on a line without a
    reason, with a category outside :data:`KEEP_CATEGORIES`, or a repeat."""
    keep = {}
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            where = "%s:%d" % (path, number)
            if len(parts) < 2:
                raise ValueError("%s: %r has no reason" % (where, parts[0]))
            name, reason = parts
            category = reason.split(":", 1)[0]
            if category not in KEEP_CATEGORIES or ":" not in reason:
                raise ValueError(
                    "%s: reason %r is not 'category: text' with a category in %s"
                    % (where, reason, ", ".join(sorted(KEEP_CATEGORIES)))
                )
            if ":" not in name:
                raise ValueError("%s: %r is not module:qualname" % (where, name))
            if name in keep:
                raise ValueError("%s: %r is listed twice" % (where, name))
            keep[name] = reason
    return keep


def span_reasons() -> dict:
    """perfbench's ``SPANS`` targets: ``module:qualname`` -> reason."""
    sys.path.insert(0, ROOT)
    try:
        from perfbench.tracer import SPANS
    finally:
        sys.path.remove(ROOT)
    return {
        target: "perfbench span %s" % span
        for span, targets in SPANS.items()
        for target in targets
    }


def oracle_reasons(tests_dir: str) -> dict:
    """Names a ``tests/**/oracles.py`` imports from ``repro``."""
    reasons = {}
    for directory, subdirs, files in os.walk(tests_dir):
        subdirs.sort()
        if "oracles.py" not in files:
            continue
        path = os.path.join(directory, "oracles.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        shown = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    reasons["%s:%s" % (node.module, alias.name)] = "imported by " + shown
    return reasons


def reason_for(function: Function, keep: dict, reasons: dict):
    """The reason that accounts for ``function``: a keep entry for it or for
    the class or function it is defined in, else a reason for its own name."""
    qualname = function.qualname
    while True:
        reason = keep.get("%s:%s" % (function.module, qualname))
        if reason is not None or "." not in qualname:
            break
        qualname = qualname.rsplit(".", 1)[0]
        if qualname.endswith(".<locals>"):
            qualname = qualname[: -len(".<locals>")]
    return reason or reasons.get(function.name)


@dataclass
class UsageMap:
    functions: dict
    accounted: list  # (Function, reason)
    rest: list  # Function
    stale: list  # keep-list names that name no def or class


def build_map(package_dir: str, calls: set, keep: dict, reasons: dict) -> UsageMap:
    functions, names = list_functions(package_dir)
    accounted, rest = [], []
    for key in sorted(functions):
        if key in calls:
            continue
        function = functions[key]
        reason = reason_for(function, keep, reasons)
        if reason is None:
            rest.append(function)
        else:
            accounted.append((function, reason))
    stale = sorted(name for name in keep if name not in names)
    return UsageMap(functions, accounted, rest, stale)


def _lines(functions) -> int:
    return sum(function.span for function in functions)


def _print_section(title: str, rows: list) -> None:
    print()
    print("%s: %d functions, %d lines" % (title, len(rows), _lines(f for f, _ in rows)))
    module = None
    for function, reason in sorted(rows, key=lambda row: (row[0].module, row[0].line)):
        if function.module != module:
            module = function.module
            print("  %s" % module)
        note = "  " + reason if reason else ""
        print("    %s  L%d, %d lines%s" % (function.qualname, function.line, function.span, note))


def report(usage: UsageMap) -> int:
    uncalled = [f for f, _ in usage.accounted] + usage.rest
    print()
    print(
        "%d functions under src/repro, %d uncalled (%d lines by span)"
        % (len(usage.functions), len(uncalled), _lines(uncalled))
    )
    _print_section("accounted for", usage.accounted)
    _print_section("not accounted for", [(f, "") for f in usage.rest])
    print()
    print("stale keep-list entries: %d" % len(usage.stale))
    for name in usage.stale:
        print("  " + name)
    return 1 if usage.rest or usage.stale else 0


def main() -> int:
    work = tempfile.mkdtemp(prefix="usage-map-")
    try:
        records = run_entry_points(work)
        reasons = span_reasons()
        reasons.update(oracle_reasons(os.path.join(ROOT, "tests")))
        usage = build_map(
            os.path.join(SRC, "repro"), read_calls(records), read_keep_list(KEEP_PATH), reasons
        )
        return report(usage)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
