"""Command line for the analyzer: ``python -m repro lint [paths...]``.

Also runnable as ``python -m repro.devtools.lint``.  Text report goes to
stdout; ``--json-out`` additionally writes the deterministic JSON report
(the artefact CI uploads).  See reporters.py for the exit-code contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.devtools.lint import rules  # noqa: F401  (registers the rules)
from repro.devtools.lint.framework import (
    DEFAULT_CONFIG,
    DEFAULT_REGISTRY,
    LintConfig,
    lint_paths,
)
from repro.devtools.lint.reporters import (
    EXIT_ERROR,
    exit_code,
    render_json,
    render_text,
)


def _list_rules() -> str:
    lines = ["determinism & shard-safety rules:", ""]
    for rule in DEFAULT_REGISTRY.rules():
        lines.append("  %-22s %s" % (rule.id, rule.summary))
        allowed = DEFAULT_CONFIG.allowlist.get(rule.id)
        if allowed:
            lines.append("  %-22s   allowlisted in: %s" % ("", ", ".join(allowed)))
    lines += [
        "",
        "suppress one finding with:  # repro: allow(<rule-id>) -- <reason>",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static determinism & shard-safety analysis "
        "(stdlib-only, AST-based) for this repository's invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directory trees to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="also write the JSON report to PATH (CI artefact)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="ignore the module allowlist (audit mode: every finding shows)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include pragma-suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule id and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    config = DEFAULT_CONFIG
    if args.no_allowlist or args.select:
        select = ()
        if args.select:
            select = tuple(part.strip() for part in args.select.split(",") if part.strip())
        config = LintConfig(
            allowlist={} if args.no_allowlist else dict(DEFAULT_CONFIG.allowlist),
            state_modules=DEFAULT_CONFIG.state_modules,
            select=select,
        )
    try:
        findings = lint_paths(args.paths, config=config)
    except KeyError as exc:
        print("error: %s" % (exc.args[0],), file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        print(render_text(findings, verbose=args.verbose))
    if args.json_out:
        from repro.core.atomicio import atomic_write_text

        atomic_write_text(args.json_out, render_json(findings))
    return exit_code(findings)


if __name__ == "__main__":
    sys.exit(main())
