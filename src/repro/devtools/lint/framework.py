"""Rule framework for the determinism & shard-safety analyzer.

Pure stdlib (``ast`` + ``tokenize``-free line scanning).  The pieces:

* :class:`Rule` — base class; subclasses declare a stable ``id``, the
  AST node types they want, and a ``check`` hook yielding findings.
* :class:`RuleRegistry` — the default registry all built-in rules
  register into at import time; dispatch is one tree walk per module
  with per-node-type fan-out to interested rules.
* :class:`LintConfig` — the module allowlist (rule id → dotted-module
  glob patterns) plus the simulation-engine module set some rules
  scope themselves to.  The repo's sanctioned defaults live in
  :data:`DEFAULT_CONFIG`.
* Suppression pragma — ``# repro: allow(<rule-id>) -- <reason>`` on the
  offending line keeps the finding (reported as suppressed in JSON
  output) but removes it from the exit-code count.  A malformed pragma
  or one naming an unknown rule is itself a finding (``pragma-syntax``),
  so suppressions can't silently rot.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "RuleRegistry",
    "LintConfig",
    "DEFAULT_CONFIG",
    "ModuleContext",
    "PRAGMA_RULE_ID",
    "lint_source",
    "lint_file",
    "lint_paths",
    "module_name_for_path",
]

PRAGMA_RULE_ID = "pragma-syntax"

# Anything after a ``#`` that mentions ``repro:`` is claiming to be a
# pragma; the strict form then validates rule ids and requires a reason.
_PRAGMA_HINT = re.compile(r"#\s*repro\s*:")
_PRAGMA_STRICT = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<ids>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\s*\)"
    r"\s*--\s*(?P<reason>\S.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppression_reason: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        note = "  [suppressed: %s]" % self.suppression_reason if self.suppressed else ""
        return "%s:%d:%d: %s %s%s" % (
            self.path,
            self.line,
            self.col,
            self.rule_id,
            self.message,
            note,
        )


@dataclass
class LintConfig:
    """Analyzer configuration: what is sanctioned where.

    ``allowlist`` maps a rule id to dotted-module glob patterns
    (``fnmatch`` style) where the rule stays silent — e.g. telemetry is
    allowed to read wallclocks.  ``state_modules`` scopes the
    per-run-state rules to the simulation-engine modules.  ``select``,
    when non-empty, restricts the run to those rule ids.
    """

    allowlist: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    state_modules: Tuple[str, ...] = ()
    select: Tuple[str, ...] = ()

    def module_allowed(self, rule_id: str, module: str) -> bool:
        for pattern in self.allowlist.get(rule_id, ()):
            if fnmatch.fnmatchcase(module, pattern):
                return True
        return False

    def is_state_module(self, module: str) -> bool:
        return any(fnmatch.fnmatchcase(module, p) for p in self.state_modules)


# The repo's sanctioned exceptions.  Documented (rule by rule) in the
# "Determinism contract" section of EXPERIMENTS.md — update both together.
DEFAULT_CONFIG = LintConfig(
    allowlist={
        # Telemetry and the benchmark harness exist to measure wall time;
        # their outputs are either dual-clock (virtual + wall) or
        # explicitly excluded from artefact fingerprints.
        "wallclock": ("repro.obs.*", "benchmarks.perf", "repro.__main__"),
        # The CLI surface may consult the environment (it never reaches
        # simulation or protocol state).
        "env-read": ("repro.__main__", "repro.devtools.*"),
    },
    state_modules=(
        "repro.simulation.engine",
        "repro.simulation.sharding",
    ),
)


class Rule:
    """Base class for one hazard class.

    Subclasses set ``id`` (stable, kebab-case — it is the pragma and
    allowlist key), ``summary`` (one line, shown by ``--list-rules``),
    ``rationale`` (why the hazard breaks reproducibility), and
    ``node_types`` (the AST classes ``check`` wants to see).
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    node_types: Tuple[type, ...] = ()

    def check(self, node: ast.AST, ctx: "ModuleContext") -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` for each violation at ``node``."""
        raise NotImplementedError

    def module_scan(self, ctx: "ModuleContext") -> Iterator[Tuple[ast.AST, str]]:
        """Optional whole-module pass, run once before node dispatch."""
        return iter(())


class RuleRegistry:
    """Rules keyed by id, with a per-node-type dispatch index."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule_cls: type) -> type:
        """Class decorator: instantiate and index a :class:`Rule`."""
        rule = rule_cls()
        if not rule.id:
            raise ValueError("rule %r has no id" % rule_cls.__name__)
        if rule.id in self._rules:
            raise ValueError("duplicate rule id %r" % rule.id)
        self._rules[rule.id] = rule
        return rule_cls

    def rules(self, select: Sequence[str] = ()) -> List[Rule]:
        chosen = self._rules.values()
        if select:
            unknown = set(select) - set(self._rules)
            if unknown:
                raise KeyError("unknown rule id(s): %s" % ", ".join(sorted(unknown)))
            chosen = [self._rules[rule_id] for rule_id in select]
        return sorted(chosen, key=lambda rule: rule.id)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules


DEFAULT_REGISTRY = RuleRegistry()


class ModuleContext:
    """Everything rules may ask about the module under analysis."""

    def __init__(
        self,
        path: str,
        module: str,
        tree: ast.Module,
        source: str,
        config: LintConfig,
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.source_lines = source.splitlines()
        self.config = config
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)


# ---------------------------------------------------------------------------
# Pragma parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pragma:
    line: int
    rule_ids: Tuple[str, ...]
    reason: str


def _iter_comments(source: str) -> Iterator[Tuple[int, int, str]]:
    """(line, col, text) for every real comment token.

    Tokenizing keeps pragma parsing honest: a pragma example inside a
    docstring or string literal is not a pragma.  Tokenize errors (the
    file already parsed, so only exotic encodings get here) degrade to
    no comments rather than failing the run.
    """
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return


def _scan_pragmas(
    source: str, path: str, registry: RuleRegistry
) -> Tuple[Dict[int, _Pragma], List[Finding]]:
    """Per-line suppressions plus findings for malformed pragmas."""
    pragmas: Dict[int, _Pragma] = {}
    problems: List[Finding] = []
    for lineno, col0, text in _iter_comments(source):
        hint = _PRAGMA_HINT.search(text)
        if hint is None:
            continue
        col = col0 + hint.start() + 1
        match = _PRAGMA_STRICT.search(text)
        if match is None:
            problems.append(
                Finding(
                    PRAGMA_RULE_ID,
                    path,
                    lineno,
                    col,
                    "malformed pragma; expected "
                    "'# repro: allow(<rule-id>) -- <reason>'",
                )
            )
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        unknown = [rule_id for rule_id in rule_ids if rule_id not in registry]
        if unknown:
            problems.append(
                Finding(
                    PRAGMA_RULE_ID,
                    path,
                    lineno,
                    col,
                    "pragma names unknown rule(s): %s" % ", ".join(unknown),
                )
            )
            continue
        pragmas[lineno] = _Pragma(lineno, rule_ids, match.group("reason").strip())
    return pragmas, problems


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path, rooted at the ``src`` layout.

    ``src/repro/simulation/engine.py`` → ``repro.simulation.engine``;
    ``__init__.py`` maps to its package.  Outside ``src``, a file in a
    package is named from the package's top directory, however the path
    is spelled (``/abs/repo/benchmarks/perf.py`` → ``benchmarks.perf``).
    Files outside any recognizable root fall back to slash-to-dot of the
    relative path.
    """
    import os

    parts = os.path.normpath(path).split(os.sep)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        top = len(parts) - 1
        while top > 0 and os.path.isfile(
            os.path.join(os.sep.join(parts[:top]) or os.sep, "__init__.py")
        ):
            top -= 1
        if top < len(parts) - 1:
            parts = parts[top:]
    parts = [part for part in parts if part not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    # ``__main__.py`` keeps its name: ``repro.__main__`` is a real,
    # allowlistable module.
    return ".".join(parts)


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[Finding]:
    """Analyze one module's source text; the core entry point."""
    config = config if config is not None else DEFAULT_CONFIG
    registry = registry if registry is not None else DEFAULT_REGISTRY
    module = module if module is not None else module_name_for_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "syntax-error",
                path,
                exc.lineno or 1,
                (exc.offset or 1),
                "could not parse: %s" % exc.msg,
            )
        ]
    ctx = ModuleContext(path, module, tree, source, config)
    pragmas, findings = _scan_pragmas(source, path, registry)

    active = [
        rule
        for rule in registry.rules(config.select)
        if not config.module_allowed(rule.id, module)
    ]
    by_type: Dict[type, List[Rule]] = {}
    for rule in active:
        for node_type in rule.node_types:
            by_type.setdefault(node_type, []).append(rule)

    raw: List[Tuple[Rule, ast.AST, str]] = []
    for rule in active:
        for node, message in rule.module_scan(ctx):
            raw.append((rule, node, message))
    for node in ast.walk(tree):
        for rule in by_type.get(type(node), ()):
            for hit_node, message in rule.check(node, ctx):
                raw.append((rule, hit_node, message))

    for rule, node, message in raw:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        pragma = pragmas.get(line)
        suppressed = pragma is not None and rule.id in pragma.rule_ids
        findings.append(
            Finding(
                rule.id,
                path,
                line,
                col,
                message,
                suppressed=suppressed,
                suppression_reason=pragma.reason if suppressed else None,
            )
        )
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: str,
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, config=config, registry=registry)


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    import os

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def lint_paths(
    paths: Iterable[str],
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[Finding]:
    """Analyze files and directory trees; deterministic file order."""
    findings: List[Finding] = []
    for file_path in _iter_python_files(paths):
        findings.extend(lint_file(file_path, config=config, registry=registry))
    return findings
