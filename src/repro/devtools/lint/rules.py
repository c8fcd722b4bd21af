"""Built-in rules: the hazard classes that break byte-identical runs.

Each rule documents the sanctioned pattern in its ``summary`` /
``rationale`` so a finding tells the reader what to write instead.  All
rules register into :data:`~repro.devtools.lint.framework.DEFAULT_REGISTRY`
at import time; ids are stable and double as the pragma / allowlist keys.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.devtools.lint.framework import DEFAULT_REGISTRY, ModuleContext, Rule

register = DEFAULT_REGISTRY.register

Hit = Tuple[ast.AST, str]


def _call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target, e.g. ``time.perf_counter``."""
    return _dotted(node.func)


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base + "." + node.attr if base else None
    return None


# ---------------------------------------------------------------------------
# RNG and clock hygiene
# ---------------------------------------------------------------------------

_MODULE_RNG_FNS = frozenset(
    {
        "betavariate", "binomialvariate", "choice", "choices", "expovariate",
        "gammavariate", "gauss", "getrandbits", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint", "random",
        "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
        "uniform", "vonmisesvariate", "weibullvariate",
    }
)


@register
class UnseededRandomRule(Rule):
    id = "unseeded-random"
    summary = (
        "module-level random.* call (or import of one); use a seeded "
        "random.Random(derive_seed(...)) stream"
    )
    rationale = (
        "The global random module RNG is process-wide shared state: its "
        "sequence depends on import order, other callers, and the default "
        "OS-entropy seed, so two runs of the same seed diverge. "
        "Every stream in this codebase is an explicit random.Random "
        "seeded via repro.simulation.sharding.derive_seed."
    )
    node_types = (ast.Call, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _MODULE_RNG_FNS:
                        yield (
                            node,
                            "importing random.%s binds the global RNG; "
                            "instantiate random.Random(derive_seed(...)) instead"
                            % alias.name,
                        )
            return
        name = _call_name(node)  # type: ignore[arg-type]
        if name is None:
            return
        if name.startswith("random.") and name.split(".", 1)[1] in _MODULE_RNG_FNS:
            yield (
                node,
                "call to %s uses the unseeded process-global RNG; "
                "use a random.Random(derive_seed(...)) instance" % name,
            )


_WALLCLOCK_TIME_FNS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
)
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


@register
class WallclockRule(Rule):
    id = "wallclock"
    summary = (
        "wallclock read outside allowlisted telemetry/bench modules; "
        "simulation code must use virtual time (world clock / now_us)"
    )
    rationale = (
        "Artefacts must be byte-identical across runs; any wallclock or "
        "monotonic-clock value that reaches simulation, protocol, or "
        "analysis state varies per run.  Telemetry (repro.obs.*) and the "
        "bench harness are allowlisted because their wall-time outputs "
        "are excluded from artefact fingerprints."
    )
    node_types = (ast.Call, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALLCLOCK_TIME_FNS:
                        yield (
                            node,
                            "importing time.%s exposes a wallclock here; "
                            "read clocks only in allowlisted modules" % alias.name,
                        )
            return
        name = _call_name(node)  # type: ignore[arg-type]
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "time" and len(parts) == 2 and parts[1] in _WALLCLOCK_TIME_FNS:
            yield (node, "wallclock read %s() in non-telemetry module" % name)
        elif (
            parts[-1] in _WALLCLOCK_DATETIME_FNS
            and len(parts) >= 2
            and parts[-2] in ("datetime", "date")
        ):
            yield (node, "wallclock read %s() in non-telemetry module" % name)


# ---------------------------------------------------------------------------
# Hash-order-dependent iteration
# ---------------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHOD_CALLS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_set_valued(node: ast.AST) -> Optional[str]:
    """A short description if ``node`` is syntactically set-valued."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _SET_CONSTRUCTORS:
            return "%s(...)" % name
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHOD_CALLS
        ):
            return ".%s(...)" % node.func.attr
        # ``mapping.get(key, set())``: a set-valued default is the tell
        # that the mapping holds sets, so the lookup result iterates in
        # hash order just like a bare set expression.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
            and not node.keywords
            and _is_set_valued(node.args[1]) is not None
        ):
            return ".get(..., %s)" % _is_set_valued(node.args[1])
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        for side in (node.left, node.right):
            if _is_keys_call(side) or _is_set_valued(side):
                return "set algebra over dict views/sets"
    return None


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items")
        and not node.args
        and not node.keywords
    )


@register
class UnsortedSetIterRule(Rule):
    id = "unsorted-set-iter"
    summary = (
        "iteration over a set / set expression without sorted(...); "
        "order follows PYTHONHASHSEED"
    )
    rationale = (
        "Set iteration order depends on element hashes, which for str "
        "and bytes are randomized per interpreter.  Anything derived "
        "from the visit order (dict insertion order, event sequence, "
        "tie-breaks) silently varies with PYTHONHASHSEED.  Wrap the "
        "expression in sorted(...) or iterate a deterministic container."
    )
    node_types = (ast.For, ast.comprehension)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        iter_expr = node.iter  # type: ignore[union-attr]
        what = _is_set_valued(iter_expr)
        if what is not None:
            yield (
                iter_expr,
                "iterating %s; wrap in sorted(...) for a stable order" % what,
            )


@register
class DictPopitemRule(Rule):
    id = "dict-popitem"
    summary = "dict.popitem()/set.pop() removes an order-dependent element"
    rationale = (
        "popitem() takes the most-recently-inserted entry and set.pop() "
        "an arbitrary (hash-order) element; both make control flow "
        "depend on container history in ways that crash/resume and "
        "sharding do not replay.  Pop an explicit key instead."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        func = node.func  # type: ignore[union-attr]
        if isinstance(func, ast.Attribute) and func.attr == "popitem":
            yield (node, "dict.popitem() is order-dependent; pop an explicit key")


@register
class IdHashOrderRule(Rule):
    id = "id-hash-order"
    summary = "ordering by id() or hash(); both vary per interpreter run"
    rationale = (
        "id() is an address and hash() is PYTHONHASHSEED-dependent for "
        "str/bytes, so any sort or min/max keyed on them produces a "
        "per-run order.  Key on a stable domain attribute (did, uri, "
        "seq) instead."
    )
    node_types = (ast.keyword,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        if node.arg != "key":  # type: ignore[union-attr]
            return
        value = node.value  # type: ignore[union-attr]
        parent = ctx.parent(node)
        if not (
            isinstance(parent, ast.Call)
            and (
                _call_name(parent) in ("sorted", "min", "max")
                or (
                    isinstance(parent.func, ast.Attribute)
                    and parent.func.attr == "sort"
                )
            )
        ):
            return
        bad = None
        if isinstance(value, ast.Name) and value.id in ("id", "hash"):
            bad = value.id
        elif isinstance(value, ast.Lambda):
            for sub in ast.walk(value.body):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("id", "hash")
                ):
                    bad = sub.func.id
                    break
        if bad is not None:
            yield (value, "ordering key uses %s(); not stable across runs" % bad)


# ---------------------------------------------------------------------------
# Environment and exception hygiene
# ---------------------------------------------------------------------------


@register
class EnvReadRule(Rule):
    id = "env-read"
    summary = "os.environ / os.getenv read in simulation or protocol code"
    rationale = (
        "Environment variables make behavior depend on the invoking "
        "shell, so two runs of the same seed can diverge. "
        "Thread configuration through SimulationConfig instead."
    )
    node_types = (ast.Attribute, ast.Call)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        if isinstance(node, ast.Call):
            if _call_name(node) == "os.getenv":
                yield (node, "os.getenv() read; thread config explicitly instead")
            return
        if _dotted(node) == "os.environ":
            # Only flag the read itself, not e.g. ``os.environ`` inside a
            # larger dotted path already reported via its own Attribute.
            parent = ctx.parent(node)
            if not (isinstance(parent, ast.Attribute)):
                yield (node, "os.environ read; thread config explicitly instead")
            elif parent.attr in ("get", "setdefault", "__getitem__", "copy", "items", "keys", "values", "pop"):
                yield (node, "os.environ.%s read; thread config explicitly instead" % parent.attr)


@register
class SwallowedExceptionRule(Rule):
    id = "swallowed-exception"
    summary = (
        "broad except with pass/continue body; failures must surface "
        "(or use the try_call fault-injection path)"
    )
    rationale = (
        "`except Exception: pass` hides real divergence — a run that "
        "swallows an error produces different state than one that "
        "doesn't, with no trace.  Catch the narrowest type that the "
        "fault model sanctions, or route through ServiceDirectory."
        "try_call which classifies transport faults explicitly."
    )
    node_types = (ast.ExceptHandler,)

    _BROAD = ("Exception", "BaseException")

    def _is_broad(self, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return False

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Hit]:
        handler = node  # type: ignore[assignment]
        if not self._is_broad(handler.type):  # type: ignore[union-attr]
            return
        body = handler.body  # type: ignore[union-attr]
        meaningful = [
            stmt
            for stmt in body
            if not (
                isinstance(stmt, (ast.Pass, ast.Continue))
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            )
        ]
        if not meaningful:
            yield (
                handler,
                "broad exception swallowed silently; narrow the type or "
                "surface the failure",
            )


# ---------------------------------------------------------------------------
# Per-run state in the simulation engine
# ---------------------------------------------------------------------------


_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)


@register
class ModuleMutableStateRule(Rule):
    id = "module-mutable-state"
    summary = (
        "module-level mutable state in a simulation-engine module; "
        "per-run state must live on an instance"
    )
    rationale = (
        "Tests and the benchmark build several worlds in one process, "
        "so module-level dicts/lists/sets in the engine outlive a run: "
        "state one world mutates leaks into the next and makes the "
        "same seed produce different bytes.  Keep per-run state on "
        "World/SimProcess instances; module level is for immutable "
        "calibration constants."
    )
    node_types = ()

    def module_scan(self, ctx: ModuleContext) -> Iterator[Hit]:
        if not ctx.config.is_state_module(ctx.module):
            return
        for stmt in ctx.tree.body:
            targets: list
            value: Optional[ast.AST]
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if value is None or not self._is_mutable(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(name.startswith("__") for name in names):
                continue
            yield (
                stmt,
                "module-level mutable assignment to %s in a simulation-"
                "engine module; move onto an instance or make it immutable"
                % ", ".join(names),
            )

    @staticmethod
    def _is_mutable(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            name = _call_name(value)
            return name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
        return False
