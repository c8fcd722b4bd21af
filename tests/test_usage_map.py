"""The report half of ``scripts/usage_map.py``, on a fixture package.

No entry point runs here: the call records are written by hand.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = '''\
import functools


def outer():
    def inner():
        return 1

    return inner()


@functools.lru_cache(maxsize=None)
def cached(value):
    return value


class Box:
    def size(self):
        return 0
'''


def load_script():
    spec = importlib.util.spec_from_file_location(
        "usage_map", os.path.join(ROOT, "scripts", "usage_map.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


usage_map = load_script()


@pytest.fixture
def package(tmp_path):
    """``tmp_path/src/fixpkg`` with one module, and a ``scripts/`` sibling."""
    package_dir = tmp_path / "src" / "fixpkg"
    package_dir.mkdir(parents=True)
    (package_dir / "__init__.py").write_text("")
    (package_dir / "mod.py").write_text(FIXTURE)
    (tmp_path / "scripts").mkdir()
    return package_dir


def write_records(tmp_path, rows):
    records = tmp_path / "records"
    records.mkdir()
    (records / "calls-1.txt").write_text("".join("%s\t%d\n" % row for row in rows))
    return str(records)


def by_name(functions):
    return {function.qualname: function for function in functions.values()}


def test_nested_and_decorated_defs_are_keyed_as_the_recorder_sees_them(package):
    functions, names = usage_map.list_functions(str(package))
    found = by_name(functions)
    assert sorted(found) == ["Box.size", "cached", "outer", "outer.<locals>.inner"]
    assert "fixpkg.mod:Box" in names
    sys.path.insert(0, str(package.parent))
    try:
        mod = importlib.import_module("fixpkg.mod")
    finally:
        sys.path.remove(str(package.parent))
        sys.modules.pop("fixpkg.mod", None)
        sys.modules.pop("fixpkg", None)
    # A decorated def is keyed on its first decorator's line, which is the
    # line its code object reports.
    assert found["cached"].line == mod.cached.__wrapped__.__code__.co_firstlineno
    assert FIXTURE.splitlines()[found["cached"].line - 1].startswith("@functools")
    assert found["outer"].line == mod.outer.__code__.co_firstlineno
    assert found["outer.<locals>.inner"].span == 2


def test_a_path_through_dotdot_counts_as_the_same_file(package, tmp_path):
    functions, _ = usage_map.list_functions(str(package))
    found = by_name(functions)
    detour = os.path.join(str(tmp_path), "scripts", "..", "src", "fixpkg", "mod.py")
    records = write_records(
        tmp_path,
        [(detour, found["outer"].line), (detour, found["outer.<locals>.inner"].line)],
    )
    usage = usage_map.build_map(str(package), usage_map.read_calls(records), {}, {})
    assert sorted(f.qualname for f in usage.rest) == ["Box.size", "cached"]


def test_reasons_account_for_uncalled_functions(package, tmp_path):
    keep = {"fixpkg.mod:Box": "protocol: an interface"}
    reasons = {"fixpkg.mod:cached": "perfbench span x", "fixpkg.mod:outer": "imported"}
    usage = usage_map.build_map(str(package), set(), keep, reasons)
    accounted = {f.qualname: reason for f, reason in usage.accounted}
    # A keep entry covers what is defined in it; other reasons cover only
    # the name they give.
    assert accounted == {
        "Box.size": "protocol: an interface",
        "cached": "perfbench span x",
        "outer": "imported",
    }
    assert [f.qualname for f in usage.rest] == ["outer.<locals>.inner"]


def test_keep_line_without_reason_is_refused(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("# comment\nfixpkg.mod:cached\n")
    with pytest.raises(ValueError, match="no reason"):
        usage_map.read_keep_list(str(path))


def test_keep_reason_outside_the_categories_is_refused(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("fixpkg.mod:cached  handy: might be useful\n")
    with pytest.raises(ValueError, match="category"):
        usage_map.read_keep_list(str(path))


def test_keep_entry_for_a_missing_function_is_stale(package, tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text(
        "fixpkg.mod:cached  input: checks its argument\n"
        "fixpkg.mod:gone  branch: deleted since\n"
    )
    keep = usage_map.read_keep_list(str(path))
    usage = usage_map.build_map(str(package), set(), keep, {})
    assert usage.stale == ["fixpkg.mod:gone"]
    assert usage_map.report(usage) == 1


def test_committed_keep_list_names_existing_code():
    keep = usage_map.read_keep_list(usage_map.KEEP_PATH)
    _, names = usage_map.list_functions(os.path.join(usage_map.SRC, "repro"))
    assert keep
    assert sorted(name for name in keep if name not in names) == []
