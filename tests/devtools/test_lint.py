"""Self-tests for the determinism & shard-safety analyzer.

Fixture-driven: every rule is exercised with (a) a violating snippet it
must flag and (b) the sanctioned pattern it must stay quiet on, plus the
pragma, allowlist, reporter, and CLI behaviors the rollout relies on.
The final class asserts the real tree lints clean — the enforceable
invariant `make lint-determinism` and CI check from this PR onward.
"""

import json
import os
import textwrap

import pytest

from repro.devtools.lint import (
    DEFAULT_CONFIG,
    DEFAULT_REGISTRY,
    LintConfig,
    exit_code,
    lint_paths,
    lint_source,
    module_name_for_path,
    render_json,
    render_text,
)
from repro.devtools.lint.cli import main as lint_main

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

# Non-allowlisted module outside the simulation engine: every rule is
# live, and module-level snippet assignments don't trip the state rule.
SIM_MODULE = "repro.core.pipeline"


def run(source, module=SIM_MODULE, config=None):
    """Lint a dedented snippet as if it were the given module."""
    return lint_source(textwrap.dedent(source), path="snippet.py", module=module, config=config)


def rule_ids(findings, include_suppressed=False):
    return sorted(
        {f.rule_id for f in findings if include_suppressed or not f.suppressed}
    )


class TestUnseededRandom:
    def test_global_call_fires(self):
        findings = run(
            """
            import random
            value = random.randint(1, 6)
            """
        )
        assert rule_ids(findings) == ["unseeded-random"]

    def test_from_import_fires(self):
        findings = run("from random import shuffle\n")
        assert rule_ids(findings) == ["unseeded-random"]

    def test_seeded_instance_quiet(self):
        findings = run(
            """
            import random
            from repro.simulation.sharding import derive_seed
            rng = random.Random(derive_seed(2024, "schedule"))
            value = rng.randint(1, 6)
            rng.shuffle([1, 2, 3])
            """
        )
        assert findings == []


class TestWallclock:
    def test_time_call_fires(self):
        findings = run(
            """
            import time
            started = time.time()
            """
        )
        assert rule_ids(findings) == ["wallclock"]

    def test_perf_counter_import_fires(self):
        findings = run("from time import perf_counter\n")
        assert rule_ids(findings) == ["wallclock"]

    def test_datetime_now_fires(self):
        findings = run(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        )
        assert rule_ids(findings) == ["wallclock"]

    def test_allowlisted_module_quiet(self):
        findings = run(
            """
            import time
            started = time.perf_counter()
            """,
            module="repro.obs.trace",
        )
        assert findings == []

    def test_time_sleep_quiet(self):
        findings = run(
            """
            import time
            time.sleep(0.1)
            """
        )
        assert findings == []


class TestUnsortedSetIter:
    def test_keys_union_fires(self):
        findings = run(
            """
            def diff(a, b):
                for key in a.keys() | b.keys():
                    yield key
            """
        )
        assert rule_ids(findings) == ["unsorted-set-iter"]

    def test_set_call_in_comprehension_fires(self):
        findings = run("names = [n for n in set(raw)]\n")
        assert rule_ids(findings) == ["unsorted-set-iter"]

    def test_set_literal_fires(self):
        findings = run(
            """
            for tag in {"a", "b", "c"}:
                print(tag)
            """
        )
        assert rule_ids(findings) == ["unsorted-set-iter"]

    def test_get_with_set_default_fires(self):
        # ``mapping.get(key, set())`` iterates a set-valued mapping entry
        # in hash order — the pattern behind the getTimeline tie-break bug.
        findings = run(
            """
            def timeline(following, actor):
                for did in following.get(actor, set()):
                    yield did
            """
        )
        assert rule_ids(findings) == ["unsorted-set-iter"]

    def test_get_with_set_default_in_comprehension_fires(self):
        findings = run("dids = [d for d in follows.get(actor, frozenset())]\n")
        assert rule_ids(findings) == ["unsorted-set-iter"]

    def test_get_with_non_set_default_quiet(self):
        findings = run(
            """
            for uri in posts_by_author.get(did, ()):
                print(uri)
            for uri in posts_by_author.get(did, []):
                print(uri)
            """
        )
        assert findings == []

    def test_get_with_set_default_sorted_quiet(self):
        findings = run(
            """
            for did in sorted(following.get(actor, set())):
                print(did)
            """
        )
        assert findings == []

    def test_sorted_wrapper_quiet(self):
        findings = run(
            """
            def diff(a, b):
                for key in sorted(a.keys() | b.keys()):
                    yield key
            items = [n for n in sorted(set(raw))]
            """
        )
        assert findings == []

    def test_plain_iteration_quiet(self):
        findings = run(
            """
            for item in items:
                print(item)
            for key in mapping:
                print(key)
            """
        )
        assert findings == []


class TestDictPopitem:
    def test_popitem_fires(self):
        findings = run("pair = cache.popitem()\n")
        assert rule_ids(findings) == ["dict-popitem"]

    def test_explicit_pop_quiet(self):
        assert run("value = cache.pop('key')\n") == []


class TestEnvRead:
    def test_environ_get_fires(self):
        findings = run(
            """
            import os
            debug = os.environ.get("REPRO_DEBUG")
            """
        )
        assert rule_ids(findings) == ["env-read"]

    def test_getenv_fires(self):
        findings = run(
            """
            import os
            debug = os.getenv("REPRO_DEBUG")
            """
        )
        assert rule_ids(findings) == ["env-read"]

    def test_allowlisted_cli_quiet(self):
        findings = run(
            """
            import os
            debug = os.environ.get("REPRO_DEBUG")
            """,
            module="repro.__main__",
        )
        assert findings == []


class TestIdHashOrder:
    def test_key_id_fires(self):
        findings = run("ordered = sorted(objects, key=id)\n")
        assert rule_ids(findings) == ["id-hash-order"]

    def test_lambda_hash_fires(self):
        findings = run("objects.sort(key=lambda o: hash(o.name))\n")
        assert rule_ids(findings) == ["id-hash-order"]

    def test_domain_key_quiet(self):
        findings = run(
            """
            ordered = sorted(posts, key=lambda p: (p.time_us, p.uri))
            smallest = min(posts, key=lambda p: p.seq)
            """
        )
        assert findings == []

    def test_key_kwarg_outside_sort_quiet(self):
        assert run("record = dict(key=id)\n") == []


class TestModuleMutableState:
    def test_module_level_dict_fires_in_spawn_module(self):
        findings = run("CACHE = {}\n", module="repro.simulation.engine")
        assert rule_ids(findings) == ["module-mutable-state"]

    def test_constructor_call_fires(self):
        findings = run(
            """
            from collections import defaultdict
            ROUTES = defaultdict(list)
            """,
            module="repro.simulation.sharding",
        )
        assert rule_ids(findings) == ["module-mutable-state"]

    def test_immutable_constants_quiet(self):
        findings = run(
            """
            RATE_LIKES = 6.0
            SHARD_KEYS = ("a", "b")
            NAMES = frozenset({"x"})
            """,
            module="repro.simulation.engine",
        )
        # frozenset({...}) is a call over a set literal, not iteration.
        assert findings == []

    def test_non_spawn_module_quiet(self):
        assert run("CACHE = {}\n", module="repro.core.report") == []

    def test_dunder_and_function_local_quiet(self):
        findings = run(
            """
            __all__ = ["a"]

            def build():
                local = {}
                return local
            """,
            module="repro.simulation.engine",
        )
        assert findings == []


class TestSwallowedException:
    def test_bare_except_pass_fires(self):
        findings = run(
            """
            try:
                step()
            except:
                pass
            """
        )
        assert rule_ids(findings) == ["swallowed-exception"]

    def test_broad_tuple_continue_fires(self):
        findings = run(
            """
            for item in items:
                try:
                    step(item)
                except (ValueError, Exception):
                    continue
            """
        )
        assert rule_ids(findings) == ["swallowed-exception"]

    def test_narrow_type_quiet(self):
        findings = run(
            """
            try:
                step()
            except BlobError:
                pass
            """
        )
        assert findings == []

    def test_handled_broad_exception_quiet(self):
        findings = run(
            """
            try:
                step()
            except Exception as exc:
                failures.append(exc)
            """
        )
        assert findings == []


class TestPragmaSuppression:
    def test_pragma_suppresses_and_records_reason(self):
        findings = run(
            """
            import time
            t = time.time()  # repro: allow(wallclock) -- progress display only
            """
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].suppression_reason == "progress display only"
        assert exit_code(findings) == 0

    def test_pragma_only_covers_named_rule(self):
        findings = run(
            """
            import time
            t = time.time() and cache.popitem()  # repro: allow(wallclock) -- timing only
            """
        )
        active = rule_ids(findings)
        assert active == ["dict-popitem"]
        assert exit_code(findings) == 1

    def test_multi_rule_pragma(self):
        findings = run(
            "t = time.time() and d.popitem()  "
            "# repro: allow(wallclock, dict-popitem) -- fixture exercising both\n"
        )
        assert rule_ids(findings) == []
        assert len(findings) == 2

    def test_missing_reason_is_malformed(self):
        findings = run("t = 1  # repro: allow(wallclock)\n")
        assert rule_ids(findings) == ["pragma-syntax"]

    def test_unknown_rule_id_is_flagged(self):
        findings = run("t = 1  # repro: allow(no-such-rule) -- whatever\n")
        assert rule_ids(findings) == ["pragma-syntax"]
        assert "no-such-rule" in findings[0].message

    def test_pragma_in_string_is_not_a_pragma(self):
        findings = run(
            'DOC = "example: # repro: allow(wallclock)"\n'
        )
        assert findings == []


class TestFrameworkPlumbing:
    def test_module_name_for_path(self):
        assert (
            module_name_for_path("src/repro/simulation/engine.py")
            == "repro.simulation.engine"
        )
        assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name_for_path("src/repro/__main__.py") == "repro.__main__"
        assert module_name_for_path("tests/core/test_pipeline.py") == "tests.core.test_pipeline"

    def test_module_name_is_rooted_at_the_top_package(self):
        absolute = os.path.join(REPO_ROOT, "benchmarks", "perf.py")
        assert module_name_for_path(absolute) == "benchmarks.perf"
        oracles = os.path.join(REPO_ROOT, "tests", "services", "oracles.py")
        assert module_name_for_path(oracles) == "tests.services.oracles"

    def test_select_restricts_rules(self):
        config = LintConfig(select=("dict-popitem",))
        findings = run(
            """
            import time
            t = time.time()
            pair = cache.popitem()
            """,
            config=config,
        )
        assert rule_ids(findings) == ["dict-popitem"]

    def test_unknown_select_raises(self):
        config = LintConfig(select=("nope",))
        with pytest.raises(KeyError):
            run("x = 1\n", config=config)

    def test_syntax_error_is_reported_not_raised(self):
        findings = run("def broken(:\n")
        assert rule_ids(findings) == ["syntax-error"]

    def test_every_rule_documents_itself(self):
        for rule in DEFAULT_REGISTRY.rules():
            assert rule.id and rule.summary and rule.rationale

    def test_default_allowlist_names_known_rules(self):
        for rule_id in DEFAULT_CONFIG.allowlist:
            assert rule_id in DEFAULT_REGISTRY


class TestReporters:
    def _mixed_findings(self):
        return run(
            """
            import time
            a = time.time()
            b = time.time()  # repro: allow(wallclock) -- sanctioned fixture
            """
        )

    def test_text_report_hides_suppressed_by_default(self):
        findings = self._mixed_findings()
        text = render_text(findings)
        assert "1 finding (+1 suppressed by pragma)" in text
        assert "sanctioned fixture" not in text
        verbose = render_text(findings, verbose=True)
        assert "sanctioned fixture" in verbose

    def test_json_report_shape_and_determinism(self):
        findings = self._mixed_findings()
        payload = json.loads(render_json(findings))
        assert payload["summary"] == {
            "total": 2,
            "unsuppressed": 1,
            "suppressed": 1,
            "by_rule": {"wallclock": 1},
        }
        assert [f["line"] for f in payload["findings"]] == [3, 4]
        assert render_json(findings) == render_json(list(findings))

    def test_exit_codes(self):
        assert exit_code([]) == 0
        assert exit_code(self._mixed_findings()) == 1


class TestCli:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert lint_main([path]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_exits_one_and_json_artefact(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "bad.py",
            """
            import time
            t = time.time()
            """,
        )
        json_out = tmp_path / "lint.json"
        assert lint_main([path, "--json-out", str(json_out)]) == 1
        assert "wallclock" in capsys.readouterr().out
        payload = json.loads(json_out.read_text())
        assert payload["summary"]["unsuppressed"] == 1

    def test_json_format_stdout(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert lint_main([path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_REGISTRY.rules():
            assert rule.id in out

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert lint_main([path, "--select", "bogus"]) == 2

    def test_missing_path_exits_two(self):
        assert lint_main(["definitely/not/a/path.py"]) == 2

    def test_no_allowlist_audit_mode(self, tmp_path):
        path = self._write(
            tmp_path,
            "src/repro/obs/fake_trace.py".replace("/", "_"),
            """
            import time
            t = time.perf_counter()
            """,
        )
        # The same source linted as an allowlisted module is quiet unless
        # audit mode disables the allowlist.
        source = open(path).read()
        quiet = lint_source(source, module="repro.obs.trace")
        assert quiet == []
        audit = lint_source(
            source,
            module="repro.obs.trace",
            config=LintConfig(allowlist={}, state_modules=DEFAULT_CONFIG.state_modules),
        )
        assert rule_ids(audit) == ["wallclock"]


class TestTreeLintsClean:
    """The rollout invariant: the repository has zero unsuppressed findings."""

    def test_src_tests_benchmarks_scripts_clean(self):
        paths = [
            os.path.join(REPO_ROOT, name)
            for name in ("src", "tests", "benchmarks", "scripts", "examples")
        ]
        findings = lint_paths([p for p in paths if os.path.exists(p)])
        offending = [f.render() for f in findings if not f.suppressed]
        assert offending == [], "\n".join(offending)

    def test_suppressions_all_carry_reasons(self):
        findings = lint_paths([os.path.join(REPO_ROOT, "src")])
        for finding in findings:
            if finding.suppressed:
                assert finding.suppression_reason
