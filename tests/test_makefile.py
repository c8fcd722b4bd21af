"""Every test path a Makefile target names exists.

The focused targets (``test-integrity``, ``test-writepath``, ...) list
test files by path; a file deleted without its Makefile entry would make
the target error out instead of running its suite.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A path under tests/, benchmarks/ or perfbench/, optionally with a
# ``::node`` suffix (the suffix is not checked).
TEST_PATH = re.compile(r"(?<![\w/.])((?:tests|benchmarks|perfbench)/[\w/.]*)(?:::\S+)?")


def makefile_test_paths() -> list[str]:
    with open(os.path.join(ROOT, "Makefile")) as handle:
        text = handle.read()
    return sorted(set(TEST_PATH.findall(text)))


def test_makefile_names_test_paths():
    paths = makefile_test_paths()
    assert "tests/test_equivalence.py" in paths
    assert "perfbench/tests" in paths


def test_every_makefile_test_path_exists():
    missing = [path for path in makefile_test_paths() if not os.path.exists(os.path.join(ROOT, path))]
    assert not missing, "Makefile names missing test paths: %s" % missing
