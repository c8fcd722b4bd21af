"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The ``repro``
package is imported from ``src/`` of the checkout this file lives in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / ".perfbench-state" / "fingerprints.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "crawl", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no repro package under %s; nothing to measure" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import FingerprintLedger, program_hash

    program = program_hash(SRC / "repro", ROOT / "perfbench")
    outcome = bench.run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        SRC,
        ledger=FingerprintLedger(LEDGER, program),
    )
    for line in outcome.lines:
        print(line)
    print(json.dumps(bench.result_json(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
