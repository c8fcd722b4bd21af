"""Repository benchmark: the ``study``, ``crawl`` and ``serve`` workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against the ``repro`` package found under ``src/`` of the
same checkout.  See ``perfbench/README.md``.
"""
