"""Developer tooling that guards the repo's own invariants.

The load-bearing invariant of this reproduction is byte-identical
artefacts across crash/resume cycles, fault seeds, and
``PYTHONHASHSEED`` values.  The runtime determinism suites catch
violations one seed at a time; :mod:`repro.devtools.lint` catches the
hazard *classes* statically — unseeded RNGs, wallclock reads,
hash-order-dependent iteration, shared module state — so a
violation fails CI before it ever reaches a seed.
"""
