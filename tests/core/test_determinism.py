"""Regression guard for the commit-pipeline fast path.

The samplers, memoized MST layers, cached commit blocks, and lazy wire
frames are all supposed to be *invisible* to the simulation: two runs
with the same seed must produce the same firehose (Table 1 inputs) and
the same signed repository heads on the relay.  The two runs are the
session's clean reference and its in-process rerun, which
``tests/test_equivalence.py`` compares through one fingerprint; these
tests name the part that drifted.
"""

from tests.conftest import relay_heads


class TestSeededReproducibility:
    def test_table1_event_counts_identical(self, study_datasets, clean_rerun):
        a, b = study_datasets, clean_rerun.datasets
        assert dict(a.firehose.event_counts) == dict(b.firehose.event_counts)
        assert dict(a.firehose.op_counts) == dict(b.firehose.op_counts)

    def test_firehose_bytes_identical(self, study_datasets, clean_rerun):
        rerun = clean_rerun.datasets
        assert study_datasets.firehose.bytes_received == rerun.firehose.bytes_received

    def test_relay_heads_identical(self, study_world, clean_rerun):
        heads = relay_heads(study_world)
        assert heads  # the relay must actually have crawled repos
        assert heads == relay_heads(clean_rerun.world)

    def test_repo_revs_identical(self, study_world, clean_rerun):
        def revs(world):
            return {did: rev for did, (_, rev) in relay_heads(world).items()}

        assert revs(study_world) == revs(clean_rerun.world)
