"""Differential test: the flat DAG-CBOR decoder against the class-based oracle.

Inputs are every block of the clean reference study's repository CAR
exports (``tests/conftest.py``), plus a fixed set of seeded mutations of
them (byte flips, truncations and insertions).  On each input the
production decoder must return the oracle's value, key order and types
included, or raise the same exception class.
"""

import random

import pytest

from repro.atproto.car import read_car
from repro.atproto.cbor import cbor_decode
from tests.atproto.oracles import oracle_cbor_decode

MUTATION_SEED = 17
MUTATIONS = 6000


@pytest.fixture(scope="module")
def repo_blocks(study_world) -> list[bytes]:
    blocks = []
    for pds in study_world.pds_shards:
        for row in pds.xrpc_listRepos(limit=100_000)["repos"]:
            blocks.extend(read_car(pds.xrpc_getRepo(did=row["did"]))[1].values())
    return blocks


def outcome(decode, data: bytes):
    """``("ok", repr)`` of the value, or ``("error", exception class)``.

    ``repr`` keeps what ``==`` forgets: dict key order, and ``True``
    against ``1``."""
    try:
        return ("ok", repr(decode(data)))
    except Exception as exc:  # the class is the result under comparison
        return ("error", type(exc))


def mutate(rng: random.Random, block: bytes) -> bytes:
    kind = rng.randrange(3)
    pos = rng.randrange(len(block))
    if kind == 0:  # flip one byte to another value
        return block[:pos] + bytes([block[pos] ^ rng.randrange(1, 256)]) + block[pos + 1 :]
    if kind == 1:  # truncate
        return block[:pos]
    return block[:pos] + bytes([rng.randrange(256)]) + block[pos:]  # insert one byte


def test_every_repo_block_decodes_like_the_oracle(repo_blocks):
    assert len(repo_blocks) > 1000
    for block in repo_blocks:
        assert outcome(cbor_decode, block) == outcome(oracle_cbor_decode, block)


def test_seeded_mutations_decode_like_the_oracle(repo_blocks):
    rng = random.Random(MUTATION_SEED)
    errors = 0
    for _ in range(MUTATIONS):
        data = mutate(rng, rng.choice(repo_blocks))
        expected = outcome(oracle_cbor_decode, data)
        assert outcome(cbor_decode, data) == expected, data.hex()
        errors += expected[0] == "error"
    # The mutations reach the error paths, not only the happy path.
    assert errors > MUTATIONS // 4
