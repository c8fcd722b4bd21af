"""Differential test: the one-pass repo CAR import, and the dataset rows
read from it, against the tree-building oracle.

Inputs are every repository CAR of the clean reference study
(``tests/conftest.py``), plus seeded mutations of them.  A mutation
rewrites, adds or drops blocks, and every block that links to a rewritten
one is re-linked and re-hashed up to a new root commit, so the CAR still
passes the digest check and the damage reaches the node reader, the tree
walk or the record decoder.  On each input :func:`import_car`, its records
decoded in key order, must give the snapshot of :func:`oracle_import_car`
(records and record CIDs, in order) or raise the same exception class with
the same message, and :meth:`IntegrityMonitor.verify_repo_car` must
quarantine it under the same kind and detail.  The Repositories dataset
the crawl reads from a CAR, its records read in place where their layout
allows, must equal the rows of :func:`oracle_repositories`.
"""

import random
from collections import Counter

import pytest

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import CborError, cbor_decode, cbor_encode
from repro.atproto.cid import Cid, cid_for_dag_cbor_bytes
from repro.atproto.mst import MstError, _node_entries, _read_canonical_node, key_layer
from repro.atproto.lexicon import FOLLOW, LIKE, POST
from repro.atproto.repo import RepoError, RepoSnapshot, import_car
from repro.core.collect.repos import _LAYOUTS, RepositoriesCollector, _read_layout
from repro.core.integrity import IntegrityMonitor
from tests.atproto.oracles import OracleSnapshot, oracle_import_car, oracle_repositories

MUTATION_SEED = 25
MUTATIONS = 1500
EMPTY_NODE = cbor_encode({"e": [], "l": None})


@pytest.fixture(scope="module")
def repo_cars(study_world) -> list[tuple[bytes, object]]:
    """``(car, owner's public key)`` for every repository of the study."""
    cars = []
    for pds in study_world.pds_shards:
        for row in pds.xrpc_listRepos(limit=100_000)["repos"]:
            did = row["did"]
            cars.append((pds.xrpc_getRepo(did=did), pds.repo(did).keypair.public_key))
    return cars


def decoded_records(snapshot) -> list:
    """``(path, cid, record)`` for every record of a snapshot, in order;
    the records of an :func:`import_car` snapshot decoded one by one."""
    if isinstance(snapshot, OracleSnapshot):
        cids = snapshot.record_cids
        return [(path, cids[path], record) for path, record in snapshot.records.items()]
    return [(path, cid, cbor_decode(block)) for path, cid, block in snapshot.records()]


def outcome(importer, car: bytes, verify_key=None):
    """The snapshot as comparable data, or the exception's class and message."""
    try:
        snapshot = importer(car, verify_key=verify_key)
        records = decoded_records(snapshot)
    except Exception as exc:  # the class and message are the result under comparison
        return ("error", type(exc), str(exc))
    return ("ok", snapshot.did, snapshot.rev, snapshot.commit_cid, repr(records))


def oracle_as_snapshot(car: bytes, verify_key=None) -> RepoSnapshot:
    """:func:`oracle_import_car` in the shape the monitor reads, each
    decoded record encoded again as its block."""
    oracle = oracle_import_car(car, verify_key)
    cids = oracle.record_cids
    blocks = {cids[path]: cbor_encode(record) for path, record in oracle.records.items()}
    return RepoSnapshot(oracle.did, oracle.rev, oracle.commit_cid, list(cids.items()), blocks)


def decode_record(path: str, block: bytes) -> None:
    cbor_decode(block)


def quarantine(monkeypatch, importer, car: bytes, did: str):
    """What :meth:`IntegrityMonitor.verify_repo_car` does with ``car``
    when it imports through ``importer``."""
    monitor = IntegrityMonitor(directory=None)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.integrity.import_car", importer)
        try:
            admitted = monitor.verify_repo_car(
                "https://pds.example", did, car, read_record=decode_record
            )
        except Exception as exc:
            return ("raised", type(exc), str(exc))
    if admitted is not None:
        return ("admitted",)
    (item,) = monitor.report.quarantined
    return (item.kind, item.detail)


# -- CAR surgery ---------------------------------------------------------------


class ParsedCar:
    """One parsed repo CAR: its blocks, and its node and record CIDs in
    tree order."""

    def __init__(self, car: bytes):
        roots, self.blocks = read_car(car)
        self.root = roots[0]
        self.commit = cbor_decode(self.blocks[self.root])
        self.nodes: list[Cid] = []
        self.records: list[Cid] = []
        self.entries: dict[Cid, tuple[list, list]] = {}
        pending = [self.commit["data"]]
        while pending:
            cid = pending.pop()
            entries, links = _node_entries(cid, cbor_decode(self.blocks[cid]))
            self.nodes.append(cid)
            self.entries[cid] = (entries, links)
            self.records.extend(value for _, value in entries)
            pending.extend(link for link in reversed(links) if link is not None)

    def rewrite(self, changes: dict, added: tuple = ()) -> bytes:
        """The CAR with each block in ``changes`` replaced (dropped when
        None) and ``added`` appended; every block linking to a replaced
        one is re-linked and re-hashed, up to a new root commit."""
        blocks = dict(self.blocks)
        root = self.root
        for cid in [cid for cid, block in changes.items() if block is None]:
            del blocks[cid]
        work = {cid: block for cid, block in changes.items() if block is not None}
        while work:
            old = next(iter(work))
            block = work.pop(old)
            new = cid_for_dag_cbor_bytes(block)
            blocks = {(new if c == old else c): (block if c == old else b) for c, b in blocks.items()}
            if old == root:
                root = new
            old_link, new_link = old.cbor_link(), new.cbor_link()
            for cid, body in blocks.items():
                if old_link in body:
                    work[cid] = work.get(cid, body).replace(old_link, new_link)
        items = list(blocks.items()) + [(cid_for_dag_cbor_bytes(b), b) for b in added]
        return write_car(root, items)


def entry_offsets(block: bytes) -> tuple[list[tuple[int, int, int, int]], int]:
    """Offsets of each entry's ``k`` head, ``p`` head, ``t`` value and
    ``v`` value in a block of the canonical node layout, and of the ``l``
    value."""
    count, pos = (block[3] - 0x80, 4) if block[3] < 0x98 else (block[4], 5)
    offsets = []
    for _ in range(count):
        k_head = pos + 3
        if block[k_head] < 0x58:
            key_end = k_head + 1 + block[k_head] - 0x40
        else:
            key_end = k_head + 2 + block[k_head + 1]
        p_head = key_end + 2
        t_value = p_head + (1 if block[p_head] < 24 else 2) + 2
        v_value = t_value + (1 if block[t_value] == 0xF6 else 41) + 2
        offsets.append((k_head, p_head, t_value, v_value))
        pos = v_value + 41
    return offsets, pos + 2


def encode_node(entries: list[tuple[str, Cid]], links: list) -> bytes:
    """A node block for ``entries`` and ``links`` in the wire data model,
    keys prefix-compressed against their left neighbour."""
    out, previous = [], b""
    for (key, value), right in zip(entries, links[1:]):
        encoded = key.encode("utf-8")
        shared = 0
        while shared < min(len(previous), len(encoded)) and previous[shared] == encoded[shared]:
            shared += 1
        out.append({"p": shared, "k": encoded[shared:], "v": value, "t": right})
        previous = encoded
    return cbor_encode({"e": out, "l": links[0]})


def splice(block: bytes, at: int, width: int, replacement: bytes) -> bytes:
    return block[:at] + replacement + block[at + width :]


# -- mutations: each returns ``(changes, added)`` or None when the repo has
# no place for it ----------------------------------------------------------------


def _node_with_entries(rng, repo: ParsedCar, least: int = 1):
    nodes = [cid for cid in repo.nodes if len(repo.entries[cid][0]) >= least]
    return rng.choice(nodes) if nodes else None


def extra_node_key(rng, repo):
    cid = rng.choice(repo.nodes)
    data = cbor_decode(repo.blocks[cid])
    data["x"] = 1
    return {cid: cbor_encode(data)}, ()


def missing_t(rng, repo):
    cid = _node_with_entries(rng, repo)
    if cid is None:
        return None
    data = cbor_decode(repo.blocks[cid])
    del rng.choice(data["e"])["t"]
    return {cid: cbor_encode(data)}, ()


def raw_codec_link(rng, repo):
    cid = rng.choice(repo.nodes)
    block = repo.blocks[cid]
    offsets, l_value = entry_offsets(block)
    links = [t for _, _, t, _ in offsets if block[t] != 0xF6] + [v for *_, v in offsets]
    if block[l_value] != 0xF6:
        links.append(l_value)
    if not links:
        return None
    codec = rng.choice(links) + 6  # tag, string head, identity byte, version
    return {cid: splice(block, codec, 1, b"\x55")}, ()


def nonminimal_key_length(rng, repo):
    cid = _node_with_entries(rng, repo)
    if cid is None:
        return None
    block = repo.blocks[cid]
    k_head = rng.choice(entry_offsets(block)[0])[0]
    if block[k_head] >= 0x58:
        return None
    return {cid: splice(block, k_head, 1, bytes((0x58, block[k_head] - 0x40)))}, ()


def nonminimal_prefix(rng, repo):
    cid = _node_with_entries(rng, repo)
    if cid is None:
        return None
    block = repo.blocks[cid]
    p_head = rng.choice(entry_offsets(block)[0])[1]
    if block[p_head] >= 24:
        return None
    return {cid: splice(block, p_head, 1, bytes((0x18, block[p_head])))}, ()


def two_byte_prefix(rng, repo):
    """A ``p`` with a two-byte argument: non-minimal for a small value,
    minimal (and longer than any key) for 256."""
    cid = _node_with_entries(rng, repo)
    if cid is None:
        return None
    block = repo.blocks[cid]
    p_head = rng.choice(entry_offsets(block)[0])[1]
    if block[p_head] >= 24:
        return None
    argument = rng.choice((bytes((0, block[p_head])), b"\x01\x00"))
    return {cid: splice(block, p_head, 1, b"\x19" + argument)}, ()


def nonminimal_entry_count(rng, repo):
    cid = rng.choice(repo.nodes)
    block = repo.blocks[cid]
    if block[3] >= 0x98:
        return None
    return {cid: splice(block, 3, 1, bytes((0x98, block[3] - 0x80)))}, ()


def out_of_order_keys(rng, repo):
    cid = _node_with_entries(rng, repo, least=2)
    if cid is None:
        return None
    entries, links = repo.entries[cid]
    entries = list(entries)
    i = rng.randrange(len(entries) - 1)
    (a, va), (b, vb) = entries[i], entries[i + 1]
    entries[i : i + 2] = [(b, va), (a, vb)]
    return {cid: encode_node(entries, links)}, ()


def wrong_layer_key(rng, repo):
    """A key other than a node's first (which sets the node's layer)
    moved to another layer."""
    cid = _node_with_entries(rng, repo, least=2)
    if cid is None:
        return None
    entries, links = repo.entries[cid]
    entries = list(entries)
    i = rng.randrange(1, len(entries))
    key, value = entries[i]
    moved = key
    while key_layer(moved) == key_layer(key):
        moved += "z"
    entries[i] = (moved, value)
    return {cid: encode_node(entries, links)}, ()


def empty_child(rng, repo):
    """An existing node's empty slot pointed at an entry-less, link-less node."""
    cid = rng.choice(repo.nodes)
    entries, links = repo.entries[cid]
    slots = [i for i, link in enumerate(links) if link is None]
    if not slots:
        return None
    links = list(links)
    links[rng.choice(slots)] = cid_for_dag_cbor_bytes(EMPTY_NODE)
    return {cid: encode_node(entries, links)}, (EMPTY_NODE,)


def missing_node(rng, repo):
    return {rng.choice(repo.nodes): None}, ()


def missing_record(rng, repo):
    if not repo.records:
        return None
    return {rng.choice(repo.records): None}, ()


def deep_record(rng, repo):
    if not repo.records:
        return None
    return {rng.choice(repo.records): b"\x81" * 200 + b"\x01"}, ()


def flipped_node_byte(rng, repo):
    cid = rng.choice(repo.nodes)
    block = repo.blocks[cid]
    pos = rng.randrange(len(block))
    return {cid: splice(block, pos, 1, bytes((block[pos] ^ rng.randrange(1, 256),)))}, ()


def truncated_node(rng, repo):
    cid = rng.choice(repo.nodes)
    return {cid: repo.blocks[cid][: rng.randrange(len(repo.blocks[cid]))]}, ()


MUTATORS = {
    "extra-node-key": extra_node_key,
    "missing-t": missing_t,
    "raw-codec-link": raw_codec_link,
    "nonminimal-key-length": nonminimal_key_length,
    "nonminimal-prefix": nonminimal_prefix,
    "two-byte-prefix": two_byte_prefix,
    "nonminimal-entry-count": nonminimal_entry_count,
    "out-of-order-keys": out_of_order_keys,
    "wrong-layer-key": wrong_layer_key,
    "empty-child": empty_child,
    "missing-node": missing_node,
    "missing-record": missing_record,
    "deep-record": deep_record,
    "flipped-node-byte": flipped_node_byte,
    "truncated-node": truncated_node,
}


def mutated_cars(repo_cars, seed: int, count: int):
    """``(kind, did, car)`` for ``count`` seeded mutations."""
    rng = random.Random(seed)
    kinds = sorted(MUTATORS)
    produced = 0
    while produced < count:
        kind = kinds[produced % len(kinds)]
        repo = ParsedCar(rng.choice(repo_cars)[0])
        mutation = MUTATORS[kind](rng, repo)
        if mutation is None:
            continue
        produced += 1
        yield kind, repo.commit["did"], repo.rewrite(*mutation)


# -- tests ------------------------------------------------------------------------


def test_every_clean_car_imports_like_the_oracle(repo_cars, monkeypatch):
    assert len(repo_cars) > 100
    for car, key in repo_cars:
        for verify_key in (None, key):
            expected = outcome(oracle_import_car, car, verify_key)
            assert expected[0] == "ok"
            assert outcome(import_car, car, verify_key) == expected
    car, _ = repo_cars[0]
    did = ParsedCar(car).commit["did"]
    assert quarantine(monkeypatch, import_car, car, did) == ("admitted",)


def test_clean_nodes_take_the_canonical_path(repo_cars):
    """Every node block the program writes is read in place, to what the
    generic decoder gives."""
    for car, _ in repo_cars:
        repo = ParsedCar(car)
        for cid in repo.nodes:
            assert _read_canonical_node(repo.blocks[cid]) == repo.entries[cid]


def test_seeded_mutations_import_like_the_oracle(repo_cars, monkeypatch):
    errors: Counter = Counter()
    for kind, did, car in mutated_cars(repo_cars, MUTATION_SEED, MUTATIONS):
        expected = outcome(oracle_import_car, car)
        assert outcome(import_car, car) == expected, kind
        assert quarantine(monkeypatch, import_car, car, did) == quarantine(
            monkeypatch, oracle_as_snapshot, car, did
        ), kind
        errors[kind] += expected[0] == "error"
    # The generic node check ignores unknown keys and reads a missing
    # ``t`` as null; every other kind reaches an error path.
    assert {kind for kind in MUTATORS if not errors[kind]} == {"extra-node-key", "missing-t"}


EXPECTED_ERRORS = {
    "raw-codec-link": (RepoError, MstError),
    "nonminimal-key-length": (CborError,),
    "nonminimal-prefix": (CborError,),
    "nonminimal-entry-count": (CborError,),
    "out-of-order-keys": (MstError,),
    "wrong-layer-key": (MstError,),
    "empty-child": (MstError,),
    "missing-record": (RepoError,),
    "deep-record": (CborError,),
}


@pytest.mark.parametrize("kind", sorted(EXPECTED_ERRORS))
def test_mutation_reaches_its_check(repo_cars, kind):
    rng = random.Random(kind)
    for car, _ in repo_cars[:40]:
        repo = ParsedCar(car)
        mutation = MUTATORS[kind](rng, repo)
        if mutation is None:
            continue
        rewritten = repo.rewrite(*mutation)
        with pytest.raises(EXPECTED_ERRORS[kind]):
            decoded_records(import_car(rewritten))


def test_load_error_wins_over_invariant_error(repo_cars):
    """A key at the wrong layer in the root and a leaf missing: the
    missing block is reported, as a tree loaded before its check would."""
    repo = next(
        repo
        for repo in map(ParsedCar, (car for car, _ in repo_cars))
        if len(repo.nodes) > 2 and repo.entries[repo.commit["data"]][0]
    )
    root = repo.commit["data"]
    entries, links = repo.entries[root]
    key, value = entries[0]
    moved = key
    while key_layer(moved) == key_layer(key):
        moved += "z"
    changes = {root: encode_node([(moved, value)] + entries[1:], links), repo.nodes[-1]: None}
    car = repo.rewrite(changes)
    with pytest.raises(MstError, match="missing MST block"):
        import_car(car)
    assert outcome(import_car, car) == outcome(oracle_import_car, car)


def test_tree_error_wins_over_record_error(repo_cars):
    """Keys out of order and a record block missing: the tree error is
    reported, since records are decoded after the walk."""
    repo = next(
        repo
        for repo in map(ParsedCar, (car for car, _ in repo_cars))
        if any(len(repo.entries[node][0]) >= 2 for node in repo.nodes)
    )
    changes, _ = out_of_order_keys(random.Random(0), repo)
    changes[repo.records[-1]] = None
    car = repo.rewrite(changes)
    with pytest.raises(MstError, match="out of order|out of range|wrong layer"):
        import_car(car)
    assert outcome(import_car, car) == outcome(oracle_import_car, car)


# -- dataset rows -------------------------------------------------------------------


def dataset_rows(data) -> tuple:
    """Everything the Repositories dataset holds that its records make."""
    return (
        data.repo_count,
        data.posts,
        data.likes,
        data.follows,
        data.reposts,
        data.blocks,
        data.feed_generators,
        data.labeler_services,
        data.profiles,
        data.other_collections,
        data.records_per_repo,
    )


def crawl_rows(cars) -> tuple:
    """The crawl's quarantines ``(kind, detail)`` and dataset rows for
    ``(did, car)`` repositories."""
    collector = RepositoriesCollector(None, "https://relay.example", integrity=IntegrityMonitor())
    for did, car in cars:
        collector._ingest_repo(did, car)
    quarantined = [(q.kind, q.detail) for q in collector.integrity.report.quarantined]
    return quarantined, dataset_rows(collector.dataset)


def oracle_rows(monkeypatch, did: str, car: bytes) -> tuple:
    """:func:`crawl_rows` of one repository, by the oracle."""
    verdict = quarantine(monkeypatch, oracle_as_snapshot, car, did)
    quarantined = [] if verdict == ("admitted",) else [verdict]
    return quarantined, dataset_rows(oracle_repositories([(did, car)]))


def test_every_clean_car_gives_the_oracle_rows(repo_cars):
    cars = [(import_car(car).did, car) for car, _ in repo_cars]
    quarantined, rows = crawl_rows(cars)
    assert quarantined == []
    assert rows == dataset_rows(oracle_repositories(cars))
    assert rows[0] == len(cars) and len(rows[2]) > 1000


def test_clean_records_take_their_layout(repo_cars):
    """Nearly every record of a collection with layouts is read in
    place; the rest are the shapes no layout covers."""
    read, total = Counter(), Counter()
    for car, _ in repo_cars:
        for path, _, block in import_car(car).records():
            collection = path.split("/")[0]
            layouts = _LAYOUTS.get(collection, ())
            total[collection] += bool(layouts)
            read[collection] += any(_read_layout(block, layout) for layout in layouts)
    assert sum(read.values()) > 0.95 * sum(total.values())


def test_seeded_mutations_give_the_oracle_rows(repo_cars, monkeypatch):
    """A mutated CAR is quarantined under the oracle's kind and detail
    and adds no row, or is admitted with the oracle's rows."""
    for kind, did, car in mutated_cars(repo_cars, MUTATION_SEED, MUTATIONS):
        assert crawl_rows([(did, car)]) == oracle_rows(monkeypatch, did, car), kind


LIKE_RECORD = {
    "$type": LIKE,
    "subject": {"uri": "at://did:plc:abcdefghijklmnopqrstuvwx/%s/3kabc" % POST, "cid": "feedgen"},
    "createdAt": "2024-03-01T12:00:00.000Z",
}
LIKE_BLOCK = cbor_encode(LIKE_RECORD)
URI = LIKE_RECORD["subject"]["uri"].encode()
LIKE_CID_TEXT = b"\x67feedgen"
LIKE_URI_TEXT = b"\x78" + bytes((len(URI),)) + URI

OFF_LAYOUT_BLOCKS = {
    "nonminimal-short-text-head": LIKE_BLOCK.replace(LIKE_CID_TEXT, b"\x78\x07feedgen"),
    "nonminimal-text-head": LIKE_BLOCK.replace(LIKE_URI_TEXT, b"\x79\x00" + LIKE_URI_TEXT[1:]),
    "keys-out-of-order": LIKE_BLOCK.replace(
        b"\x63cid" + LIKE_CID_TEXT + b"\x63uri" + LIKE_URI_TEXT,
        b"\x63uri" + LIKE_URI_TEXT + b"\x63cid" + LIKE_CID_TEXT,
    ),
    "trailing-byte": LIKE_BLOCK + b"\x00",
    "non-utf8-uri": LIKE_BLOCK.replace(b"did:plc:", b"did:plc\xff"),
    "extra-field": cbor_encode({**LIKE_RECORD, "via": "x"}),
    "long-uri": cbor_encode({**LIKE_RECORD, "subject": {"uri": "at://" + "x" * 256, "cid": "c"}}),
    "other-type": cbor_encode({**LIKE_RECORD, "$type": FOLLOW}),
}


@pytest.mark.parametrize("name", sorted(OFF_LAYOUT_BLOCKS))
def test_off_layout_block_takes_the_fallback(repo_cars, monkeypatch, name):
    """A like block off its layout anywhere is read through
    ``cbor_decode``, to the oracle's quarantine or rows."""
    block = OFF_LAYOUT_BLOCKS[name]
    assert LIKE_BLOCK != block
    assert all(_read_layout(block, layout) is None for layout in _LAYOUTS[LIKE])
    assert _read_layout(LIKE_BLOCK, _LAYOUTS[LIKE][0]) is not None
    repo, cid = next(
        (repo, cid)
        for repo in map(ParsedCar, (car for car, _ in repo_cars))
        for node in repo.nodes
        for path, cid in repo.entries[node][0]
        if path.startswith(LIKE + "/")
    )
    car = repo.rewrite({cid: block})
    did = repo.commit["did"]
    assert crawl_rows([(did, car)]) == oracle_rows(monkeypatch, did, car)
