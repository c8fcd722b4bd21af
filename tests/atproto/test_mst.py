"""Tests for the Merkle Search Tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atproto.cbor import cbor_encode
from repro.atproto.cid import cid_for_raw
from repro.atproto.mst import (
    Mst,
    MstError,
    build_canonical,
    is_valid_mst_key,
    key_layer,
    load_mst,
    mst_diff,
)
from tests.atproto.oracles import oracle_is_valid_mst_key, oracle_to_data


def cid_of(tag: str):
    return cid_for_raw(tag.encode())


def key(i: int) -> str:
    return "app.bsky.feed.post/key%06d" % i


class TestKeyLayer:
    def test_layer_is_deterministic(self):
        assert key_layer("a/b") == key_layer("a/b")

    def test_layers_vary(self):
        layers = {key_layer(key(i)) for i in range(200)}
        assert len(layers) > 1

    def test_expected_distribution(self):
        # Each extra layer should be ~4x rarer (2 bits per layer).
        layers = [key_layer(key(i)) for i in range(4000)]
        zero = sum(1 for l in layers if l == 0)
        one = sum(1 for l in layers if l == 1)
        assert zero > 2 * one  # loose bound on the 4:1 ratio


class TestKeyValidation:
    def test_valid_record_path(self):
        assert is_valid_mst_key("app.bsky.feed.post/3kabc")

    def test_rejects_no_slash(self):
        assert not is_valid_mst_key("nopath")

    def test_rejects_two_slashes(self):
        assert not is_valid_mst_key("a/b/c")

    def test_rejects_empty(self):
        assert not is_valid_mst_key("")
        assert not is_valid_mst_key("/x")
        assert not is_valid_mst_key("x/")

    def test_rejects_bad_chars(self):
        assert not is_valid_mst_key("coll/key with space")

    def test_set_validates(self):
        with pytest.raises(MstError):
            Mst().set("bad key!", cid_of("v"))

    def test_length_cap(self):
        assert is_valid_mst_key("c/" + "k" * 1022)
        assert not is_valid_mst_key("c/" + "k" * 1023)

    @given(st.text(alphabet="ab/._:~-Z9 \n\u00e9", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_validator(self, candidate):
        assert is_valid_mst_key(candidate) == oracle_is_valid_mst_key(candidate)


class TestBasicOperations:
    def test_empty_tree(self):
        tree = Mst()
        assert len(tree) == 0
        assert tree.get("a/b") is None
        tree.check_invariants()

    def test_set_and_get(self):
        tree = Mst()
        tree.set("coll/a", cid_of("1"))
        assert tree.get("coll/a") == cid_of("1")
        assert "coll/a" in tree

    def test_replace_value(self):
        tree = Mst()
        tree.set("coll/a", cid_of("1"))
        tree.set("coll/a", cid_of("2"))
        assert tree.get("coll/a") == cid_of("2")
        assert len(tree) == 1

    def test_replace_changes_root_cid(self):
        tree = Mst()
        tree.set("coll/a", cid_of("1"))
        before = tree.root_cid()
        tree.set("coll/a", cid_of("2"))
        assert tree.root_cid() != before

    def test_many_inserts_sorted_iteration(self):
        tree = Mst()
        for i in range(300):
            tree.set(key(i), cid_of(str(i)))
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys)
        assert len(keys) == 300
        tree.check_invariants()

    def test_delete(self):
        tree = Mst()
        for i in range(50):
            tree.set(key(i), cid_of(str(i)))
        tree.delete(key(25))
        assert tree.get(key(25)) is None
        assert len(tree) == 49
        tree.check_invariants()

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            Mst().delete("a/b")

    def test_delete_all_returns_to_empty_root(self):
        tree = Mst()
        empty_cid = tree.root_cid()
        for i in range(30):
            tree.set(key(i), cid_of(str(i)))
        for i in range(30):
            tree.delete(key(i))
        assert len(tree) == 0
        assert tree.root_cid() == empty_cid


class TestCanonicity:
    def test_insertion_order_independence(self):
        items = {key(i): cid_of(str(i)) for i in range(100)}
        forward = Mst()
        for k in sorted(items):
            forward.set(k, items[k])
        backward = Mst()
        for k in sorted(items, reverse=True):
            backward.set(k, items[k])
        assert forward.root_cid() == backward.root_cid()

    def test_incremental_matches_canonical_build(self):
        items = {key(i): cid_of(str(i)) for i in range(150)}
        incremental = Mst()
        for k, v in items.items():
            incremental.set(k, v)
        canonical = build_canonical(items)
        canonical.check_invariants()
        assert incremental.root_cid() == canonical.root_cid()

    def test_delete_matches_fresh_build(self):
        items = {key(i): cid_of(str(i)) for i in range(80)}
        tree = build_canonical(items)
        tree = Mst(tree.root)
        for i in range(0, 80, 3):
            tree.delete(key(i))
            del items[key(i)]
        rebuilt = build_canonical(items)
        assert tree.root_cid() == rebuilt.root_cid()
        tree.check_invariants()


class TestSerialization:
    def test_blocks_and_reload(self):
        items = {key(i): cid_of(str(i)) for i in range(120)}
        tree = build_canonical(items)
        blocks = {cid: data for cid, data in tree.blocks().items()}
        loaded = load_mst(blocks, tree.root_cid())
        assert dict(loaded.items()) == items
        assert loaded.root_cid() == tree.root_cid()
        loaded.check_invariants()

    def test_prefix_compression_round_trip(self):
        tree = Mst()
        tree.set("app.bsky.feed.post/aaaa", cid_of("1"))
        tree.set("app.bsky.feed.post/aaab", cid_of("2"))
        loaded = load_mst(tree.blocks(), tree.root_cid())
        assert loaded.get("app.bsky.feed.post/aaab") == cid_of("2")

    def test_missing_block_raises(self):
        tree = Mst()
        tree.set("coll/a", cid_of("1"))
        with pytest.raises(MstError):
            load_mst({}, tree.root_cid())

    def test_direct_node_encoder_matches_generic(self):
        """The schema-specialized node encoder (the commit-loop fast path)
        must emit byte-identical blocks to the generic encoder's bytes for
        the node's wire data model."""
        items = {key(i): cid_of(str(i)) for i in range(300)}
        tree = build_canonical(items)
        for node in tree.root.walk_nodes():
            assert node.to_cbor() == cbor_encode(oracle_to_data(node))

    @given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_direct_node_encoder_matches_generic_random(self, indices):
        tree = Mst()
        for i in indices:
            tree.set(key(i), cid_of(str(i)))
        for node in tree.root.walk_nodes():
            assert node.to_cbor() == cbor_encode(oracle_to_data(node))


# Hand-picked keys spanning layers 0-4 and three collections.  Keys of one
# collection share a 34-byte prefix, so both the ``p`` and the first
# entry's ``k`` need a one-byte-length CBOR head.
MULTI_LAYER_KEYS = [
    "app.bsky.feed.like/3kq2abcdefgh0000",  # layer 0
    "app.bsky.feed.like/3kq2abcdefgh0001",  # 0
    "app.bsky.feed.like/3kq2abcdefgh0002",  # 0
    "app.bsky.feed.like/3kq2abcdefgh0003",  # 0
    "app.bsky.feed.like/3kq2abcdefgh0005",  # 1
    "app.bsky.feed.like/3kq2abcdefgh0014",  # 1
    "app.bsky.feed.like/3kq2abcdefgh0022",  # 1
    "app.bsky.feed.like/3kq2abcdefgh0058",  # 2
    "app.bsky.feed.like/3kq2abcdefgh0063",  # 2
    "app.bsky.feed.like/3kq2abcdefgh0012",  # 3
    "app.bsky.feed.like/3kq2abcdefgh0019",  # 3
    "app.bsky.feed.like/3kq2abcdefgh0530",  # 4
    "app.bsky.feed.post/3kq2abcdefgh0000",  # 0
    "app.bsky.feed.post/3kq2abcdefgh0001",  # 0
    "app.bsky.feed.post/3kq2abcdefgh0013",  # 1
    "app.bsky.feed.post/3kq2abcdefgh0002",  # 2
    "app.bsky.feed.post/3kq2abcdefgh0012",  # 2
    "app.bsky.feed.post/3kq2abcdefgh0075",  # 3
    "app.bsky.graph.follow/3kq2abcdefgh0000",  # 0
    "app.bsky.graph.follow/3kq2abcdefgh0005",  # 1
    "app.bsky.graph.follow/3kq2abcdefgh0026",  # 2
    "app.bsky.graph.follow/3kq2abcdefgh0365",  # 3
    "app.bsky.graph.follow/3kq2abcdefgh0029",  # 4
]

# (delete?, key index, value tag): a delete of an absent key is skipped.
tree_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, len(MULTI_LAYER_KEYS) - 1), st.integers(0, 3)),
    max_size=40,
)


def apply_op(tree: Mst, items: dict, op) -> None:
    delete, index, tag = op
    path = MULTI_LAYER_KEYS[index]
    if delete:
        if path in items:
            tree.delete(path)
            del items[path]
    else:
        value = cid_of("%s#%d" % (path, tag))
        tree.set(path, value)
        items[path] = value


def assert_matches_oracles(tree: Mst, items: dict) -> None:
    for node in tree.root.walk_nodes():
        assert node.to_cbor() == cbor_encode(oracle_to_data(node))
    assert tree.root_cid() == build_canonical(items).root_cid()


class TestFragmentCache:
    """Node blocks are joined from per-node cached key fragments that
    insert, delete, split and merge keep up to date."""

    def test_keys_span_layers(self):
        assert {key_layer(k) for k in MULTI_LAYER_KEYS} == {0, 1, 2, 3, 4}

    @given(tree_ops)
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_oracle_after_every_op(self, ops):
        tree, items = Mst(), {}
        for op in ops:
            apply_op(tree, items, op)
            assert_matches_oracles(tree, items)

    @given(st.lists(st.tuples(tree_ops, st.booleans()), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_blocks_match_oracle_with_unencoded_nodes(self, rounds):
        """Mutations between encodes reach nodes whose fragments were
        never computed (fresh split/merge/insert results) as well as
        nodes whose fragments are cached."""
        tree, items = Mst(), {}
        for ops, encode in rounds:
            for op in ops:
                apply_op(tree, items, op)
            if encode:
                tree.root_cid()
        assert_matches_oracles(tree, items)

    def test_loaded_and_canonical_trees_encode_identically(self):
        items = {k: cid_of(k) for k in MULTI_LAYER_KEYS}
        tree = build_canonical(items)
        loaded = load_mst(tree.blocks(), tree.root_cid())
        for path in MULTI_LAYER_KEYS[::3]:
            loaded.delete(path)
            del items[path]
        assert_matches_oracles(loaded, items)


class TestDiff:
    def test_diff_reports_changes(self):
        old = Mst()
        old.set("coll/a", cid_of("1"))
        old.set("coll/b", cid_of("2"))
        new = Mst()
        new.set("coll/b", cid_of("2x"))
        new.set("coll/c", cid_of("3"))
        diff = mst_diff(old, new)
        assert diff["coll/a"] == (cid_of("1"), None)
        assert diff["coll/b"] == (cid_of("2"), cid_of("2x"))
        assert diff["coll/c"] == (None, cid_of("3"))

    def test_identical_trees_empty_diff(self):
        tree = Mst()
        tree.set("coll/a", cid_of("1"))
        assert mst_diff(tree, tree) == {}

    def test_diff_insertion_order_is_sorted(self):
        # Regression: mst_diff used to iterate `old.keys() | new.keys()`
        # directly, so the returned dict's insertion order (and anything
        # serialized from it) varied with PYTHONHASHSEED.
        old = Mst()
        new = Mst()
        for i in range(60):
            old.set(key(i), cid_of(str(i)))
            if i % 2:
                new.set(key(i), cid_of(str(i) + "x"))
        diff = mst_diff(old, new)
        assert len(diff) == 60
        assert list(diff) == sorted(diff)


_keys = st.integers(min_value=0, max_value=5000).map(key)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_keys, st.integers(0, 10).map(lambda i: cid_of(str(i))), max_size=60))
def test_incremental_equals_canonical_property(items):
    tree = Mst()
    for k, v in items.items():
        tree.set(k, v)
    tree.check_invariants()
    assert tree.root_cid() == build_canonical(items).root_cid()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(_keys, st.sampled_from(["set", "delete"])),
        max_size=80,
    )
)
def test_random_ops_match_canonical_property(ops):
    tree = Mst()
    model: dict = {}
    for k, action in ops:
        if action == "set":
            value = cid_of(k)
            tree.set(k, value)
            model[k] = value
        elif k in model:
            tree.delete(k)
            del model[k]
    tree.check_invariants()
    assert tree.root_cid() == build_canonical(model).root_cid()
    assert dict(tree.items()) == model
