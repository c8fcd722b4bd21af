"""Property-based tests for repository state machines.

A repository is a state machine over create/update/delete operations; for
any valid operation sequence, (a) the repo's visible state equals a plain
dict model, (b) the CAR export/import round-trip reproduces exactly that
state, and (c) revs grow strictly monotonically.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atproto.keys import HmacKeypair
from repro.atproto.lexicon import POST
from repro.atproto.repo import Repo, WriteOp, import_car

DID = "did:plc:" + "m" * 24

rkeys = st.integers(min_value=0, max_value=11).map(lambda i: "rk%02d" % i)
ops = st.lists(
    st.tuples(st.sampled_from(["create", "update", "delete"]), rkeys,
              st.integers(min_value=0, max_value=99)),
    min_size=1,
    max_size=40,
)


def record_for(value: int) -> dict:
    return {"$type": POST, "text": "value %d" % value, "createdAt": "2024-04-13T00:00:00Z"}


def apply_sequence(sequence):
    """Drive a repo and a dict model through the same (guarded) ops."""
    repo = Repo(DID, HmacKeypair.from_seed(b"prop"))
    model: dict = {}
    now = 1_700_000_000_000_000
    revs = []
    for index, (action, rkey, value) in enumerate(sequence):
        now += 1000 + index
        exists = rkey in model
        if action == "create" and not exists:
            meta = repo.create_record(POST, record_for(value), now, rkey=rkey)
            model[rkey] = value
        elif action == "update" and exists:
            meta = repo.apply_writes([WriteOp("update", POST, rkey, record_for(value))], now)
            model[rkey] = value
        elif action == "delete" and exists:
            meta = repo.apply_writes([WriteOp("delete", POST, rkey)], now)
            del model[rkey]
        else:
            continue
        revs.append(meta.rev)
    return repo, model, revs


@settings(max_examples=40, deadline=None)
@given(ops)
def test_repo_state_matches_model(sequence):
    repo, model, _ = apply_sequence(sequence)
    visible = {
        path.split("/", 1)[1]: record["text"]
        for path, record in repo.list_records(POST)
    }
    expected = {rkey: "value %d" % value for rkey, value in model.items()}
    assert visible == expected
    assert len(repo.mst) == len(model)


@settings(max_examples=30, deadline=None)
@given(ops)
def test_car_round_trip_matches_state(sequence):
    repo, model, _ = apply_sequence(sequence)
    if repo.head is None:
        return  # nothing ever committed
    snapshot = import_car(repo.export_car(), verify_key=repo.keypair.public_key)
    restored = {
        path.split("/", 1)[1]: record["text"]
        for path, record in snapshot.list_records()
    }
    assert restored == {rkey: "value %d" % value for rkey, value in model.items()}
    assert snapshot.rev == repo.rev


@settings(max_examples=30, deadline=None)
@given(ops)
def test_revs_strictly_increase(sequence):
    _, _, revs = apply_sequence(sequence)
    assert revs == sorted(revs)
    assert len(set(revs)) == len(revs)


@settings(max_examples=20, deadline=None)
@given(ops, ops)
def test_same_final_state_same_mst_root(first, second):
    """History independence: repos reaching the same record set agree on
    the MST root (and so on the unsigned commit contents)."""
    repo_a, model_a, _ = apply_sequence(first)
    repo_b, model_b, _ = apply_sequence(second)
    if model_a == model_b:
        assert repo_a.mst.root_cid() == repo_b.mst.root_cid()
