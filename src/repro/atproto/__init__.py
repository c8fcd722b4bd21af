"""Low-level AT Protocol building blocks.

This package implements the data-model layer of the Authenticated Transfer
Protocol (ATProto) from scratch: DAG-CBOR encoding, CIDs, timestamp
identifiers (TIDs), NSIDs, secp256k1 signatures, Merkle Search
Trees, signed repositories, and CARv1 serialization.

Everything here is deterministic and side-effect free; the service layer
(:mod:`repro.services`) composes these primitives into PDSes, Relays, and
the other network components studied in the paper.
"""

from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import Cid, cid_for_cbor, cid_for_raw
from repro.atproto.tid import Tid, TidClock
from repro.atproto.nsid import Nsid

__all__ = [
    "Cid",
    "Nsid",
    "Tid",
    "TidClock",
    "cbor_decode",
    "cbor_encode",
    "cid_for_cbor",
    "cid_for_raw",
]
