"""Reference encoders the production fast paths are checked against.

These are the straightforward forms of code that ``repro.atproto`` now
emits through cached fragments or the standard library.  Only tests use
them.
"""

from repro.atproto.mst import MstNode

BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
VALID_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:~-/")


def oracle_to_data(node: MstNode) -> dict:
    """An MST node in the wire data model, keys prefix-compressed against
    their left neighbour; ``cbor_encode`` of it is the node block."""
    entries = []
    previous = b""
    for index, (key, value) in enumerate(node.entries):
        encoded = key.encode("utf-8")
        prefix_len = 0
        limit = min(len(previous), len(encoded))
        while prefix_len < limit and previous[prefix_len] == encoded[prefix_len]:
            prefix_len += 1
        right = node.subtrees[index + 1]
        entries.append(
            {
                "p": prefix_len,
                "k": encoded[prefix_len:],
                "v": value,
                "t": right.cid() if right is not None else None,
            }
        )
        previous = encoded
    left = node.subtrees[0]
    return {"l": left.cid() if left is not None else None, "e": entries}


def oracle_base32_encode(data: bytes) -> str:
    """Unpadded lowercase RFC 4648 base32, five bits at a time."""
    bits = 0
    bit_count = 0
    out = []
    for byte in data:
        bits = (bits << 8) | byte
        bit_count += 8
        while bit_count >= 5:
            bit_count -= 5
            out.append(BASE32_ALPHABET[(bits >> bit_count) & 0x1F])
    if bit_count:
        out.append(BASE32_ALPHABET[(bits << (5 - bit_count)) & 0x1F])
    return "".join(out)


def oracle_is_valid_mst_key(key: str) -> bool:
    """``collection/rkey`` with both parts non-empty, at most 1024
    characters, from the MST key charset."""
    if not key or len(key) > 1024:
        return False
    if key.count("/") != 1:
        return False
    collection, _, rkey = key.partition("/")
    if not collection or not rkey:
        return False
    return all(c in VALID_KEY_CHARS for c in key)
