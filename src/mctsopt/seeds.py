"""Deterministic seed derivation.

Every random decision in the library flows from a user-supplied 64-bit seed
through `derive`, which hashes the seed together with a tag path.  Two
properties matter:

* stability: the mapping is a pure function of its arguments, independent of
  platform, process, thread scheduling or Python hash randomization;
* independence: distinct tag paths give unrelated streams, so parallel
  workers can derive their own seeds without coordination.

`encode` is the one place where tags become bytes.  A hash state that has
absorbed ``seed`` and ``encode(tags)`` (see `hasher`) can be copied and
extended, so a caller that derives many seeds under one prefix, or that
absorbs the same tags again and again, can hash each piece once.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def derive(seed: int, *tags: int | str) -> int:
    """Derive a child seed from ``seed`` and a path of tags.

    Tags may be ints or strings; they are encoded unambiguously
    (length-prefixed) so ("ab", "c") and ("a", "bc") differ.
    """
    return int.from_bytes(hasher(seed, *tags).digest(), "little")


def hasher(seed: int, *tags: int | str):
    """The hash state of ``derive(seed, *tags)`` before its digest, for
    callers that derive many seeds sharing that prefix: a copy updated
    with ``encode(more)`` digests to ``derive(seed, *tags, *more)``.

    It is blake2b with an 8-byte digest over the seed's 8 little-endian
    bytes and then ``encode(tags)``.  A seed that is itself a derived
    value therefore contributes exactly its digest bytes."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed & _MASK64).to_bytes(8, "little"))
    h.update(encode(tags))
    return h


def reseed(h):
    """``hasher(seed)`` for ``seed`` the value ``h`` derives, i.e.
    ``hasher(int.from_bytes(h.digest(), "little"))``, without the round
    trip through an int."""
    return hashlib.blake2b(h.digest(), digest_size=8)


def encode(tags) -> bytes:
    """The bytes a hash absorbs for ``tags``: per tag, a 4-byte length and
    then ``i`` + 8 bytes (an int modulo 2**64) or ``s`` + a 4-byte length +
    UTF-8 (a string).  Absorbing ``encode(a)`` then ``encode(b)`` equals
    absorbing ``encode(a + b)``."""
    out = []
    for tag in tags:
        if isinstance(tag, int):
            data = b"i" + int(tag & _MASK64).to_bytes(8, "little", signed=False)
        else:
            raw = tag.encode("utf-8")
            data = b"s" + len(raw).to_bytes(4, "little") + raw
        out.append(len(data).to_bytes(4, "little"))
        out.append(data)
    return b"".join(out)
