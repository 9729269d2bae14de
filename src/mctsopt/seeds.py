"""Deterministic seed derivation.

Every random decision in the library flows from a user-supplied 64-bit seed
through `derive`, which hashes the seed together with a tag path.  Two
properties matter:

* stability: the mapping is a pure function of its arguments, independent of
  platform, process, thread scheduling or Python hash randomization;
* independence: distinct tag paths give unrelated streams, so parallel
  workers can derive their own seeds without coordination.
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
    callers that derive many seeds sharing that prefix (see derive_from)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed & _MASK64).to_bytes(8, "little"))
    _absorb(h, tags)
    return h


def derive_from(prefix, *tags: int | str) -> int:
    """``derive(seed, *head, *tags)`` for ``prefix = hasher(seed, *head)``;
    ``prefix`` itself is left unchanged."""
    h = prefix.copy()
    _absorb(h, tags)
    return int.from_bytes(h.digest(), "little")


def _absorb(h, tags) -> None:
    for tag in tags:
        if isinstance(tag, int):
            data = b"i" + int(tag & _MASK64).to_bytes(8, "little", signed=False)
        else:
            raw = tag.encode("utf-8")
            data = b"s" + len(raw).to_bytes(4, "little") + raw
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
