"""Seed derivation: fixed values, one tag encoder, and prefix hash states
that agree with derive."""

import hashlib

import pytest

from mctsopt.seeds import derive, encode, hasher, reseed


def test_derive_values_are_fixed():
    # Every seeded output of the program flows from these hashes.
    assert derive(0) == 1786884285633530058
    assert derive(2026, "eval", 3) == 9336003117749225350
    assert derive(-1, "oracle-noise", "ttt", "65", "8") == 5039226447179955070
    assert derive(7, 2**64 + 5, "é") == 1397109448855630194


def derive_from(prefix, *tags):
    """The value a copy of ``prefix`` digests to after absorbing ``tags``."""
    h = prefix.copy()
    h.update(encode(tags))
    return int.from_bytes(h.digest(), "little")


@pytest.mark.parametrize("split", range(4))
def test_derive_from_a_prefix_equals_derive(split):
    tags = ("oracle-noise", 3, "ab", -2)
    prefix = hasher(11, *tags[:split])
    assert derive_from(prefix, *tags[split:]) == derive(11, *tags)
    # The prefix is copied, not consumed.
    assert derive_from(prefix, *tags[split:]) == derive(11, *tags)


@pytest.mark.parametrize("tags,value", [
    ((), 1562501227464863657),
    ((-1,), 400751720648439981),
    ((-2**63, "", "é", "ключ"), 8963937689278629474),
    ((7, "", -3, "日本"), 7184398730000127643),
])
def test_one_encoder_gives_the_pinned_derive(tags, value):
    # derive hashes the seed's 8 bytes and then encode(tags), for any mix
    # of tags: none, negative ints, empty and non-ASCII strings.
    h = hashlib.blake2b((2026).to_bytes(8, "little"), digest_size=8)
    h.update(encode(tags))
    assert int.from_bytes(h.digest(), "little") == value
    assert derive(2026, *tags) == value
    assert encode(tags[:1]) + encode(tags[1:]) == encode(tags)


def test_reseed_is_the_hasher_of_the_derived_value():
    prefix = hasher(11, "oracle-noise", "a")
    value = derive(11, "oracle-noise", "a")
    assert reseed(prefix).digest() == hasher(value).digest()
    assert derive_from(reseed(prefix), 1) == derive(value, 1)
