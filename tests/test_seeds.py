"""Seed derivation: fixed values, and prefix hash states that agree with it."""

import pytest

from mctsopt.seeds import derive, derive_from, hasher


def test_derive_values_are_fixed():
    # Every seeded output of the program flows from these hashes.
    assert derive(0) == 1786884285633530058
    assert derive(2026, "eval", 3) == 9336003117749225350
    assert derive(-1, "oracle-noise", "ttt", "65", "8") == 5039226447179955070
    assert derive(7, 2**64 + 5, "é") == 1397109448855630194


@pytest.mark.parametrize("split", range(4))
def test_derive_from_a_prefix_equals_derive(split):
    tags = ("oracle-noise", 3, "ab", -2)
    prefix = hasher(11, *tags[:split])
    assert derive_from(prefix, *tags[split:]) == derive(11, *tags)
    # The prefix is copied, not consumed.
    assert derive_from(prefix, *tags[split:]) == derive(11, *tags)
