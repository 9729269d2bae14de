"""Exact minimax oracle and the two leaf evaluators.

Synthetic trees compute their exact values bottom-up on first use.  Other
games are searched, and the search refuses (rather than truncates) when it
would exceed the node ceiling, so a returned value is always exact.
Tic-tac-toe is solved whole on first use and then answered by lookup.  The
noisy oracle evaluator stands in for a learned value function: exact value
plus clamped Gaussian noise, keyed by (state, seed) so concurrent searches
see identical noise.  Its noise takes one hash pass per derived value, and
each state key's encoded bytes are kept in a bounded per-process cache.
"""

from __future__ import annotations

import functools
import math

from ..seeds import encode, hasher, reseed
from .base import GameState, NodeLimitError, PlayerRole
from .synthetic import MAX_ORACLE_NODES, SyntheticTreeState
from .tictactoe import TicTacToeState, empty_board


def minimax_value(state: GameState) -> float:
    """Exact game value of ``state`` in [0, 1] from MAX's perspective.

    Synthetic trees answer from cached bottom-up level arrays; a tree
    already holds every leaf in memory, so no node ceiling applies.
    Reachable tic-tac-toe positions answer from a table of every such
    position, solved once on first use.  Everything else (other games,
    unreachable boards) runs a memoized depth-first search, which raises
    NodeLimitError beyond MAX_ORACLE_NODES states instead of returning an
    approximate value.
    """
    if isinstance(state, SyntheticTreeState):
        return state.tree.node_value(state.depth, state.index)

    if isinstance(state, TicTacToeState):
        value = _solved_tictactoe().get((state.xs, state.os, state.x_to_move))
        if value is not None:
            return value
    return _search(state, MAX_ORACLE_NODES, {})


@functools.cache
def _solved_tictactoe() -> dict:
    """(xs, os, x_to_move) -> exact value, for every tic-tac-toe position
    reachable from the empty board; solved on the first call only."""
    memo: dict = {}
    _search(empty_board(), MAX_ORACLE_NODES, memo)
    # In a reachable position X moves exactly when both have as many marks.
    return {(xs, os, xs.bit_count() == os.bit_count()): v
            for (_, xs, os), v in memo.items()}


def _search(state: GameState, node_limit: int, memo: dict) -> float:
    """Memoized depth-first minimax of ``state``, filling ``memo`` by
    state_key; visiting more than ``node_limit`` states raises."""
    budget = [node_limit]

    def value(s: GameState) -> float:
        key = s.state_key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        budget[0] -= 1
        if budget[0] < 0:
            raise NodeLimitError(f"exact search exceeded {node_limit} nodes")
        if s.terminal:
            v = s.terminal_return
        else:
            children = (value(s.apply(a)) for a in s.actions)
            v = max(children) if s.to_move is PlayerRole.MAX else min(children)
        memo[key] = v
        return v

    return value(state)


def best_actions(state: GameState) -> tuple[list, float]:
    """Actions achieving the mover's optimal value, plus that value."""
    if state.terminal:
        raise ValueError("terminal state has no actions")
    values = [(a, minimax_value(state.apply(a))) for a in state.actions]
    if state.to_move is PlayerRole.MAX:
        best = max(v for _, v in values)
    else:
        best = min(v for _, v in values)
    return [a for a, v in values if v == best], best


class RandomRolloutEvaluator:
    """One uniformly random playout to the end of the game."""

    kind = "rollout"

    def evaluate(self, state: GameState, rng) -> float:
        while not state.terminal:
            actions = state.actions
            state = state.apply(actions[rng.randrange(len(actions))])
        return state.terminal_return


class NoisyOracleEvaluator:
    """Exact value plus clamped Gaussian noise, reproducible per state.

    The noise for a given (state, seed) pair never changes, regardless of
    evaluation order or thread count.  It is a Box-Muller normal from two
    uniforms: with ``key = derive(seed, "oracle-noise", *map(str,
    state.state_key()))``, u1 and u2 come from ``derive(key, 1)`` and
    ``derive(key, 2)``.  The evaluator computes exactly that in one hash
    pass per derived value: it keeps the hash of the fixed
    ``(seed, "oracle-noise")`` prefix, absorbs a state key's encoded bytes
    with one update, and extends two copies of the key's own hash with the
    fixed encodings of tags 1 and 2.
    """

    kind = "noisy_oracle"

    def __init__(self, noise_sd: float, seed: int):
        if not noise_sd >= 0:
            raise ValueError("noise_sd must be non-negative")
        self.noise_sd = float(noise_sd)
        self.seed = int(seed)
        self._prefix = hasher(self.seed, "oracle-noise")

    def __reduce__(self):
        # A hash state does not pickle; a worker rebuilds it from the seed.
        return NoisyOracleEvaluator, (self.noise_sd, self.seed)

    def evaluate(self, state: GameState, rng=None) -> float:
        v = minimax_value(state)
        if self.noise_sd == 0.0:
            return v
        h = self._prefix.copy()
        h.update(_key_bytes(state.state_key()))
        key = reseed(h)
        h = key.copy()
        h.update(_TAG_1)
        key.update(_TAG_2)
        u1 = (int.from_bytes(h.digest(), "little") + 1) / 18446744073709551617.0
        u2 = (int.from_bytes(key.digest(), "little") + 1) / 18446744073709551617.0
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return min(1.0, max(0.0, v + self.noise_sd * z))


_TAG_1 = encode((1,))
_TAG_2 = encode((2,))


@functools.lru_cache(maxsize=2**16)
def _key_bytes(key) -> bytes:
    """The encoded tags of a state key, ``encode(map(str, key))``, built
    once per process.  Bounded, so a long run over a large synthetic tree
    keeps at most 2**16 keys; tic-tac-toe has 5,478 positions."""
    return encode(map(str, key))


def evaluate(state: GameState, evaluator, rng=None) -> float:
    """Return an estimate of ``state``'s value using ``evaluator``.

    Terminal states return their exact terminal value under either
    evaluator.
    """
    if state.terminal:
        return state.terminal_return
    return evaluator.evaluate(state, rng)
