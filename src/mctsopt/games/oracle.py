"""Exact minimax oracle and the two leaf evaluators.

The oracle refuses (rather than truncates) when a game would exceed the
node ceiling, so a returned value is always exact.  Tic-tac-toe is solved
whole on first use and then answered by lookup.  The noisy oracle
evaluator stands in for a learned value function: exact value plus
clamped Gaussian noise, keyed by (state, seed) so concurrent searches
see identical noise.
"""

from __future__ import annotations

import functools
import math

from ..seeds import derive
from .base import GameState, NodeLimitError, PlayerRole
from .synthetic import MAX_ORACLE_NODES, SyntheticTreeState
from .tictactoe import TicTacToeState, empty_board


# Positions reachable from the empty tic-tac-toe board.  A depth-first
# search from any of them visits at most this many, so a node limit this
# large never stops one.
TTT_POSITIONS = 5478


def minimax_value(state: GameState, node_limit: int = MAX_ORACLE_NODES) -> float:
    """Exact game value of ``state`` in [0, 1] from MAX's perspective.

    Synthetic trees answer from cached bottom-up level arrays.  Reachable
    tic-tac-toe positions answer from a table of every such position,
    solved once on the first call whose ``node_limit`` admits the whole
    game.  Everything else (other games, smaller limits, unreachable
    boards) runs a memoized depth-first search.  Exceeding ``node_limit``
    raises NodeLimitError instead of returning an approximate value.
    """
    if isinstance(state, SyntheticTreeState):
        tree = state.tree
        total = (tree.branching**(tree.depth + 1) - 1) // (tree.branching - 1)
        if total > node_limit:
            raise NodeLimitError(f"{total} nodes exceed the {node_limit} ceiling")
        return tree.node_value(state.depth, state.index)

    if isinstance(state, TicTacToeState) and node_limit >= TTT_POSITIONS:
        value = _solved_tictactoe().get((state.xs, state.os, state.x_to_move))
        if value is not None:
            return value
    return _search(state, node_limit, {})


@functools.cache
def _solved_tictactoe() -> dict:
    """(xs, os, x_to_move) -> exact value, for every tic-tac-toe position
    reachable from the empty board; solved on the first call only."""
    memo: dict = {}
    _search(empty_board(), TTT_POSITIONS, memo)
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
    evaluation order or thread count.
    """

    kind = "noisy_oracle"

    def __init__(self, noise_sd: float = 0.0, seed: int = 0):
        if not noise_sd >= 0:
            raise ValueError("noise_sd must be non-negative")
        self.noise_sd = float(noise_sd)
        self.seed = int(seed)

    def evaluate(self, state: GameState, rng=None) -> float:
        v = minimax_value(state)
        if self.noise_sd == 0.0:
            return v
        key = derive(self.seed, "oracle-noise", *map(str, state.state_key()))
        u1 = (derive(key, 1) + 1) / 18446744073709551617.0
        u2 = (derive(key, 2) + 1) / 18446744073709551617.0
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return min(1.0, max(0.0, v + self.noise_sd * z))


def evaluate(state: GameState, evaluator, rng=None) -> float:
    """Return an estimate of ``state``'s value using ``evaluator``.

    Terminal states return their exact terminal value under either
    evaluator.
    """
    if state.terminal:
        return state.terminal_return
    return evaluator.evaluate(state, rng)
