"""Desk-scale game environments with exact ground truth."""

from .base import GameState, NodeLimitError, PlayerRole
from .oracle import (NoisyOracleEvaluator, RandomRolloutEvaluator,
                     best_actions, evaluate, minimax_value)
from .synthetic import (SyntheticTree, SyntheticTreeSpec, SyntheticTreeState,
                        generate_synthetic_tree, trap_priors)
from .tictactoe import TicTacToeState, empty_board, reachable_states

__all__ = [
    "GameState", "NodeLimitError", "PlayerRole",
    "NoisyOracleEvaluator", "RandomRolloutEvaluator",
    "best_actions", "evaluate", "minimax_value",
    "SyntheticTree", "SyntheticTreeSpec", "SyntheticTreeState",
    "generate_synthetic_tree", "trap_priors",
    "TicTacToeState", "empty_board", "reachable_states",
]
