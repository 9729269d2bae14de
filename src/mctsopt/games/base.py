"""Core game-state interface shared by all desk-scale environments."""

from __future__ import annotations

from enum import Enum


class PlayerRole(Enum):
    """Which player moves: MAX maximizes the return, MIN minimizes it.

    Roles alternate strictly along every path from the root.
    """

    MAX = 1
    MIN = -1


class GameState:
    """Immutable game position.

    Returns live in [0, 1] from MAX's perspective, with draws at 0.5.
    Terminal states have no actions; non-terminal states have at least
    one, identified by small integers in a fixed order.  States are safe
    to share across concurrent searches.
    """

    @property
    def to_move(self) -> PlayerRole:
        raise NotImplementedError

    @property
    def actions(self) -> tuple:
        raise NotImplementedError

    @property
    def terminal(self) -> bool:
        raise NotImplementedError

    @property
    def terminal_return(self) -> float:
        raise NotImplementedError

    def apply(self, action) -> "GameState":
        raise NotImplementedError

    @property
    def action_priors(self):
        """Optional per-action prior masses (None means uniform)."""
        return None

    def state_key(self):
        """Hashable identity used to key reproducible evaluator noise."""
        raise NotImplementedError
