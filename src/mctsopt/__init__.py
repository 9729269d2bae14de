"""Monte-Carlo tree search with tunable backup strategies.

A game-agnostic MCTS engine whose backpropagation phase is pluggable:
plain averaging, recency weighting, best-child interpolation, stepwise
feedback weights, smooth monotone return weighting, and softmax
sharpening of parent values.  The two profile-based strategies are built
on a family of strictly increasing weight functions parameterized by a
few knots, and a Gaussian-process optimizer tunes those knots by
self-play win-rate on desk-scale games with exact oracles.

The top level holds the names the README, the demos and the benchmark
import: the six backups, search and match entry points, the games and
evaluators they run on, and the tuner with its GP and weight tables.
Every other name is imported from the module that defines it, e.g.
``mctsopt.search.SearchNode`` or ``mctsopt.games.oracle.best_actions``.
"""

from .backup import (CoulomBackup, ErwaBackup, FeedbackBackup, MonotoneBackup,
                     SoftmaxBackup, StandardBackup)
from .bayesopt import OptimizeConfig, bayesopt_loop, random_search
from .games.oracle import (NoisyOracleEvaluator, RandomRolloutEvaluator,
                           minimax_value)
from .games.synthetic import SyntheticTree
from .games.tictactoe import empty_board
from .gp import Matern52Kernel, expected_improvement, fit
from .search import SearchConfig, run_search
from .tournament import MatchConfig, SyntheticPool, run_match
from .weights import build_weight_table, erwa_knots

__version__ = "0.1.0"
