"""Monte-Carlo tree search with tunable backup strategies.

A game-agnostic MCTS engine whose backpropagation phase is pluggable:
plain averaging, recency weighting, best-child interpolation, stepwise
feedback weights, smooth monotone return weighting, and softmax
sharpening of parent values.  The two profile-based strategies are built
on a family of strictly increasing weight functions parameterized by a
few knots, and a Gaussian-process optimizer tunes those knots by
self-play win-rate on desk-scale games with exact oracles.
"""

from .backup import (BackupStrategy, CoulomBackup, ErwaBackup, FeedbackBackup,
                     MonotoneBackup, SoftmaxBackup, StandardBackup,
                     coulom_parent_update, softmax_parent_update)
from .bayesopt import (Evaluation, OptimizeConfig, bayesopt_loop, propose_next,
                       random_search)
from .games import (GameState, NodeLimitError, NoisyOracleEvaluator, PlayerRole,
                    RandomRolloutEvaluator, SyntheticTree, SyntheticTreeSpec,
                    SyntheticTreeState, TicTacToeState, best_actions,
                    empty_board, evaluate, generate_synthetic_tree,
                    minimax_value, reachable_states, trap_priors)
from .gp import (ConditioningError, GPModel, Matern52Kernel,
                 expected_improvement, fit)
from .search import (SearchConfig, SearchNode, SearchResult, run_search,
                     select_child)
from .tournament import (GameRecord, MatchConfig, MatchResult, SyntheticPool,
                         TicTacToePool, play_game, run_match, wilson_interval,
                         winrate_objective)
from .weights import (WeightProfile, build_weight_table, erwa_knots,
                      feedback_weight)

__version__ = "0.1.0"
