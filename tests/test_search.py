"""MCTS loop: selection arithmetic, conservation laws, convergence."""

import gc
import math
import weakref

import numpy as np
import pytest

from mctsopt.backup import (CoulomBackup, ErwaBackup, FeedbackBackup,
                            MonotoneBackup, SoftmaxBackup, StandardBackup)
from mctsopt.games.base import GameState
from mctsopt.games.oracle import minimax_value
from mctsopt.games.synthetic import SyntheticTree
from mctsopt.games.tictactoe import empty_board
from mctsopt.search import (SearchConfig, SearchNode, _select_index, run_search,
                            _score_tables)
from mctsopt.tournament import SyntheticPool


def make_parent(child_stats, is_max=True):
    """Parent node with children given as (q, visits, prior) triples."""
    parent = SearchNode(is_max=is_max)
    parent.child_actions = tuple(range(len(child_stats)))
    parent.children = []
    for q, n, prior in child_stats:
        child = SearchNode(is_max=not is_max, prior=prior)
        child.q = q
        child.visits = n
        parent.children.append(child)
    parent.visits = sum(n for _, n, _ in child_stats) + 1
    return parent


def select_child(parent, policy, c):
    """Action the tree policy picks at an expanded node, with score tables
    built as run_search builds them, for a budget just past the parent's
    and every child's visit count."""
    budget = max([parent.visits] + [ch.visits for ch in parent.children]) + 1
    scales, roots = _score_tables(policy, c, budget)
    return parent.child_actions[_select_index(parent, scales, roots)]


class TestScores:
    def test_ucb1_hand_arithmetic(self):
        # N_parent = 4.  Q + c * sqrt(ln 4 / (N + 1)) is 0.9 + c * sqrt(ln 4) / 2
        # for the child with 3 visits and 0.5 + c * sqrt(ln 4) for the
        # unvisited one (counted as Q = 0.5), so the pick flips at
        # c = 0.8 / sqrt(ln 4) = 0.679.
        parent = make_parent([(0.9, 3, 0.5), (0.0, 0, 0.5)])
        assert parent.visits == 4
        for c, expected in ((0.66, 0), (0.70, 1)):
            scores = [0.9 + c * math.sqrt(math.log(4)) / 2,
                      0.5 + c * math.sqrt(math.log(4))]
            assert scores.index(max(scores)) == expected
            assert select_child(parent, "UCB1", c) == expected

    def test_puct_hand_arithmetic(self):
        # N_parent = 16.  Q + c * prior * sqrt(16) / (N + 1) is 0.4 + c / 2
        # for (Q 0.4, 3 visits) and 0.9 + 2c / 13 for (Q 0.9, 12 visits),
        # both with prior 0.5, so the pick flips at c = 13 / 9 = 1.444.
        parent = make_parent([(0.4, 3, 0.5), (0.9, 12, 0.5)])
        assert parent.visits == 16
        for c, expected in ((2.0, 0), (1.4, 1)):
            scores = [0.4 + c * 0.5 * 4 / 4, 0.9 + c * 0.5 * 4 / 13]
            assert scores.index(max(scores)) == expected
            assert select_child(parent, "PUCT", c) == expected

    def test_ucb1_argmax_shift_invariance(self):
        stats = [(0.2, 3, 0.5), (0.6, 9, 0.5)]
        base = make_parent(stats)
        shifted = make_parent([(q + 0.17, n, p) for q, n, p in stats])
        assert select_child(base, "UCB1", 1.0) == \
            select_child(shifted, "UCB1", 1.0)


class TestSelectChild:
    def test_single_child(self):
        parent = make_parent([(0.1, 2, 1.0)])
        for c in (0.0, 1.0, 10.0):
            assert select_child(parent, "UCB1", c) == 0

    def test_exploitation_only_limit(self):
        parent = make_parent([(0.3, 5, 0.5), (0.8, 50, 0.5)])
        assert select_child(parent, "UCB1", 0.0) == 1
        assert select_child(parent, "PUCT", 0.0) == 1

    def test_min_node_prefers_low_q(self):
        parent = make_parent([(0.3, 5, 0.5), (0.8, 5, 0.5)], is_max=False)
        assert select_child(parent, "UCB1", 0.0) == 0

    def test_unvisited_scores_half(self):
        parent = make_parent([(0.0, 0, 0.5), (0.49, 10, 0.5)])
        assert select_child(parent, "UCB1", 0.0) == 0

    def test_ties_break_to_lowest_action_index(self):
        parent = make_parent([(0.5, 3, 0.5), (0.5, 3, 0.5)])
        assert select_child(parent, "UCB1", 1.0) == 0

    def test_spec_example_first_child_wins(self):
        parent = make_parent([(0.5, 0, 0.5), (0.9, 3, 0.5)])
        parent.visits = 3  # ln 3 ~ 1.1: same argmax as the ln = 1 example
        assert select_child(parent, "UCB1", 1.0) == 0

    def test_puct_follows_prior_on_fresh_children(self):
        parent = make_parent([(0.0, 0, 0.1), (0.0, 0, 0.8), (0.0, 0, 0.1)])
        parent.visits = 1
        assert select_child(parent, "PUCT", 1.0) == 1


class TestRunSearchBasics:
    def test_rejects_terminal_root_and_zero_budget(self):
        done = empty_board()
        for a in (0, 3, 1, 4, 2):   # X completes the top row
            done = done.apply(a)
        assert done.terminal
        with pytest.raises(ValueError):
            run_search(done, SearchConfig(simulations=10))
        with pytest.raises(ValueError):
            run_search(empty_board(), SearchConfig(simulations=0))

    def test_deterministic_replay(self):
        cfg = SearchConfig(simulations=500, policy="UCB1", exploration=1.2, seed=9)
        a = run_search(empty_board(), cfg)
        b = run_search(empty_board(), cfg)
        assert a.visit_distribution == b.visit_distribution
        assert a.root_q == b.root_q
        assert a.principal_variation == b.principal_variation

    def test_visit_conservation(self):
        cfg = SearchConfig(simulations=800, policy="UCB1", exploration=1.0, seed=4)
        result = run_search(empty_board(), cfg)

        def check(node):
            if node.children is None:
                return
            assert node.visits == 1 + sum(c.visits for c in node.children)
            for child in node.children:
                check(child)

        check(result.root)
        assert sum(result.visit_distribution.values()) == 800 - 1

    def test_single_simulation_moves_by_tie_break(self):
        result = run_search(empty_board(), SearchConfig(simulations=1, seed=0))
        assert result.best_action == 0
        assert all(v == 0 for v in result.visit_distribution.values())

    def test_best_action_has_max_visits(self):
        cfg = SearchConfig(simulations=300, seed=2)
        result = run_search(empty_board(), cfg)
        top = max(result.visit_distribution.values())
        assert result.visit_distribution[result.best_action] == top

    def test_immediate_win_found_by_every_strategy(self):
        # X completes a row with cell 2; all alternatives lose or draw.
        state = empty_board()
        for m in (0, 3, 1, 4):
            state = state.apply(m)
        strategies = [
            StandardBackup(), ErwaBackup(0.05),
            CoulomBackup(2.0, 16), FeedbackBackup("GAY", 64.0, 200),
            MonotoneBackup.from_knots((-2.0, -2.0), 200),
            SoftmaxBackup.from_knots((-2.0, -2.0), 200),
        ]
        for strategy in strategies:
            cfg = SearchConfig(simulations=200, policy="UCB1", exploration=1.0,
                               backup=strategy, seed=7)
            assert run_search(state, cfg).best_action == 2

    def test_root_priors_override(self):
        # Priors reach a search only through the state's action_priors; the
        # search normalizes them at the root and gives deeper nodes uniform
        # ones.
        tree = SyntheticTree(branching=3, depth=2, leaf_values=np.zeros(9),
                             root_priors=(3.0, 1.0, 1.0))
        cfg = SearchConfig(simulations=50, policy="PUCT", exploration=2.0,
                           seed=1)
        result = run_search(tree.root, cfg)
        assert [c.prior for c in result.root.children] == \
            pytest.approx([0.6, 0.2, 0.2])
        for child in result.root.children:
            assert [g.prior for g in child.children] == pytest.approx([1 / 3] * 3)
        wrong = SyntheticTree(branching=3, depth=2, leaf_values=np.zeros(9),
                              root_priors=(1.0, 2.0))
        with pytest.raises(ValueError):
            run_search(wrong.root, SearchConfig(simulations=5))


class ApplyLog:
    """How many states a search made, how often it asked whether one was
    terminal, and which of the states are still alive."""

    def __init__(self):
        self.applies = 0
        self.terminal_reads = 0
        self.alive = weakref.WeakSet()


class CountingState(GameState):
    """Wraps a state and records every apply and terminal read in an
    ApplyLog."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    to_move = property(lambda self: self.inner.to_move)
    actions = property(lambda self: self.inner.actions)

    @property
    def terminal(self):
        self.log.terminal_reads += 1
        return self.inner.terminal

    terminal_return = property(lambda self: self.inner.terminal_return)
    action_priors = property(lambda self: self.inner.action_priors)

    def apply(self, action):
        child = CountingState(self.inner.apply(action), self.log)
        self.log.applies += 1
        self.log.alive.add(child)
        return child


class ConstantEvaluator:
    kind = "constant"

    def evaluate(self, state, rng=None):
        return 0.5


class TestStateReuse:
    POOL = SyntheticPool(branching=3, depth=4, trap_level=2, trap_count=1,
                         trap_prior=0.6)

    @pytest.mark.parametrize("backup", [StandardBackup(),
                                        SoftmaxBackup.from_knots((-2.0, -1.0), 300)],
                             ids=["standard", "softmax"])
    @pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
    def test_one_apply_per_entered_node_plus_one_per_evaluation(self, backup,
                                                                 policy):
        # Re-applying the path at every level would cost about one apply
        # per tree level per simulation: 4 or more here.
        sims = 300
        log = ApplyLog()
        result = run_search(CountingState(self.POOL.make(3), log), SearchConfig(
            simulations=sims, policy=policy, backup=backup,
            evaluator=ConstantEvaluator(), seed=2))
        nodes = list(walk(result.root))
        entered = sum(1 for node in nodes[1:] if node.visits)
        evaluations = sum(1 for node in nodes if node.children is not None)
        assert log.applies == entered + evaluations <= 2 * sims

    @pytest.mark.parametrize("backup", [StandardBackup(),
                                        SoftmaxBackup.from_knots((-2.0, -1.0), 300)],
                             ids=["standard", "softmax"])
    @pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
    def test_one_terminal_read_per_simulation(self, backup, policy):
        # Expanded nodes are never terminal, so only the node where a
        # descent stops needs the test; once per tree level is 4 or more.
        sims = 300
        log = ApplyLog()
        result = run_search(CountingState(self.POOL.make(3), log), SearchConfig(
            simulations=sims, policy=policy, backup=backup,
            evaluator=ConstantEvaluator(), seed=2))
        evaluations = sum(1 for node in walk(result.root)
                          if node.children is not None)
        assert log.terminal_reads <= sims + evaluations + 1

    def test_returned_tree_holds_no_state(self):
        log = ApplyLog()
        result = run_search(CountingState(self.POOL.make(3), log), SearchConfig(
            simulations=200, policy="PUCT", evaluator=ConstantEvaluator()))
        gc.collect()
        assert log.applies > 0
        assert result.root.visits == 200
        assert len(log.alive) == 0


def walk(node):
    yield node
    for child in node.children or ():
        yield from walk(child)


class TestStandardMeanReplay:
    def test_q_equals_mean_of_logged_returns(self):
        logged = []

        class RecordingStandard(StandardBackup):
            def backpropagate(self, path, value):
                for node in path:
                    logged.append((id(node), value))
                super().backpropagate(path, value)

        cfg = SearchConfig(simulations=400, policy="UCB1", exploration=1.0,
                           backup=RecordingStandard(), seed=11)
        result = run_search(empty_board(), cfg)

        returns = {}
        for node_id, value in logged:
            returns.setdefault(node_id, []).append(value)

        def check(node):
            if node.visits:
                seq = returns[id(node)]
                assert len(seq) == node.visits
                assert node.q == pytest.approx(sum(seq) / len(seq), abs=1e-12)
            if node.children:
                for child in node.children:
                    check(child)

        check(result.root)


class TestConvergenceSanity:
    def test_depth_two_tree_all_strategies(self):
        # Distinct leaf values; best root action decided by the min over
        # each child's leaves: action 1 (min 0.7) beats 0 (0.3) and 2 (0.1).
        leaves = np.array([0.3, 0.9, 0.5,
                           0.8, 0.7, 0.95,
                           0.1, 0.6, 0.4])
        tree = SyntheticTree(branching=3, depth=2, leaf_values=leaves)
        root = tree.root
        assert minimax_value(root) == 0.7
        strategies = [
            StandardBackup(), ErwaBackup(0.02),
            CoulomBackup(2.0, 16), FeedbackBackup("GBY", 64.0, 10_000),
            MonotoneBackup.from_knots((-3.0, -3.0), 10_000),
            SoftmaxBackup.from_knots((-3.0, -1.0), 10_000),
        ]
        for strategy in strategies:
            cfg = SearchConfig(simulations=10_000, policy="UCB1",
                               exploration=0.7, backup=strategy, seed=13)
            result = run_search(root, cfg)
            assert result.best_action == 1, strategy.kind
