"""Game environments against brute-force and Monte-Carlo oracles."""

import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mctsopt.games import oracle
from mctsopt.games.base import NodeLimitError, PlayerRole
from mctsopt.games.oracle import (NoisyOracleEvaluator, RandomRolloutEvaluator,
                                  best_actions, evaluate, minimax_value)
from mctsopt.games.synthetic import (MAX_ORACLE_NODES, SyntheticTreeSpec,
                                     generate_synthetic_tree, trap_priors)
from mctsopt.games.tictactoe import (TicTacToeState, empty_board,
                                     reachable_states)
from mctsopt.seeds import derive


def brute_force_value(state):
    """Independent minimax oracle walking the public GameState interface."""
    if state.terminal:
        return state.terminal_return
    values = [brute_force_value(state.apply(a)) for a in state.actions]
    return max(values) if state.to_move is PlayerRole.MAX else min(values)


class TestSyntheticGeneration:
    def test_degenerate_probability_one(self):
        root = generate_synthetic_tree(
            SyntheticTreeSpec(branching=2, depth=1, leaf_win_prob=1.0, seed=5))
        assert [root.apply(a).terminal_return for a in root.actions] == [1.0, 1.0]

    def test_seed_determinism(self):
        spec = SyntheticTreeSpec(branching=3, depth=4, seed=7)
        a = generate_synthetic_tree(spec)
        b = generate_synthetic_tree(spec)
        assert np.array_equal(a.tree.leaf_values, b.tree.leaf_values)

    def test_minimax_matches_brute_force(self):
        spec = SyntheticTreeSpec(branching=2, depth=3, leaf_win_prob=0.5, seed=11)
        root = generate_synthetic_tree(spec)
        assert minimax_value(root) == brute_force_value(root)

    def test_recursive_consistency_everywhere(self):
        # max/min recursion holds at every node of a ~10^4 node tree.
        root = generate_synthetic_tree(
            SyntheticTreeSpec(branching=3, depth=8, leaf_win_prob=0.7, seed=2))
        tree = root.tree
        levels = tree.value_levels()
        for depth in range(tree.depth):
            stacked = levels[depth + 1].reshape(-1, 3)
            reduced = stacked.max(axis=1) if depth % 2 == 0 else stacked.min(axis=1)
            assert np.array_equal(levels[depth], reduced)

    def test_spot_check_against_interface_walk(self):
        root = generate_synthetic_tree(
            SyntheticTreeSpec(branching=2, depth=6, leaf_win_prob=0.6, seed=9))
        state = root.apply(1).apply(0).apply(1)
        assert minimax_value(state) == brute_force_value(state)

    def test_all_ones_tree_has_value_one(self):
        root = generate_synthetic_tree(
            SyntheticTreeSpec(branching=2, depth=4, leaf_win_prob=1.0, seed=1))
        assert minimax_value(root) == 1.0

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=1, depth=3)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=2, depth=0)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=2, depth=3, leaf_win_prob=1.5)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=2, depth=3, trap_level=3)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=2, depth=3, trap_count=1)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=2, depth=3, trap_count=2,
                              trap_level=1)
        with pytest.raises(ValueError):
            SyntheticTreeSpec(branching=4, depth=13)
        with pytest.raises(ValueError):     # trap_prior needs a trap
            SyntheticTreeSpec(branching=2, depth=3, trap_prior=0.5)
        for prior in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                SyntheticTreeSpec(branching=3, depth=3, trap_level=1,
                                  trap_count=1, trap_prior=prior)

    def test_role_alternation(self):
        root = generate_synthetic_tree(SyntheticTreeSpec(2, 4, seed=3))
        state = root
        role = PlayerRole.MAX
        while not state.terminal:
            assert state.to_move is role
            state = state.apply(0)
            role = PlayerRole.MIN if role is PlayerRole.MAX else PlayerRole.MAX


class TestTrapTrees:
    SPEC = SyntheticTreeSpec(branching=4, depth=8, leaf_win_prob=0.75,
                             trap_level=3, trap_count=1, seed=42)

    def test_exactly_trap_count_losing_actions(self):
        for seed in range(20):
            spec = SyntheticTreeSpec(branching=4, depth=8, leaf_win_prob=0.75,
                                     trap_level=3, trap_count=1, seed=seed)
            root = generate_synthetic_tree(spec)
            values = [minimax_value(root.apply(a)) for a in root.actions]
            losing = [a for a, v in enumerate(values) if v == 0.0]
            assert losing == sorted(root.tree.trap_actions)
            assert max(values) >= 0.5

    def test_two_traps(self):
        spec = SyntheticTreeSpec(branching=4, depth=8, leaf_win_prob=0.75,
                                 trap_level=3, trap_count=2, seed=8)
        root = generate_synthetic_tree(spec)
        values = [minimax_value(root.apply(a)) for a in root.actions]
        assert sum(v == 0.0 for v in values) == 2

    def test_trap_loss_sealed_within_k_plies(self):
        # Following the opponent's optimal line from the trap, the whole
        # remaining subtree is lost after at most k plies.
        root = generate_synthetic_tree(self.SPEC)
        trap = root.tree.trap_actions[0]
        state = root.apply(trap)
        for _ in range(self.SPEC.trap_level):
            assert minimax_value(state) == 0.0
            if state.to_move is PlayerRole.MIN:
                moves, _ = best_actions(state)
                state = state.apply(moves[0])
            else:
                state = state.apply(0)
        tree = state.tree
        width = 4 ** (tree.depth - state.depth)
        leaves = tree.leaf_values[state.index * width:(state.index + 1) * width]
        assert np.all(leaves == 0.0)

    def test_trap_deviations_leave_healthy_positions(self):
        # Off the killer line the opponent can stumble into non-losing
        # positions: the trap is not an all-zero subtree.
        root = generate_synthetic_tree(self.SPEC)
        trap = root.tree.trap_actions[0]
        after = root.apply(trap)
        child_values = [minimax_value(after.apply(a)) for a in after.actions]
        assert min(child_values) == 0.0
        assert max(child_values) > 0.0

    def test_root_priors_attach_at_root_only(self):
        root = generate_synthetic_tree(self.SPEC)
        boosted = generate_synthetic_tree(replace(self.SPEC, trap_prior=0.7))
        trap = root.tree.trap_actions
        assert boosted.action_priors == trap_priors(4, trap, 0.7)
        assert boosted.action_priors[trap[0]] == pytest.approx(0.7)
        assert boosted.apply(0).action_priors is None
        assert root.action_priors is None
        # The prior changes what the search is told, not the game.
        assert boosted.tree.trap_actions == trap
        assert np.array_equal(boosted.tree.leaf_values, root.tree.leaf_values)


class TestTicTacToe:
    def test_empty_board_is_draw(self):
        assert minimax_value(empty_board()) == 0.5

    def test_immediate_win_for_x(self):
        # X has two in a row and moves: value 1.
        state = TicTacToeState(xs=0b000000011, os=0b000011000, x_to_move=True)
        assert minimax_value(state) == 1.0

    def test_immediate_win_for_o(self):
        state = TicTacToeState(xs=0b000000011, os=0b000011000, x_to_move=False)
        # O completes its row via cell 5: value 0 for MAX.
        assert minimax_value(state) == 0.0

    def test_brute_force_agreement_from_midgame(self):
        state = empty_board().apply(4).apply(0).apply(8)
        assert minimax_value(state) == brute_force_value(state)

    def test_terminal_detection(self):
        won = TicTacToeState(xs=0b000000111, os=0b000011000, x_to_move=False)
        assert won.terminal and won.terminal_return == 1.0
        assert won.actions == ()
        with pytest.raises(ValueError):
            empty_board().terminal_return

    def test_illegal_moves_rejected(self):
        state = empty_board().apply(4)
        with pytest.raises(ValueError):
            state.apply(4)

    def test_reachable_states_count(self):
        states = reachable_states()
        assert len(states) == len(set(states))
        assert 5000 < len(states) < 6000

    def test_alternation(self):
        state = empty_board()
        assert state.to_move is PlayerRole.MAX
        assert state.apply(0).to_move is PlayerRole.MIN


class TestOracleCeiling:
    def test_refuses_instead_of_truncating(self):
        with pytest.raises(NodeLimitError):
            oracle._search(empty_board(), 10, {})


class TestSolvedTicTacToe:
    def test_table_equals_uncached_search_everywhere(self):
        for state in reachable_states():
            assert minimax_value(state) == \
                oracle._search(state, MAX_ORACLE_NODES, {})

    def test_wrong_mover_is_searched_not_looked_up(self):
        # O to move on a board where X should move: not a reachable
        # position, so its value comes from a search of its own.
        state = TicTacToeState(xs=0b000000011, os=0b000011000, x_to_move=False)
        assert minimax_value(state) == brute_force_value(state) == 0.0

    def test_table_is_built_on_first_use_not_at_import(self):
        code = ("import mctsopt; from mctsopt.games import oracle; "
                "print(oracle._solved_tictactoe.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(os.path.dirname(oracle.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "0"


class TestEvaluators:
    def test_rollout_on_terminal_returns_its_value(self):
        won = TicTacToeState(xs=0b000000111, os=0b000011000, x_to_move=False)
        assert evaluate(won, RandomRolloutEvaluator(),
                        random.Random(0)) == 1.0

    def test_noiseless_oracle_is_exact(self):
        state = empty_board().apply(4)
        assert evaluate(state, NoisyOracleEvaluator(noise_sd=0.0, seed=0)) == \
            minimax_value(state)

    def test_noise_reproducible_per_state(self):
        ev = NoisyOracleEvaluator(noise_sd=0.1, seed=3)
        state = empty_board().apply(4)
        assert ev.evaluate(state) == ev.evaluate(state)
        other = NoisyOracleEvaluator(noise_sd=0.1, seed=4)
        assert ev.evaluate(state) != other.evaluate(state)

    @pytest.mark.parametrize("seed", [3, 2**64 - 5])
    def test_noise_is_the_derive_formula(self, seed):
        # The evaluator keeps hash states to save work; its noise must stay
        # this formula, also after pickling for a worker process.
        ev = NoisyOracleEvaluator(noise_sd=0.1, seed=seed)
        sent = pickle.loads(pickle.dumps(ev))
        for state in reachable_states():
            key = derive(seed, "oracle-noise", *map(str, state.state_key()))
            u1 = (derive(key, 1) + 1) / 18446744073709551617.0
            u2 = (derive(key, 2) + 1) / 18446744073709551617.0
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            expected = min(1.0, max(0.0, minimax_value(state) + 0.1 * z))
            assert ev.evaluate(state) == expected
            assert sent.evaluate(state) == expected

    @pytest.mark.parametrize("seed", [3, 2**64 - 5])
    def test_noise_is_the_derive_formula_on_synthetic_trees(self, seed):
        # Synthetic keys carry the tree's 64-bit fingerprint, a tag far
        # longer than tic-tac-toe's bitboards.
        spec = SyntheticTreeSpec(branching=3, depth=4, leaf_win_prob=0.6,
                                 seed=seed % 1000)
        ev = NoisyOracleEvaluator(noise_sd=0.3, seed=seed)
        sent = pickle.loads(pickle.dumps(ev))
        states = [generate_synthetic_tree(spec)]
        for state in states:
            assert state.state_key()[1] == state.tree.fingerprint
            key = derive(seed, "oracle-noise", *map(str, state.state_key()))
            u1 = (derive(key, 1) + 1) / 18446744073709551617.0
            u2 = (derive(key, 2) + 1) / 18446744073709551617.0
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            expected = min(1.0, max(0.0, minimax_value(state) + 0.3 * z))
            assert ev.evaluate(state) == expected
            assert sent.evaluate(state) == expected
            if not state.terminal:
                states.extend(state.apply(a) for a in state.actions)
        assert len(states) == 1 + 3 + 9 + 27 + 81

    def test_state_key_cache_is_bounded(self):
        maxsize = oracle._key_bytes.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 2**16

    def test_noise_clamped_to_unit_interval(self):
        ev = NoisyOracleEvaluator(noise_sd=50.0, seed=1)
        vals = [ev.evaluate(empty_board().apply(a)) for a in range(9)]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_rollout_mean_matches_independent_simulator(self):
        # Oracle: a standalone random-play simulator with its own board
        # logic (list-based, no bitboards).
        lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6),
                 (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6)]

        def independent_game(rng):
            board = [None] * 9
            player = "X"
            empties = list(range(9))
            while True:
                cell = empties.pop(rng.randrange(len(empties)))
                board[cell] = player
                if any(board[a] == board[b] == board[c] == player
                       for a, b, c in lines):
                    return 1.0 if player == "X" else 0.0
                if not empties:
                    return 0.5
                player = "O" if player == "X" else "X"

        n = 10_000
        rng = random.Random(123)
        direct = sum(independent_game(rng) for _ in range(n)) / n
        ev = RandomRolloutEvaluator()
        rng2 = random.Random(456)
        rolled = sum(ev.evaluate(empty_board(), rng2) for _ in range(n)) / n
        se = np.sqrt(2 * 0.25 / n)  # conservative combined standard error
        assert abs(rolled - direct) <= 2 * se
