"""Match runner: exact symmetry laws, intervals, objective plumbing."""

import gc
from dataclasses import replace

import pytest

from mctsopt import tournament
from mctsopt.backup import SoftmaxBackup, StandardBackup
from mctsopt.games.synthetic import (SyntheticTreeSpec, generate_synthetic_tree,
                                     trap_priors)
from mctsopt.search import SearchConfig
from mctsopt.seeds import derive
from mctsopt.tournament import (MatchConfig, SyntheticPool, TicTacToePool,
                                play_game, run_match, wilson_interval,
                                winrate_objective)


def engine(sims=100, **kw):
    defaults = dict(policy="UCB1", exploration=1.0)
    defaults.update(kw)
    return SearchConfig(simulations=sims, **defaults)


PLAY_PAIR = tournament._play_pair


def play_pair_in_frozen_worker(args):
    """tournament._play_pair, failing unless the objects the process
    inherited are frozen."""
    assert gc.get_freeze_count() > 0, "pool worker did not call gc.freeze"
    return PLAY_PAIR(args)


def small_match(games=20, sims=60, seed=5, pool=None, **kw):
    return MatchConfig(pool=pool or SyntheticPool(branching=3, depth=4),
                       engine_a=engine(), engine_b=engine(),
                       games=games, sims_per_move=sims, seed=seed, **kw)


class TestWilson:
    def test_contains_point_estimate(self):
        for wins, games in [(0, 10), (5, 10), (10, 10), (333, 1000)]:
            lo, hi = wilson_interval(wins, games)
            assert lo <= wins / games <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_width_shrinks_like_inverse_sqrt(self):
        widths = []
        for games in (100, 400, 1600):
            lo, hi = wilson_interval(games * 0.5, games)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]
        # Quadrupling the games roughly halves the width.
        assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.1)
        assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.1)


class TestConfigValidation:
    def test_games_must_be_even_and_positive(self):
        with pytest.raises(ValueError):
            small_match(games=21)
        with pytest.raises(ValueError):
            small_match(games=0)
        with pytest.raises(ValueError):
            small_match(sims=0)

    def test_trap_priors_vector(self):
        assert trap_priors(4, (2,), 0.7) == pytest.approx((0.1, 0.1, 0.7, 0.1))
        with pytest.raises(ValueError):
            trap_priors(4, (0,), 1.5)

    def test_synthetic_pool_is_the_spec(self):
        pool = SyntheticPool(branching=3, depth=4, trap_level=2, trap_count=1,
                             trap_prior=0.6)
        assert SyntheticPool() == SyntheticTreeSpec(branching=4, depth=8)
        root = pool.make(17)
        expected = generate_synthetic_tree(
            SyntheticTreeSpec(branching=3, depth=4, trap_level=2,
                              trap_count=1, trap_prior=0.6, seed=17))
        assert pool.seed == 0
        assert root.tree.trap_actions == expected.tree.trap_actions
        assert root.action_priors == expected.action_priors
        assert (root.tree.leaf_values == expected.tree.leaf_values).all()


class TestPlayGame:
    def test_deterministic_replay(self):
        start = SyntheticPool(branching=3, depth=4).make(seed=9)
        a = play_game(engine(50), engine(50), start, seed=3, a_moves_first=True)
        b = play_game(engine(50), engine(50), start, seed=3, a_moves_first=True)
        assert a == b

    def test_mirrored_pair_with_identical_engines(self):
        start = SyntheticPool(branching=3, depth=4).make(seed=11)
        first = play_game(engine(50), engine(50), start, seed=7,
                          a_moves_first=True)
        second = play_game(engine(50), engine(50), start, seed=7,
                           a_moves_first=False)
        # Seat seeds drive the searches, so the move sequences coincide
        # and the outcome labels swap.
        assert first.moves == second.moves
        assert first.final_return == second.final_return
        swap = {"A": "B", "B": "A", "draw": "draw"}
        assert second.outcome == swap[first.outcome]

    def test_rejects_terminal_start(self):
        pool = SyntheticPool(branching=2, depth=2)
        start = pool.make(0).apply(0).apply(1)
        with pytest.raises(ValueError):
            play_game(engine(), engine(), start, 0, True)

    def test_search_depth_beats_one_simulation_on_trap_trees(self):
        # Sanity oracle: a 1-sim engine moves by tie-break alone and blunders
        # into traps; a 2000-sim engine must score above 0.5 over 100 games.
        pool = SyntheticPool(branching=4, depth=6, trap_level=3, trap_count=1)
        strong, weak = engine(2000), engine(1)
        score = 0.0
        games = 100
        for g in range(games):
            start = pool.make(seed=1000 + g)
            rec = play_game(strong, weak, start, seed=g, a_moves_first=(g % 2 == 0))
            score += {"A": 1.0, "draw": 0.5, "B": 0.0}[rec.outcome]
        assert score / games > 0.5


class TestRunMatch:
    def test_self_play_is_exactly_half(self):
        result, records = run_match(small_match(games=20))
        assert result.wins_a == result.wins_b
        assert result.win_rate_a == 0.5
        assert result.ci95[0] <= 0.5 <= result.ci95[1]
        assert len(records) == 20
        assert [r.index for r in records] == list(range(20))

    def test_engine_swap_anti_symmetry(self):
        softmax = engine(backup=SoftmaxBackup.from_knots((-4.0, -1.0), 200))
        standard = engine(backup=StandardBackup())
        base = small_match(games=16)
        ab = MatchConfig(pool=base.pool, engine_a=softmax, engine_b=standard,
                         games=16, sims_per_move=60, seed=base.seed)
        ba = MatchConfig(pool=base.pool, engine_a=standard, engine_b=softmax,
                         games=16, sims_per_move=60, seed=base.seed)
        res_ab, _ = run_match(ab)
        res_ba, _ = run_match(ba)
        assert res_ab.wins_a == res_ba.wins_b
        assert res_ab.wins_b == res_ba.wins_a
        assert res_ab.win_rate_a == pytest.approx(1.0 - res_ba.win_rate_a)

    def test_worker_count_invariance(self):
        config = small_match(games=12)
        serial, rec_s = run_match(config, workers=1)
        parallel, rec_p = run_match(config, workers=2)
        assert serial == parallel
        assert rec_s == rec_p

    def test_pool_starts_no_more_workers_than_pairs(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr("mctsopt.tournament.ProcessPoolExecutor", SerialPool)
        config = small_match(games=4)
        assert run_match(config, workers=32) == run_match(config, workers=1)
        assert started == [2]

    def test_pool_workers_freeze_what_they_inherit(self, monkeypatch):
        assert gc.get_freeze_count() == 0
        config = small_match(games=4)
        serial = run_match(config, workers=1)
        monkeypatch.setattr("mctsopt.tournament._play_pair",
                            play_pair_in_frozen_worker)
        assert run_match(config, workers=2) == serial
        assert gc.get_freeze_count() == 0     # the parent froze nothing

    def test_sims_per_move_overrides_engines(self):
        config = MatchConfig(pool=TicTacToePool(), engine_a=engine(5000),
                             engine_b=engine(3), games=2, sims_per_move=20,
                             seed=1)
        result, records = run_match(config)
        # Equal budgets + mirrored seats: the pair must split.
        assert result.win_rate_a == 0.5

    def test_good_play_draws_tictactoe(self):
        # The exact oracle says perfect play draws; standard engines at
        # 2000 sims should draw nearly every game.
        config = MatchConfig(pool=TicTacToePool(), engine_a=engine(),
                             engine_b=engine(), games=30, sims_per_move=2000,
                             seed=8)
        result, _ = run_match(config, workers=2)
        assert result.draws / result.games >= 0.95


class TestWinrateObjective:
    BASE = MatchConfig(pool=SyntheticPool(branching=3, depth=4),
                       engine_a=engine(), engine_b=engine(),
                       games=40, sims_per_move=60, seed=17)

    def test_reproducible(self):
        knots = (-3.0, -2.0, -1.0)
        a = winrate_objective(knots, "softmax", self.BASE, horizon=60)
        b = winrate_objective(knots, "softmax", self.BASE, horizon=60)
        assert a == b

    def test_degenerate_softmax_splits_against_standard(self):
        # w stays ~1e-304: parent updates are visit-weighted means, which
        # behave statistically like standard backup.
        rate = winrate_objective((-700.0,) * 3, "softmax", self.BASE,
                                 horizon=60)
        lo, hi = wilson_interval(rate * self.BASE.games, self.BASE.games)
        assert lo <= 0.5 <= hi

    def test_uniform_monotone_plays_standard_exactly_even(self):
        # Constant zero knots give weight exactly 1 per visit: the engines
        # are bitwise identical, so mirrored pairs split every point.
        rate = winrate_objective((0.0, 0.0, 0.0), "monotone", self.BASE,
                                 horizon=60)
        assert rate == 0.5

    def test_games_are_those_of_the_base_seed(self, monkeypatch):
        played = []

        def recording(config, workers=1):
            result, records = run_match(config, workers)
            played.append([(g.pair_seed, g.moves) for g in records])
            return result, records

        monkeypatch.setattr(tournament, "run_match", recording)
        for seed in (17, 18):
            winrate_objective((-3.0, -2.0, -1.0), "softmax",
                              replace(self.BASE, games=4, seed=seed), horizon=60)
        assert [games[0][0] for games in played] == \
            [derive(17, "pair", 0), derive(18, "pair", 0)]
        assert played[0] != played[1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            winrate_objective((0.0, 0.0), "maximal", self.BASE, horizon=60)

    def test_profile_errors_propagate(self):
        with pytest.raises(ValueError):
            winrate_objective((0.0, 800.0), "softmax", self.BASE, horizon=60)


class TestBook:
    """A book of engine B's moves replays B's earlier searches of a run and
    changes no game."""

    KNOTS = ((-3.0, -2.0, -1.0), (-6.0, -5.0, -4.0), (-1.0, -1.5, -2.0))

    @staticmethod
    def base(pool):
        return MatchConfig(pool=pool, engine_a=engine(), engine_b=engine(),
                           games=8, sims_per_move=40, seed=23)

    @staticmethod
    def record_matches(monkeypatch):
        played = []

        def recording(config, workers=1):
            result, records = run_match(config, workers)
            played.append(records)
            return result, records

        monkeypatch.setattr(tournament, "run_match", recording)
        return played

    @staticmethod
    def count_searches(monkeypatch):
        counts = []
        run_search = tournament.run_search

        def counting(state, config):
            counts[-1][type(config.backup).__name__] += 1
            return run_search(state, config)

        monkeypatch.setattr(tournament, "run_search", counting)
        return counts

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("pool", [SyntheticPool(branching=3, depth=4),
                                      TicTacToePool()], ids=["synthetic", "ttt"])
    def test_records_identical_with_and_without_a_book(self, monkeypatch,
                                                       pool, workers):
        played = self.record_matches(monkeypatch)
        base, book = self.base(pool), {}
        rates = {}
        for shared in (None, book):
            rates[shared is None] = [
                winrate_objective(k, "softmax", base, horizon=40,
                                  workers=workers, book=shared)
                for k in self.KNOTS]
        assert rates[True] == rates[False]
        assert played[:3] == played[3:]
        # The candidates steer the games apart, so the book both replays
        # moves and learns new ones.
        assert played[0] != played[1]
        assert sorted(book) == list(range(base.games // 2))

    def test_repeated_knots_replay_every_b_move(self, monkeypatch):
        counts = self.count_searches(monkeypatch)
        base, book = self.base(SyntheticPool(branching=3, depth=4)), {}
        for knots in (self.KNOTS[0], self.KNOTS[1], self.KNOTS[1]):
            counts.append({"StandardBackup": 0, "SoftmaxBackup": 0})
            winrate_objective(knots, "softmax", base, horizon=40, book=book)
        standard = [c["StandardBackup"] for c in counts]
        softmax = [c["SoftmaxBackup"] for c in counts]
        # Every game on a depth-4 tree has two moves per engine.
        assert softmax == [2 * base.games] * 3
        assert standard[0] == 2 * base.games
        assert 0 < standard[1] < 2 * base.games
        assert standard[2] == 0
        assert sum(standard) == sum(map(len, book.values()))

    def test_no_book_searches_every_move(self, monkeypatch):
        counts = self.count_searches(monkeypatch)
        counts.append({"StandardBackup": 0, "SoftmaxBackup": 0})
        base = self.base(SyntheticPool(branching=3, depth=4))
        for _ in range(2):
            winrate_objective(self.KNOTS[0], "softmax", base, horizon=40)
        assert counts == [{"StandardBackup": 4 * base.games,
                           "SoftmaxBackup": 4 * base.games}]


class TestStopWhenDecided:
    """Match searches stop once their move is decided, and play the games
    full searches play."""

    POOL = SyntheticPool(branching=4, depth=8, leaf_win_prob=0.75,
                         trap_level=3, trap_count=1, trap_prior=0.92,
                         trap_deviation_win_prob=0.95,
                         trap_sealed_win_prob=0.65)
    C6_KNOTS = (-3.5, -3.0, -2.5)

    def base(self, games=6, sims=200, seed=31):
        softmax = engine(policy="PUCT", exploration=0.1,
                         backup=SoftmaxBackup.from_knots(self.C6_KNOTS, 1000))
        standard = engine(policy="PUCT", exploration=0.1,
                          backup=StandardBackup())
        return MatchConfig(pool=self.POOL, engine_a=softmax,
                           engine_b=standard, games=games,
                           sims_per_move=sims, seed=seed)

    @staticmethod
    def play_both_ways(monkeypatch, play):
        """play() once as the program runs it and once with every search
        forced to its full budget; the simulations each way ran, summed
        from the returned roots, with what play() returned."""
        search = tournament.run_search
        runs = {}
        for force_full in (False, True):
            ran = {"sims": 0, "searches": 0}

            def counting(state, config):
                if force_full:
                    config = replace(config, stop_when_decided=False)
                result = search(state, config)
                ran["sims"] += result.root.visits
                ran["searches"] += 1
                return result

            monkeypatch.setattr(tournament, "run_search", counting)
            runs[force_full] = (play(), ran)
        return runs[False], runs[True]

    def test_trap_pool_match_plays_the_full_search_games(self, monkeypatch):
        match = self.base()
        (stopped, ran), (full, nominal) = self.play_both_ways(
            monkeypatch, lambda: run_match(match, workers=1))
        assert stopped == full
        assert nominal["sims"] == nominal["searches"] * match.sims_per_move
        assert ran["searches"] == nominal["searches"]
        assert ran["sims"] < nominal["sims"]

    def test_repeated_objective_on_one_book_plays_the_same_games(self,
                                                                 monkeypatch):
        base = self.base(games=4, seed=44)
        played = TestBook.record_matches(monkeypatch)

        def tune():
            book, start = {}, len(played)
            rates = [winrate_objective(k, "softmax", base, horizon=1000,
                                       book=book)
                     for k in (self.C6_KNOTS, (-5.0, -4.0, -3.0),
                               self.C6_KNOTS)]
            return rates, played[start:], book

        (stopped, ran), (full, nominal) = self.play_both_ways(monkeypatch, tune)
        assert stopped == full
        assert ran["searches"] == nominal["searches"]
        assert ran["sims"] < nominal["sims"]
