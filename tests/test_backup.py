"""Backup strategy updates against hand arithmetic and recursion oracles."""

import json

import numpy as np
import pytest

from mctsopt.backup import (CoulomBackup, ErwaBackup, FeedbackBackup,
                            MonotoneBackup, SoftmaxBackup, StandardBackup,
                            coulom_parent_update, parse_knots, format_knots,
                            softmax_parent_update)
from mctsopt.cli import dispatch
from mctsopt.games.synthetic import SyntheticTreeSpec
from mctsopt.search import SearchConfig, SearchNode, run_search
from mctsopt.weights import WeightProfile, build_weight_table, erwa_knots


def fresh_node(is_max=True):
    return SearchNode(is_max=is_max)


def feed(strategy, returns, is_max=True):
    """Push a return sequence through one node, return its Q history."""
    node = fresh_node(is_max)
    qs = []
    for r in returns:
        strategy.backpropagate([node], r)
        qs.append(node.q)
    return qs


def zero_profile(horizon=100):
    """Profile with w identically 0 (softmax's visit-weighted-mean limit)."""
    return WeightProfile(knots=(-1.0, -1.0), horizon=horizon, w0=0.0,
                         table=np.zeros(horizon + 1))


def const_profile(w, horizon=100, w0=0.0):
    return WeightProfile(knots=(-1.0, -1.0), horizon=horizon, w0=w0,
                         table=np.full(horizon + 1, float(w)))


class TestStandard:
    @pytest.mark.parametrize("returns,expected", [
        ([1.0, 0.0], 0.5),
        ([1.0, 1.0, 1.0], 1.0),
        ([1.0, 0.0, 0.0, 1.0], 0.5),
    ])
    def test_running_mean(self, returns, expected):
        assert feed(StandardBackup(), returns)[-1] == expected

    def test_first_return_initializes_q(self):
        node = fresh_node()
        StandardBackup().backpropagate([node], 1.0)
        assert node.q == 1.0 and node.visits == 1


class TestErwa:
    def test_alpha_one_tracks_latest_return(self):
        assert feed(ErwaBackup(1.0), [0.3, 0.9, 0.1]) == [0.3, 0.9, 0.1]

    def test_half_step(self):
        assert feed(ErwaBackup(0.5), [0.0, 1.0])[-1] == 0.5
        assert feed(ErwaBackup(0.5), [0.0, 1.0, 1.0])[-1] == 0.75

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ErwaBackup(0.0)
        with pytest.raises(ValueError):
            ErwaBackup(1.5)


class TestMonotone:
    def test_requires_w0_one(self):
        with pytest.raises(ValueError):
            MonotoneBackup(zero_profile())

    def test_uniform_weights_are_bitwise_standard(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            returns = rng.random(50)
            qs_std = feed(StandardBackup(), returns)
            qs_mono = feed(MonotoneBackup(const_profile(1.0, w0=1.0)), returns)
            assert qs_std == qs_mono

    def test_small_table_arithmetic(self):
        profile = WeightProfile(knots=(0.0, 0.0), horizon=2, w0=1.0,
                                table=np.array([1.0, 2.0, 3.0]))
        q = feed(MonotoneBackup(profile), [1.0, 0.0, 1.0])[-1]
        assert q == pytest.approx((1 * 1 + 2 * 0 + 3 * 1) / 6)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 0.01])
    def test_recency_profile_matches_erwa_recursion(self, alpha):
        # The geometric weights give the very first return an alpha-times
        # smaller normalized coefficient than the plain recursion seeded
        # with it, so the exact equivalence is to the bias-corrected
        # recursion with step alpha_n = alpha / (1 - (1-alpha)^(n+1));
        # the plain recursion is approached at rate (1-alpha)^(n+1).
        strategy = MonotoneBackup(erwa_knots(alpha, m=6, horizon=100))
        rng = np.random.default_rng(17)
        for _ in range(20):
            returns = rng.random(100)
            got = np.array(feed(strategy, returns))
            corrected = [returns[0]]
            plain = [returns[0]]
            for n in range(1, 100):
                a_n = alpha / (1.0 - (1.0 - alpha) ** (n + 1))
                corrected.append(corrected[-1] + a_n * (returns[n] - corrected[-1]))
                plain.append(plain[-1] + alpha * (returns[n] - plain[-1]))
            np.testing.assert_allclose(got, corrected, rtol=1e-6)
            envelope = (1.0 - alpha) ** (np.arange(100) + 1)
            assert np.all(np.abs(got - np.array(plain)) <= envelope + 1e-12)

    def test_clamps_weight_beyond_horizon(self):
        strategy = MonotoneBackup.from_knots((0.0, 0.0), horizon=3)
        node = fresh_node()
        for r in [1.0] * 10:
            strategy.backpropagate([node], r)
        assert node.visits == 10 and node.q == 1.0


class TestFeedback:
    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            FeedbackBackup("ABC", 8.0, 100)


class TestCoulomParentUpdate:
    def test_equal_interpolation_weights(self):
        # N_best == M: result is the midpoint of best and mean.
        children = [(1.0, 4), (0.0, 4)]
        got = coulom_parent_update(children, True, x=4.0, y=1000, n_parent=10)
        q_mean = 0.5
        assert got == pytest.approx(0.5 * 1.0 + 0.5 * q_mean)

    def test_heavy_best_child_dominates(self):
        # N_best = 99 * M and the mean is pinned near 0 by a huge bad child.
        children = [(1.0, 99), (0.0, 990000)]
        got = coulom_parent_update(children, True, x=1.0, y=10**9, n_parent=50)
        assert got == pytest.approx(0.99, abs=1e-3)

    def test_single_child_passthrough(self):
        assert coulom_parent_update([(0.42, 7)], True, 2.0, 16, 5) == \
            pytest.approx(0.42)

    def test_min_node_uses_worst_child(self):
        children = [(0.9, 10), (0.1, 10)]
        lo = coulom_parent_update(children, False, 2.0, 16, 5)
        hi = coulom_parent_update(children, True, 2.0, 16, 5)
        assert lo < 0.5 < hi

    def test_damping_grows_after_threshold(self):
        children = [(1.0, 8), (0.0, 8)]
        early = coulom_parent_update(children, True, x=2.0, y=16, n_parent=15)
        late = coulom_parent_update(children, True, x=2.0, y=16, n_parent=1024)
        # Larger M pulls the value back toward the mean.
        assert late < early

    def test_interpolation_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            children = [(float(rng.random()), int(rng.integers(1, 50)))
                        for _ in range(k)]
            for maximizing in (True, False):
                got = coulom_parent_update(children, maximizing, 2.0, 16,
                                           int(rng.integers(1, 200)))
                qs = [q for q, _ in children]
                total = sum(n for _, n in children)
                mean = sum(q * n for q, n in children) / total
                best = max(qs) if maximizing else min(qs)
                assert min(mean, best) - 1e-12 <= got <= max(mean, best) + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coulom_parent_update([], True, 2.0, 16, 5)


class TestSoftmaxParentUpdate:
    def test_zero_weight_is_visit_weighted_mean(self):
        children = [(0.8, 3), (0.2, 1)]
        got = softmax_parent_update(children, True, zero_profile(), 4)
        assert got == pytest.approx(0.65)

    def test_large_weight_converges_to_best(self):
        children = [(0.8, 3), (0.2, 1)]
        got = softmax_parent_update(children, True, const_profile(1e6), 4)
        assert got == pytest.approx(0.8, abs=1e-6)

    def test_large_weight_at_min_node_converges_to_worst(self):
        children = [(0.8, 3), (0.2, 1)]
        got = softmax_parent_update(children, False, const_profile(1e6), 4)
        assert got == pytest.approx(0.2, abs=1e-6)

    def test_single_child_passthrough_any_weight(self):
        for w in (0.0, 1.0, 1e3, 1e8):
            got = softmax_parent_update([(0.37, 5)], True, const_profile(w), 9)
            assert got == pytest.approx(0.37)

    def test_convexity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            children = [(float(rng.random()), int(rng.integers(1, 40)))
                        for _ in range(k)]
            w = float(rng.uniform(0, 200))
            for maximizing in (True, False):
                got = softmax_parent_update(children, maximizing,
                                            const_profile(w), 11)
                qs = [q for q, _ in children]
                assert min(qs) - 1e-12 <= got <= max(qs) + 1e-12

    def test_monotone_in_weight_at_max_node(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.0, 80.0, 25)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            children = [(float(rng.random()), int(rng.integers(1, 40)))
                        for _ in range(k)]
            vals = [softmax_parent_update(children, True, const_profile(w), 7)
                    for w in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            qs = rng.random(k)
            ns = rng.integers(1, 60, size=k)
            w = float(rng.uniform(0, 60))
            shift = float(rng.uniform(-0.5, 0.5))
            base = softmax_parent_update(list(zip(qs, ns)), True,
                                         const_profile(w), 5)
            moved = softmax_parent_update(list(zip(qs + shift, ns)), True,
                                          const_profile(w), 5)
            assert moved == pytest.approx(base + shift, abs=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            softmax_parent_update([], True, zero_profile(), 3)

    def test_softmax_strategy_requires_w0_zero(self):
        with pytest.raises(ValueError):
            SoftmaxBackup(build_weight_table([0.0, 0.0], 10, w0=1.0))


class TestPathSemantics:
    """Whole-path behaviour of the two strategy families."""

    def make_parent_with_children(self):
        parent = fresh_node(is_max=True)
        kids = [SearchNode(is_max=False) for _ in range(2)]
        parent.child_actions = (0, 1)
        parent.children = kids
        return parent, kids

    def test_averaging_updates_every_path_node(self):
        parent, kids = self.make_parent_with_children()
        strategy = StandardBackup()
        strategy.backpropagate([parent, kids[0]], 1.0)
        strategy.backpropagate([parent, kids[1]], 0.0)
        assert parent.visits == 2 and kids[0].visits == 1 and kids[1].visits == 1
        assert parent.q == 0.5

    def test_parent_recompute_walks_leaf_to_root(self):
        parent, kids = self.make_parent_with_children()
        strategy = SoftmaxBackup(zero_profile())
        strategy.backpropagate([parent, kids[0]], 1.0)
        assert kids[0].q == 1.0
        # One visited child: parent equals it.
        assert parent.q == 1.0
        strategy.backpropagate([parent, kids[1]], 0.0)
        # w = 0: visit-weighted mean of (1.0, n=1), (0.0, n=1).
        assert parent.q == pytest.approx(0.5)
        assert parent.visits == 2

    def test_coulom_leaf_gets_standard_update(self):
        parent, kids = self.make_parent_with_children()
        strategy = CoulomBackup(2.0, 16)
        strategy.backpropagate([parent, kids[0]], 0.75)
        strategy.backpropagate([parent, kids[0]], 0.25)
        assert kids[0].q == pytest.approx(0.5)

    @pytest.mark.parametrize("strategy", [
        StandardBackup(),
        ErwaBackup(0.3),
        FeedbackBackup("GBY", 64.0, 200),
        MonotoneBackup.from_knots((-2.0, -1.0), 200),
        CoulomBackup(2.0, 16),
        SoftmaxBackup.from_knots((-3.0, -1.0), 200),
    ])
    def test_q_stays_in_unit_interval(self, strategy):
        rng = np.random.default_rng(5)
        parent, kids = self.make_parent_with_children()
        for _ in range(200):
            leaf = kids[int(rng.integers(2))]
            strategy.backpropagate([parent, leaf], float(rng.random()))
            assert 0.0 <= parent.q <= 1.0
            assert 0.0 <= leaf.q <= 1.0


class TestSerialization:
    """A backup's config form: the keys of an engine section, as read by
    the command line."""

    SEARCH = "[game]\nbranching = 3\ndepth = 4\n\n[search]\nsimulations = 200\nseed = 3\n"

    def analyze(self, tmp_path, keys):
        config = tmp_path / "c.ini"
        config.write_text(self.SEARCH + keys)
        out = tmp_path / "out"
        status = dispatch(["analyze", "--config", str(config), "--out", str(out)])
        return status, out / "analysis.json"

    # Each kind once, the defaults of final_ratio and w0, the default
    # kind, and kind names in any case.
    @pytest.mark.parametrize("strategy", [
        (StandardBackup(), ""),
        (ErwaBackup(0.25), "backup = erwa\nalpha = 0.25\n"),
        (CoulomBackup(4.0, 32), "backup = Coulom\ncoulom_x = 4\ncoulom_y = 32\n"),
        (FeedbackBackup("GBX", 64.0, 40),
         "backup = feedback\nfeedback_profile = GBX\nhorizon = 40\n"),
        (MonotoneBackup.from_knots((-2.0, -1.0), 200),
         "backup = monotone\nknots = (-2.0, -1.0)\nhorizon = 200\n"),
        (SoftmaxBackup.from_knots((-3.0, -1.0), 200),
         "backup = SOFTMAX\nknots = (-3, -1)\nhorizon = 200\n"),
        (FeedbackBackup("GAY", 8.0, 40), "backup = feedback\nfeedback_profile = GAY\n"
                                         "final_ratio = 8\nhorizon = 40\n"),
        (MonotoneBackup(build_weight_table((-2.0, -1.0), 200, w0=2.0)),
         "backup = monotone\nknots = (-2.0, -1.0)\nhorizon = 200\nw0 = 2\n"),
    ])
    def test_round_trip(self, strategy, tmp_path):
        strategy, keys = strategy
        status, analysis = self.analyze(tmp_path, keys)
        assert status == 0
        result = run_search(SyntheticTreeSpec(branching=3, depth=4).make(0),
                            SearchConfig(simulations=200, seed=3, backup=strategy))
        assert json.loads(analysis.read_text()) == {
            "best_action": result.best_action,
            "root_q": result.root_q,
            "root_visits": result.root.visits,
            "principal_variation": result.principal_variation,
            "visit_distribution": {str(a): n for a, n
                                   in result.visit_distribution.items()},
        }

    def test_knot_text_round_trip(self):
        knots = (-10.0, -10.0, -4.0, -4.0, -4.0, -10.0)
        assert parse_knots(format_knots(knots)) == knots
        assert parse_knots("(-1, -2.5)") == (-1.0, -2.5)
        with pytest.raises(ValueError):
            parse_knots("(-1)")

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        status, analysis = self.analyze(tmp_path, "backup = bogus\n")
        assert status == 2
        assert "c.ini:8: unknown backup 'bogus'" in capsys.readouterr().err
        assert not analysis.exists()
