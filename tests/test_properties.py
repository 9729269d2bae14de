"""Property tests: search and backup invariants over drawn inputs.

Every backup x {a seeded trap tree (b = 3, d = 4), tic-tac-toe} x
{PUCT, UCB1}, at most 60 simulations and a drawn weight profile, keeps
visit counts conserved and every visited Q in [0, 1]; the parent-recompute
backups keep the root Q between the children's visit-weighted mean and the
best child, and leave every node with a visited child holding exactly the
reference parent update of those children; the averaging backups give
exactly the weighted mean of the returns fed to a node, summed in arrival
order; and a match between two drawn backups on the trap pool gives the
same result and game records at one worker and at two.  The tree policy
read from score tables picks the first argmax of its score formula
computed per child, and a fresh node with uniform priors picks child 0.
A search that stops once its move is decided picks the full search's move
and keeps visit counts conserved.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mctsopt.backup import (CoulomBackup, ErwaBackup, FeedbackBackup,
                            MonotoneBackup, SoftmaxBackup, StandardBackup,
                            coulom_parent_update, softmax_parent_update)
from mctsopt.games.oracle import NoisyOracleEvaluator, RandomRolloutEvaluator
from mctsopt.games.tictactoe import empty_board
from mctsopt.search import (SearchConfig, SearchNode, _select_index, run_search,
                            _score_tables)
from mctsopt.tournament import MatchConfig, SyntheticPool, run_match
from mctsopt.weights import FEEDBACK_PROFILES, build_weight_table, feedback_weight

KINDS = ("standard", "erwa", "coulom", "feedback", "monotone", "softmax")
TRAP_POOL = SyntheticPool(branching=3, depth=4, trap_level=2, trap_count=1,
                          trap_prior=0.6)
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

knot_lists = st.lists(st.floats(-5.0, 1.0), min_size=2, max_size=4)


@st.composite
def backups(draw, kind, horizon):
    """A strategy of the given kind with drawn parameters."""
    if kind == "standard":
        return StandardBackup()
    if kind == "erwa":
        return ErwaBackup(draw(st.floats(0.01, 1.0)))
    if kind == "coulom":
        return CoulomBackup(draw(st.floats(0.1, 5.0)), draw(st.integers(1, 20)))
    if kind == "feedback":
        return FeedbackBackup(draw(st.sampled_from(FEEDBACK_PROFILES)),
                              draw(st.floats(1.5, 100.0)), horizon)
    if kind == "monotone":
        return MonotoneBackup.from_knots(draw(knot_lists), horizon)
    return SoftmaxBackup.from_knots(draw(knot_lists), horizon)


def walk(node):
    yield node
    for child in node.children or ():
        yield from walk(child)


@pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
@pytest.mark.parametrize("game", ["trap", "tictactoe"])
@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data(), sims=st.integers(2, 60), seed=st.integers(0, 2**32),
       exploration=st.floats(0.0, 2.0))
def test_search_invariants(kind, game, policy, data, sims, seed, exploration):
    strategy = data.draw(backups(kind, sims))
    root_state = TRAP_POOL.make(seed) if game == "trap" else empty_board()
    result = run_search(root_state, SearchConfig(
        simulations=sims, policy=policy, exploration=exploration,
        backup=strategy, seed=seed))
    root = result.root

    assert root.visits == sims
    assert sum(c.visits for c in root.children) == sims - 1
    for node in walk(root):
        if node.children is not None:
            assert node.visits == 1 + sum(c.visits for c in node.children)
        if node.visits:
            assert 0.0 <= node.q <= 1.0

    if kind in ("coulom", "softmax"):
        visited = [c for c in root.children if c.visits]
        mean = sum(c.q * c.visits for c in visited) / sum(c.visits for c in visited)
        pick = max if root.is_max else min
        best = pick(c.q for c in visited)
        eps = 1e-12
        assert min(mean, best) - eps <= root.q <= max(mean, best) + eps

        # A node was last updated by a recompute, and none of its children
        # changed after that, so its Q is the reference update, bit for bit.
        for node in walk(root):
            children = [(c.q, c.visits) for c in node.children or () if c.visits]
            if not children:
                continue
            if kind == "coulom":
                expected = coulom_parent_update(children, node.is_max, strategy.x,
                                                strategy.y, node.visits)
            else:
                expected = softmax_parent_update(children, node.is_max,
                                                 strategy.profile, node.visits)
            assert node.q == expected


@pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
@pytest.mark.parametrize("game", ["synthetic", "tictactoe"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), sims=st.integers(3, 200), seed=st.integers(0, 2**32),
       exploration=st.floats(0.0, 3.0))
def test_stopped_search_picks_the_full_search_move(kind, game, policy, data,
                                                   sims, seed, exploration):
    strategy = data.draw(backups(kind, 200))
    if game == "synthetic":
        pool = SyntheticPool(branching=data.draw(st.integers(2, 5)),
                             depth=data.draw(st.integers(2, 6)))
        root_state, evaluator = pool.make(seed), RandomRolloutEvaluator()
    else:
        root_state = empty_board()
        for _ in range(data.draw(st.integers(0, 7))):
            after = root_state.apply(data.draw(st.sampled_from(root_state.actions)))
            if after.terminal:
                break
            root_state = after
        evaluator = NoisyOracleEvaluator(data.draw(st.floats(0.0, 0.5)), seed)
    for budget in (1, 2, sims):
        config = SearchConfig(simulations=budget, policy=policy,
                              exploration=exploration, backup=strategy,
                              evaluator=evaluator, seed=seed)
        full = run_search(root_state, config)
        stopped = run_search(root_state, replace(config, stop_when_decided=True))

        assert stopped.best_action == full.best_action
        assert full.root.visits == budget
        assert stopped.root.visits <= budget
        for node in walk(stopped.root):
            if node.children is not None:
                assert node.visits == 1 + sum(c.visits for c in node.children)


def reference_weights(kind, params, horizon):
    """w(n) at visit counts 0..horizon, straight from the weight functions."""
    if kind == "standard":
        return [1.0]
    if kind == "feedback":
        profile, ratio = params
        return [feedback_weight(profile, t, horizon, ratio)
                for t in range(horizon + 1)]
    return [float(w) for w in build_weight_table(params, horizon, 1.0).table]


@pytest.mark.parametrize("kind", ["standard", "feedback", "monotone"])
@SETTINGS
@given(data=st.data(), horizon=st.integers(1, 30),
       returns=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80))
def test_averaging_q_is_weighted_mean_in_arrival_order(kind, data, horizon,
                                                       returns):
    if kind == "standard":
        params, strategy = None, StandardBackup()
    elif kind == "feedback":
        params = (data.draw(st.sampled_from(FEEDBACK_PROFILES)),
                  data.draw(st.floats(1.5, 100.0)))
        strategy = FeedbackBackup(params[0], params[1], horizon)
    else:
        params = data.draw(knot_lists)
        strategy = MonotoneBackup.from_knots(params, horizon)
    table = reference_weights(kind, params, horizon)

    node = SearchNode(is_max=True)
    acc_value = acc_weight = 0.0
    for i, r in enumerate(returns):
        strategy.backpropagate([node], r)
        w = table[min(i, len(table) - 1)]
        acc_value += w * r
        acc_weight += w
        assert node.q == acc_value / acc_weight
    assert node.visits == len(returns)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), kinds=st.tuples(st.sampled_from(KINDS),
                                       st.sampled_from(KINDS)),
       games=st.sampled_from([2, 4, 6]), sims=st.integers(1, 20),
       seed=st.integers(0, 2**32))
def test_match_is_worker_count_invariant(data, kinds, games, sims, seed):
    engine_a, engine_b = (
        SearchConfig(simulations=sims, policy="PUCT",
                     backup=data.draw(backups(kind, sims)))
        for kind in kinds)
    match = MatchConfig(pool=TRAP_POOL, engine_a=engine_a, engine_b=engine_b,
                        games=games, sims_per_move=sims, seed=seed)
    assert run_match(match, workers=1) == run_match(match, workers=2)


EXPLORATIONS = (0.0, 0.1, 1.0, 2.5, math.inf)


def direct_pick(parent, policy, c):
    """First argmax of the tree policy's score, each child's computed with
    math.sqrt and math.log as the formula reads."""
    n_parent = max(parent.visits, 1)
    best_i, best_s = 0, -math.inf
    for i, child in enumerate(parent.children):
        nv = child.visits
        q = (child.q if parent.is_max else 1.0 - child.q) if nv else 0.5
        if policy == "UCB1":
            s = q + c * math.sqrt(math.log(n_parent)) / math.sqrt(nv + 1.0)
        else:
            s = q + c * math.sqrt(n_parent) * child.prior / (nv + 1.0)
        if s > best_s:
            best_i, best_s = i, s
    return best_i


def parent_node(is_max, qs, visits, priors, extra_visits):
    parent = SearchNode(is_max=is_max)
    parent.children = []
    for q, n, p in zip(qs, visits, priors):
        child = SearchNode(is_max=not is_max, prior=p)
        child.q, child.visits = q, n
        parent.children.append(child)
    parent.visits = sum(visits) + extra_visits
    return parent


@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 8), c=st.sampled_from(EXPLORATIONS),
       unvisited=st.booleans(), uniform=st.booleans(),
       extra_visits=st.integers(0, 1))
def test_table_pick_is_the_formula_argmax(policy, is_max, data, k, c,
                                          unvisited, uniform, extra_visits):
    qs = data.draw(st.lists(st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                      st.floats(0.0, 1.0)),
                            min_size=k, max_size=k))
    visits = [0] * k if unvisited else data.draw(
        st.lists(st.integers(0, 60), min_size=k, max_size=k))
    priors = [1.0 / k] * k if uniform else data.draw(
        st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)),
                 min_size=k, max_size=k))
    parent = parent_node(is_max, qs, visits, priors, extra_visits)
    scales, roots = _score_tables(policy, c, parent.visits + 61)
    assert _select_index(parent, scales, roots) == direct_pick(parent, policy, c)


@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("policy", ["PUCT", "UCB1"])
@pytest.mark.parametrize("c", EXPLORATIONS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
def test_fresh_node_with_uniform_priors_picks_child_zero(policy, is_max, c, qs):
    # run_search takes child 0 at such a node without scoring.
    parent = parent_node(is_max, qs, [0] * len(qs), [1.0 / len(qs)] * len(qs), 0)
    scales, roots = _score_tables(policy, c, 1)
    assert _select_index(parent, scales, roots) == 0
