"""Four-phase Monte-Carlo tree search with pluggable backups.

Each iteration selects a path with UCB1 or PUCT, expands the first
unexpanded node it reaches (adding all children at once, their priors the
state's normalized action_priors or uniform ones), evaluates the state of
the child the tree policy picks there (a terminal child gives its own
return, without the evaluator), and hands the return to the backup
strategy.  Nodes hold statistics only, no game state.  An expanded node
is never terminal, so the descent walks expanded nodes by their statistics
alone and reads a state once per simulation, at the node where it stops.
A map local to run_search holds each entered node's state, built with
state.apply from the parent's state the first time a descent stops at the
node, and is dropped when the search returns, so a returned tree holds no
state.  The updated path ends at the expanded node itself: a node's first
visit is its own expansion pass, so after any search every internal node
satisfies N_parent = 1 + sum of child visits, and the root children's
visit counts sum to simulations - 1.

The tree policy reads its square roots and logarithms from tables built
once per (policy, exploration, simulations) and shared by later searches
of that shape, so scoring a child takes no math call.  A freshly expanded
node has no visits, so under uniform priors all its children score alike
and the first-best rule would pick child 0: the search takes child 0 there
without scoring.

A search owns its tree exclusively and runs single-threaded; parallelism
happens across searches, which share immutable game states and strategy
objects.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from .backup import BackupStrategy, StandardBackup
from .games.base import GameState, PlayerRole
from .games.oracle import RandomRolloutEvaluator
from .seeds import derive

POLICIES = ("UCB1", "PUCT")


class SearchNode:
    """Per-node search statistics.

    children is None until the node is expanded; terminal nodes are never
    expanded.  acc_value / acc_weight are the backup strategies' scratch
    accumulators (weighted return sum and weight sum).
    """

    __slots__ = ("visits", "q", "prior", "is_max", "child_actions", "children",
                 "acc_value", "acc_weight")

    def __init__(self, is_max: bool, prior: float = 1.0):
        self.visits = 0
        self.q = 0.0
        self.prior = prior
        self.is_max = is_max
        self.child_actions = None
        self.children = None
        self.acc_value = 0.0
        self.acc_weight = 0.0


@dataclass
class SearchConfig:
    """Everything needed to rerun a search bit-for-bit."""

    simulations: int = 100
    policy: str = "UCB1"
    exploration: float = 1.0
    backup: BackupStrategy = field(default_factory=StandardBackup)
    evaluator: object = field(default_factory=RandomRolloutEvaluator)
    seed: int = 0

    def __post_init__(self):
        if self.simulations < 1:
            raise ValueError("simulation budget must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not self.exploration >= 0:
            raise ValueError("exploration constant must be non-negative")


@dataclass
class SearchResult:
    """Outcome of one search; the tree stays inspectable via ``root``."""

    best_action: object
    root_q: float
    visit_distribution: dict
    principal_variation: list
    root: SearchNode


@functools.lru_cache(maxsize=8)
def _score_tables(policy: str, c: float, simulations: int) -> tuple:
    """Per-visit-count terms of the tree policy's score for one search shape.

    Returns ``(scales, roots)``.  ``scales[n]`` is the exploration factor
    of a parent with n visits: c * sqrt(ln(max(n, 1))) under UCB1 and
    c * sqrt(max(n, 1)) under PUCT.  ``roots[n]`` is sqrt(n + 1.0), the
    UCB1 divisor of a child with n visits (None under PUCT, whose divisor
    n + 1.0 needs no root).  Each entry is the very float the score
    formula computes, so a search that reads the tables picks what one
    computing the roots per child would.  No node's visit count reaches
    ``simulations`` while the search still selects, so the tables stop
    there.  They are cached across searches, so the searches of a game or
    a match build them once.
    """
    counts = range(simulations)
    if policy == "UCB1":
        return (tuple(c * math.sqrt(math.log(n if n >= 1 else 1)) for n in counts),
                tuple(math.sqrt(n + 1.0) for n in counts))
    return tuple(c * math.sqrt(n if n >= 1 else 1) for n in counts), None


def _select_index(node: SearchNode, scales: tuple, roots: tuple | None) -> int:
    """Index of the tree-policy child; ties break to the lowest action index.

    UCB1 scores a child Q_a + C * sqrt(ln(N_parent) / (N_a + 1)), PUCT
    Q_a + C * prior_a * sqrt(N_parent) / (N_a + 1), with N_parent taken
    as at least 1.  ``scales`` and ``roots`` come from `_score_tables`, so
    no child costs a square root or a logarithm.
    The exploitation term is the child's Q for a maximizing parent and
    1 - Q for a minimizing one, so both players chase their own winning
    chance; unvisited children count as Q = 0.5.
    """
    children = node.children
    scale = scales[node.visits]
    best_i = 0
    best_s = -math.inf
    i = 0
    if roots is not None:
        if node.is_max:
            for child in children:
                nv = child.visits
                s = (child.q if nv else 0.5) + scale / roots[nv]
                if s > best_s:
                    best_s = s
                    best_i = i
                i += 1
        else:
            for child in children:
                nv = child.visits
                s = (1.0 - child.q if nv else 0.5) + scale / roots[nv]
                if s > best_s:
                    best_s = s
                    best_i = i
                i += 1
    else:
        if node.is_max:
            for child in children:
                nv = child.visits
                s = (child.q if nv else 0.5) + scale * child.prior / (nv + 1.0)
                if s > best_s:
                    best_s = s
                    best_i = i
                i += 1
        else:
            for child in children:
                nv = child.visits
                s = (1.0 - child.q if nv else 0.5) + scale * child.prior / (nv + 1.0)
                if s > best_s:
                    best_s = s
                    best_i = i
                i += 1
    return best_i


def _expand(node: SearchNode, state: GameState) -> bool:
    """Add all of ``node``'s children; True when their priors are uniform
    (the state gave none)."""
    actions = state.actions
    priors = state.action_priors
    uniform = priors is None
    if not uniform:
        if len(priors) != len(actions):
            raise ValueError("prior vector length does not match action count")
        total = float(sum(priors))
        if total <= 0 or any(p < 0 for p in priors):
            raise ValueError("priors must be non-negative with positive sum")
        priors = [p / total for p in priors]
    else:
        u = 1.0 / len(actions)
        priors = [u] * len(actions)
    child_max = not node.is_max
    node.child_actions = actions
    node.children = [SearchNode(child_max, p) for p in priors]
    return uniform


def run_search(root: GameState, config: SearchConfig) -> SearchResult:
    """Run ``config.simulations`` search iterations from ``root``.

    Each simulation reads the state map once, at the node where its
    descent stops, and tests that state for a terminal there.
    """
    if root.terminal:
        raise ValueError("cannot search a terminal position")

    strategy = config.backup
    evaluator = config.evaluator
    scales, roots = _score_tables(config.policy, config.exploration,
                                 config.simulations)
    rollout_rng = random.Random(derive(config.seed, "rollout"))

    root_node = SearchNode(is_max=root.to_move is PlayerRole.MAX)
    states = {root_node: root}   # node -> its state, built when first entered
    for _ in range(config.simulations):
        node = root_node
        path = [node]
        while node.children is not None:
            i = _select_index(node, scales, roots)
            node = node.children[i]
            path.append(node)
        state = states.get(node)
        if state is None:
            parent = path[-2]
            state = states[node] = states[parent].apply(parent.child_actions[i])
        if state.terminal:
            value = state.terminal_return
        else:
            # A fresh node has no visits, so with uniform priors every
            # child scores the same float (NaN for c = inf, and NaN never
            # beats -inf): the first-best rule picks child 0.
            uniform = _expand(node, state)
            i = 0 if uniform else _select_index(node, scales, roots)
            child = state.apply(node.child_actions[i])
            value = (child.terminal_return if child.terminal
                     else evaluator.evaluate(child, rollout_rng))
        strategy.backpropagate(path, value)

    visit_distribution = {
        a: child.visits
        for a, child in zip(root_node.child_actions, root_node.children)
    }
    best_action = root_node.child_actions[
        max(range(len(root_node.children)),
            key=lambda i: (root_node.children[i].visits, -i))]

    pv = []
    node = root_node
    while node.children:
        i = max(range(len(node.children)),
                key=lambda j: (node.children[j].visits, -j))
        if node.children[i].visits == 0:
            break
        pv.append(node.child_actions[i])
        node = node.children[i]

    return SearchResult(best_action=best_action, root_q=root_node.q,
                        visit_distribution=visit_distribution,
                        principal_variation=pv, root=root_node)
