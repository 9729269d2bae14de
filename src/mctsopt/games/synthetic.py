"""Synthetic b-ary min-max trees with optional seeded trap moves.

A tree is a complete b-ary game tree of depth d whose leaves return 1
with a configurable probability and 0 otherwise, drawn deterministically
from a seed.  Trap injection rewrites the subtree behind a chosen root
action so that the opponent of the root player has a forced win completed
within k plies: along the forced line every option of the trapped player
keeps losing, while the opponent's deviations lead back into ordinary
random subtrees.  That makes the trap action look healthy to shallow
statistics even though its exact value is 0.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from ..seeds import derive
from .base import GameState, PlayerRole

# Guard for eager leaf materialization.
MAX_ORACLE_NODES = 10**7

# Attempt cap when redrawing a subtree to make a non-trap action winnable.
_HEAL_ATTEMPTS = 1000


@dataclass(frozen=True)
class SyntheticTreeSpec:
    """The one declaration of a synthetic game: its reproducibility token,
    and, through make(seed), a pool of trees that differ only in seed.

    trap_level (k) and trap_count control trap injection; trap_prior is
    the root prior mass the traps share (see trap_priors), which tempts
    prior-guided tree policies.  Identical specs give identical trees.
    A spec is checked when it is made, so every spec is valid.
    """

    branching: int = 4
    depth: int = 8
    leaf_win_prob: float = 0.75
    trap_level: int | None = None
    trap_count: int = 0
    trap_prior: float | None = None
    trap_deviation_win_prob: float | None = None
    trap_sealed_win_prob: float | None = None
    seed: int = 0

    kind = "synthetic"

    def make(self, seed: int) -> "SyntheticTreeState":
        return generate_synthetic_tree(replace(self, seed=seed))

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.trap_count < 0:
            raise ValueError("trap_count must be non-negative")
        if self.trap_count >= self.branching:
            raise ValueError("trap_count must leave at least one safe action")
        if self.trap_count > 0 and self.trap_level is None:
            raise ValueError("trap_count > 0 requires trap_level")
        if self.trap_level is not None and not 1 <= self.trap_level <= self.depth - 1:
            raise ValueError("trap_level must satisfy 1 <= k <= depth - 1")
        if self.trap_prior is not None:
            if self.trap_count == 0:
                raise ValueError("trap_prior needs trap_count > 0")
            if not 0.0 < self.trap_prior < 1.0:
                raise ValueError("trap_prior must be in (0, 1)")
        for name in ("leaf_win_prob", "trap_deviation_win_prob",
                     "trap_sealed_win_prob"):
            p = getattr(self, name)
            if p is not None and not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        n_leaves = self.branching**self.depth
        if n_leaves * self.branching // (self.branching - 1) > MAX_ORACLE_NODES:
            raise ValueError(f"tree exceeds the {MAX_ORACLE_NODES} node ceiling")


class SyntheticTree:
    """Immutable storage for one materialized tree.

    Nodes are addressed as (depth, index): the root is (0, 0) and action a
    from (j, i) leads to (j + 1, i * b + a).  Exact minimax values for
    every node are computed bottom-up on first use and cached per level.
    """

    __slots__ = ("branching", "depth", "leaf_values", "trap_actions",
                 "root_priors", "_levels", "_fingerprint", "_actions")

    def __init__(self, branching: int, depth: int, leaf_values: np.ndarray,
                 trap_actions: tuple[int, ...] = (),
                 root_priors: tuple[float, ...] | None = None):
        if len(leaf_values) != branching**depth:
            raise ValueError("leaf array does not match branching**depth")
        self.branching = branching
        self.depth = depth
        self.leaf_values = np.ascontiguousarray(leaf_values, dtype=np.float64)
        self.leaf_values.setflags(write=False)
        self.trap_actions = tuple(trap_actions)
        self.root_priors = root_priors
        self._levels = None
        self._fingerprint = None
        self._actions = tuple(range(branching))

    @property
    def root(self) -> "SyntheticTreeState":
        return SyntheticTreeState(self, 0, 0)

    @property
    def fingerprint(self) -> int:
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=8)
            h.update(bytes([self.branching, self.depth]))
            h.update(self.leaf_values.tobytes())
            self._fingerprint = int.from_bytes(h.digest(), "little")
        return self._fingerprint

    def value_levels(self) -> list[np.ndarray]:
        """Exact node values per level; level j holds b**j entries."""
        if self._levels is None:
            levels = [None] * (self.depth + 1)
            levels[self.depth] = self.leaf_values
            vals = self.leaf_values
            for j in range(self.depth - 1, -1, -1):
                vals = levels[j] = _reduce(vals, self.branching, j)
            self._levels = levels
        return self._levels

    def node_value(self, depth: int, index: int) -> float:
        return float(self.value_levels()[depth][index])


class SyntheticTreeState(GameState):
    """A position inside a SyntheticTree."""

    __slots__ = ("tree", "depth", "index")

    def __init__(self, tree: SyntheticTree, depth: int, index: int):
        self.tree = tree
        self.depth = depth
        self.index = index

    @property
    def to_move(self) -> PlayerRole:
        return PlayerRole.MAX if self.depth % 2 == 0 else PlayerRole.MIN

    @property
    def terminal(self) -> bool:
        return self.depth == self.tree.depth

    @property
    def actions(self) -> tuple:
        if self.depth == self.tree.depth:
            return ()
        return self.tree._actions

    @property
    def terminal_return(self) -> float:
        if self.depth != self.tree.depth:
            raise ValueError("terminal_return is defined only at terminal states")
        return float(self.tree.leaf_values[self.index])

    def apply(self, action) -> "SyntheticTreeState":
        if self.depth == self.tree.depth:
            raise ValueError("cannot move in a terminal state")
        b = self.tree.branching
        if not 0 <= action < b:
            raise ValueError(f"illegal action {action}")
        return SyntheticTreeState(self.tree, self.depth + 1,
                                  self.index * b + action)

    @property
    def action_priors(self):
        return self.tree.root_priors if self.depth == 0 else None

    def state_key(self):
        return ("synthetic", self.tree.fingerprint, self.depth, self.index)

    def __repr__(self):
        return (f"SyntheticTreeState(depth={self.depth}, index={self.index}, "
                f"b={self.tree.branching}, d={self.tree.depth})")


def _subtree_slice(spec: SyntheticTreeSpec, depth: int, index: int) -> slice:
    width = spec.branching**(spec.depth - depth)
    return slice(index * width, (index + 1) * width)


def _reduce(vals: np.ndarray, branching: int, j: int) -> np.ndarray:
    """Node values of level j from those of level j + 1 (MAX moves at even j)."""
    stacked = vals.reshape(-1, branching)
    return stacked.max(axis=1) if j % 2 == 0 else stacked.min(axis=1)


def _action_value(leaves: np.ndarray, spec: SyntheticTreeSpec) -> float:
    """Minimax value of a root action's subtree, given its leaves."""
    for j in range(spec.depth - 1, 0, -1):
        leaves = _reduce(leaves, spec.branching, j)
    return float(leaves[0])


def _carve_trap(leaves: np.ndarray, spec: SyntheticTreeSpec, depth: int,
                index: int, remaining: int, rng) -> None:
    """Rewrite the subtree at (depth, index) into a forced loss.

    remaining counts plies until the win is sealed.  At the trapped
    player's nodes (even depth) every action continues the loss; at the
    opponent's nodes one seeded killer action continues it while the
    other actions keep ordinary random subtrees (redrawn with
    trap_deviation_win_prob when given, which makes the trap's shallow
    statistics look extra healthy).

    When remaining hits 0 the loss is locked in for every continuation.
    With trap_sealed_win_prob unset the whole remaining subtree is zeroed
    (the loss is also plainly visible).  With it set, the killer pattern
    instead continues to the leaves with deviations redrawn at
    trap_sealed_win_prob: the value is still 0 everywhere below the seal,
    but converting it takes precise play, so shallow statistics stay muddy.
    """
    b = spec.branching
    if remaining == 0 and spec.trap_sealed_win_prob is None:
        leaves[_subtree_slice(spec, depth, index)] = 0.0
        return
    if depth == spec.depth:
        leaves[index] = 0.0
        return
    below = max(0, remaining - 1)
    if depth % 2 == 1:
        killer = int(rng.integers(b))
        off_p = (spec.trap_sealed_win_prob if remaining == 0
                 else spec.trap_deviation_win_prob)
        for a in range(b):
            child = index * b + a
            if a == killer:
                _carve_trap(leaves, spec, depth + 1, child, below, rng)
            elif off_p is not None:
                sl = _subtree_slice(spec, depth + 1, child)
                leaves[sl] = (rng.random(sl.stop - sl.start) < off_p)
    else:
        for a in range(b):
            _carve_trap(leaves, spec, depth + 1, index * b + a, below, rng)


def _heal_action(leaves: np.ndarray, spec: SyntheticTreeSpec, action: int) -> None:
    """Redraw one root action's subtree until its value is non-losing."""
    sl = _subtree_slice(spec, 1, action)
    if _action_value(leaves[sl], spec) >= 0.5:
        return
    width = sl.stop - sl.start
    for attempt in range(1, _HEAL_ATTEMPTS + 1):
        rng = np.random.Generator(np.random.Philox(
            key=derive(spec.seed, "heal", action, attempt)))
        fresh = (rng.random(width) < spec.leaf_win_prob).astype(np.float64)
        if _action_value(fresh, spec) >= 0.5:
            leaves[sl] = fresh
            return
    raise ValueError(
        f"could not make root action {action} non-losing after "
        f"{_HEAL_ATTEMPTS} redraws; leaf_win_prob is too hostile")


def trap_priors(branching: int, trap_actions, trap_mass: float) -> tuple:
    """Prior vector giving ``trap_mass`` to the trap actions jointly; the
    other actions share the remainder evenly."""
    if not 0.0 < trap_mass < 1.0:
        raise ValueError("trap prior mass must be in (0, 1)")
    n_trap = len(trap_actions)
    rest = (1.0 - trap_mass) / (branching - n_trap)
    per_trap = trap_mass / n_trap
    return tuple(per_trap if a in trap_actions else rest
                 for a in range(branching))


def generate_synthetic_tree(spec: SyntheticTreeSpec) -> SyntheticTreeState:
    """Generate the root state of the tree described by ``spec``.

    With trap_count > 0, exactly trap_count seeded root actions are
    rewritten into level-k traps and every other root action is
    guaranteed non-losing (its subtree is redrawn if needed), so trap
    trees always offer a safe move.  With trap_prior set, the root
    carries the priors of trap_priors; otherwise it has none.
    """
    b, d = spec.branching, spec.depth
    rng = np.random.Generator(np.random.Philox(key=derive(spec.seed, "leaves")))
    leaves = (rng.random(b**d) < spec.leaf_win_prob).astype(np.float64)

    trap_actions: tuple[int, ...] = ()
    if spec.trap_count > 0:
        pick = np.random.Generator(np.random.Philox(
            key=derive(spec.seed, "trap-actions")))
        order = pick.permutation(b)
        trap_actions = tuple(int(a) for a in order[:spec.trap_count])
        for action in range(b):
            if action not in trap_actions:
                _heal_action(leaves, spec, action)
        for action in trap_actions:
            carver = np.random.Generator(np.random.Philox(
                key=derive(spec.seed, "trap", action)))
            _carve_trap(leaves, spec, 1, action, spec.trap_level, carver)

    priors = (None if spec.trap_prior is None
              else trap_priors(b, trap_actions, spec.trap_prior))
    return SyntheticTree(b, d, leaves, trap_actions=trap_actions,
                         root_priors=priors).root

