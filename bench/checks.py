"""Correctness checks on the program's outputs, run after the timed part.

Each check compares against the independent references in reference.py
or against a property the method must have; none compares against a
stored copy of earlier output.  Search trees are read through the node
attributes the program documents (visits, q, children, child_actions,
is_max), so this module does not import mctsopt either.
"""

from __future__ import annotations

import csv
import json
import math
import os

import reference

# Slack for comparing recomputed means with the program's own arithmetic.
_EPS = 1e-12


class CheckFailed(AssertionError):
    """An output of the program broke a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_search_tree(root, sims: int, label: str) -> None:
    """Visit conservation and value range over a whole search tree.

    The root holds ``sims`` visits and its children ``sims - 1``; every
    expanded node holds one visit more than its children together; every
    visited node's Q lies in [0, 1].
    """
    _require(root.visits == sims,
             f"{label}: root has {root.visits} visits, expected {sims}")
    _require(root.children is not None, f"{label}: root was never expanded")
    _require(sum(c.visits for c in root.children) == sims - 1,
             f"{label}: root children hold "
             f"{sum(c.visits for c in root.children)} visits, expected {sims - 1}")
    stack = [root]
    while stack:
        node = stack.pop()
        if node.visits:
            _require(0.0 <= node.q <= 1.0, f"{label}: Q = {node.q!r} outside [0, 1]")
        if node.children is None:
            continue
        child_visits = sum(c.visits for c in node.children)
        _require(node.visits == 1 + child_visits,
                 f"{label}: expanded node has N = {node.visits} but its "
                 f"children hold {child_visits}")
        stack.extend(node.children)


def check_root_between(root, label: str) -> None:
    """A best-child interpolating backup keeps the root's Q between the
    visit-weighted mean of its children and the mover's best child."""
    visited = [c for c in root.children if c.visits]
    mean = sum(c.q * c.visits for c in visited) / sum(c.visits for c in visited)
    best = max(c.q for c in visited) if root.is_max else min(c.q for c in visited)
    lo, hi = min(mean, best), max(mean, best)
    _require(lo - _EPS <= root.q <= hi + _EPS,
             f"{label}: root Q {root.q!r} outside [{lo!r}, {hi!r}] "
             f"(visit-weighted mean to best child)")


def check_trap_tree(leaf_values, branching: int, depth: int,
                    trap_actions, label: str) -> None:
    """The generator's promise: each trap action is lost (V* = 0) and
    some other root action is not (V* >= 0.5)."""
    values = reference.tree_child_values(leaf_values, branching, depth)
    _require(len(trap_actions) >= 1, f"{label}: tree has no trap action")
    for a in trap_actions:
        _require(values[a] == 0.0, f"{label}: trap action {a} has V* {values[a]}")
    _require(any(v >= 0.5 for a, v in enumerate(values) if a not in trap_actions),
             f"{label}: no safe root action (V* = {values})")


def check_ttt_search(board: str, result, label: str) -> None:
    """Moves reported by a tic-tac-toe search are legal under the
    reference rules, and every visited root child that ends the game
    carries exactly that game's return as its Q."""
    root = result.root
    moves = list(root.child_actions)
    _require(sorted(moves) == reference.ttt_moves(board),
             f"{label}: root actions {moves} differ from the legal moves "
             f"{reference.ttt_moves(board)}")
    _require(result.best_action in moves,
             f"{label}: best action {result.best_action!r} is illegal")
    line = board
    for move in result.principal_variation:
        try:
            line = reference.ttt_play(line, move)
        except ValueError as exc:
            raise CheckFailed(f"{label}: principal variation: {exc}") from None
    for move, child in zip(moves, root.children):
        final = reference.ttt_result(reference.ttt_play(board, move))
        if final is not None and child.visits:
            _require(child.q == final,
                     f"{label}: move {move} ends the game with return "
                     f"{final} but its Q is {child.q!r}")


def check_oracle_values(boards, values, label: str) -> None:
    """The program's exact oracle agrees with the reference solver."""
    memo: dict = {}
    for board, value in zip(boards, values):
        expected = reference.ttt_value(board, memo)
        _require(value == expected,
                 f"{label}: oracle gives {value!r} for {board}, "
                 f"the reference solver {expected!r}")


def check_optimize_outputs(out_dir: str, n_evals: int, m: int, lo: float,
                           hi: float, games: int) -> list[float]:
    """history.csv and best.json of one optimize run; returns the best knots.

    One history row per evaluation; every knot inside the box; every
    win-rate a whole number of wins out of ``games`` (the workload's trees
    have 0/1 leaves, so no game is drawn); best.json names the first row
    holding the history's maximum.
    """
    with open(os.path.join(out_dir, "history.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == n_evals,
             f"history.csv has {len(rows)} rows, expected {n_evals}")
    rates = []
    for i, row in enumerate(rows):
        _require(int(row["eval"]) == i, f"history row {i} is numbered {row['eval']}")
        knots = [float(k) for k in row["knots"].strip("()").split(",")]
        _require(len(knots) == m, f"history row {i} has {len(knots)} knots")
        _require(all(lo <= k <= hi for k in knots),
                 f"history row {i}: knots {knots} leave the box [{lo}, {hi}]")
        rate = float(row["win_rate"])
        wins = rate * games
        _require(0.0 <= rate <= 1.0 and abs(wins - round(wins)) < 1e-6,
                 f"history row {i}: win-rate {rate} is not a score out of "
                 f"{games} games")
        rates.append((rate, knots))
    with open(os.path.join(out_dir, "best.json")) as fh:
        best = json.load(fh)
    top = max(r for r, _ in rates)
    first = next(k for r, k in rates if r == top)
    _require(best["evaluations"] == n_evals,
             f"best.json counts {best['evaluations']} evaluations")
    _require(math.isclose(best["best_value"], top, abs_tol=1e-9),
             f"best.json value {best['best_value']} is not the history "
             f"maximum {top}")
    _require(best["knots"] == first,
             f"best.json knots {best['knots']} are not those of the best "
             f"history row {first}")
    return best["knots"]


def check_self_play(win_rate: float) -> None:
    """Mirrored pairs make any engine score exactly 0.5 against itself."""
    _require(win_rate == 0.5, f"self-play win-rate {win_rate!r}, expected 0.5")
