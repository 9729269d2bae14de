"""Seeded head-to-head matches producing win-rates with intervals.

Games come in mirrored pairs: both games of a pair share the position and
the per-seat search seeds, with the engines swapping seats.  That makes a
match an exact pure function of its config (any worker count), makes
engine-vs-itself score exactly 0.5, and maps swapping the engines to
exactly 1 - win_rate.  Draws count 0.5.  The match runner doubles as the
black-box objective for profile tuning.

A match may carry a book of engine B's moves from earlier matches of the
same games against the same engine B.  B plays a booked move instead of
searching; a search is a pure function of its position, configuration and
seed, so the book changes no move, and a match with a book is still an
exact pure function of its config.

Pool workers freeze the objects they inherit from the parent at start, so
their garbage collections walk only what their searches allocate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .backup import MonotoneBackup, SoftmaxBackup, StandardBackup
from .games.base import GameState, PlayerRole
# A spec is its own pool: make(seed) draws the spec's tree at ``seed``.
from .games.synthetic import SyntheticTreeSpec as SyntheticPool
from .games.tictactoe import empty_board
from .search import SearchConfig, run_search
from .seeds import derive

_Z95 = 1.959963984540054  # normal 97.5% quantile


@dataclass(frozen=True)
class TicTacToePool:
    """Every game starts from the empty board."""

    kind = "tictactoe"

    def make(self, seed: int) -> GameState:
        return empty_board()


@dataclass(frozen=True)
class MatchConfig:
    """A head-to-head match; games must be even so seats alternate.

    ``book``, when given, holds engine B's moves from earlier matches of
    these games against this engine B, as ``book[pair][moves so far]``:
    the pair fixes the tree and pair seed, and the moves so far fix the
    position, B's seat (by parity) and seat seed (by count), so B's search.
    """

    pool: object
    engine_a: SearchConfig
    engine_b: SearchConfig
    games: int
    sims_per_move: int
    seed: int = 0
    book: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.games < 2 or self.games % 2 != 0:
            raise ValueError("games must be a positive even number")
        if self.sims_per_move < 1:
            raise ValueError("sims_per_move must be positive")


@dataclass(frozen=True)
class GameRecord:
    index: int
    pair_seed: int
    first_mover: str          # "A" or "B"
    outcome: str              # "A", "B" or "draw"
    moves: tuple
    final_return: float


@dataclass(frozen=True)
class MatchResult:
    wins_a: int
    wins_b: int
    draws: int
    games: int
    win_rate_a: float
    ci95: tuple[float, float]


def wilson_interval(effective_wins: float, games: int) -> tuple[float, float]:
    """95% Wilson score interval for a proportion; robust at small counts."""
    if games <= 0:
        raise ValueError("games must be positive")
    z = _Z95
    p = effective_wins / games
    denom = 1.0 + z * z / games
    center = (p + z * z / (2 * games)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / games
                                   + z * z / (4 * games * games))
    # Rounding can pull a degenerate bound just past the point estimate,
    # which the interval must always contain.
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def play_game(engine_a: SearchConfig, engine_b: SearchConfig, start: GameState,
              seed: int, a_moves_first: bool, book: dict | None = None) -> GameRecord:
    """Play one game; each engine searches with its own configuration.

    Search seeds attach to the seat (first or second mover), not the
    engine, so replaying with the engines swapped mirrors the outcome
    exactly.  Engine B plays the move ``book`` (the pair's entries of a
    MatchConfig.book) holds for the moves so far, if any, without searching.
    """
    if start.terminal:
        raise ValueError("cannot start a game from a terminal position")
    state = start
    a_to_move = a_moves_first
    a_is_max = (start.to_move is PlayerRole.MAX) == a_moves_first
    moves = []
    move_idx = 0
    while not state.terminal:
        action = None
        if not a_to_move and book is not None:
            action = book.get(tuple(moves))
        if action is None:
            engine = engine_a if a_to_move else engine_b
            seat = "seat-first" if a_to_move == a_moves_first else "seat-second"
            action = run_search(state, replace(
                engine, seed=derive(seed, seat, move_idx))).best_action
        moves.append(action)
        state = state.apply(action)
        a_to_move = not a_to_move
        move_idx += 1
    r = state.terminal_return
    score_a = r if a_is_max else 1.0 - r
    outcome = "A" if score_a > 0.5 else "B" if score_a < 0.5 else "draw"
    return GameRecord(index=-1, pair_seed=seed,
                      first_mover="A" if a_moves_first else "B",
                      outcome=outcome, moves=tuple(moves), final_return=r)


def _play_pair(args) -> tuple[GameRecord, GameRecord]:
    config, pair = args
    pair_seed = derive(config.seed, "pair", pair)
    start = config.pool.make(derive(config.seed, "tree", pair))
    engine_a = replace(config.engine_a, simulations=config.sims_per_move)
    engine_b = replace(config.engine_b, simulations=config.sims_per_move)
    book = None if config.book is None else config.book[pair]
    first = play_game(engine_a, engine_b, start, pair_seed, a_moves_first=True,
                      book=book)
    second = play_game(engine_a, engine_b, start, pair_seed, a_moves_first=False,
                       book=book)
    return (replace(first, index=2 * pair), replace(second, index=2 * pair + 1))


def run_match(config: MatchConfig, workers: int = 1) -> tuple[MatchResult, list[GameRecord]]:
    """Play all games of a match, optionally across processes.  With a
    book, each task ships only its pair's entries, and B's moves in the
    match are filed in the book afterwards."""
    pairs = config.games // 2
    book = config.book
    tasks = [(config if book is None else
              replace(config, book={p: book.setdefault(p, {})}), p)
             for p in range(pairs)]
    workers = min(workers, pairs)
    if workers > 1:
        import gc

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=gc.freeze) as pool:
            results = list(pool.map(_play_pair, tasks,
                                    chunksize=max(1, pairs // (4 * workers))))
    else:
        results = [_play_pair(t) for t in tasks]
    records = [g for pair in results for g in pair]
    if book is not None:
        for g in records:
            shelf = book[g.index // 2]
            # B moves on the even plies when it opens, on the odd ones if not.
            for i in range(1 if g.first_mover == "A" else 0, len(g.moves), 2):
                shelf[g.moves[:i]] = g.moves[i]
    wins_a = sum(1 for g in records if g.outcome == "A")
    wins_b = sum(1 for g in records if g.outcome == "B")
    draws = config.games - wins_a - wins_b
    effective = wins_a + 0.5 * draws
    win_rate = effective / config.games
    result = MatchResult(wins_a=wins_a, wins_b=wins_b, draws=draws,
                         games=config.games, win_rate_a=win_rate,
                         ci95=wilson_interval(effective, config.games))
    return result, records


def winrate_objective(knots, kind: str, base: MatchConfig, horizon: int,
                      workers: int = 1, book: dict | None = None) -> float:
    """Win-rate of a weight-profile engine against standard backup in the
    games of ``base``, its seed included.

    ``kind`` selects the strategy family: "monotone" builds a w0 = 1
    averaging profile, "softmax" a w0 = 0 sharpening profile, each over
    ``horizon`` visits.  The engine on the B side always runs the standard
    backup.  ``book`` (MatchConfig.book), shared by calls on one ``base``,
    replays B's moves from earlier calls.  Profile construction errors
    propagate to the caller.
    """
    if kind == "monotone":
        strategy = MonotoneBackup.from_knots(knots, horizon)
    elif kind == "softmax":
        strategy = SoftmaxBackup.from_knots(knots, horizon)
    else:
        raise ValueError("kind must be 'monotone' or 'softmax'")
    match = replace(
        base,
        engine_a=replace(base.engine_a, backup=strategy),
        engine_b=replace(base.engine_b, backup=StandardBackup()),
        book=book,
    )
    result, _ = run_match(match, workers=workers)
    return result.win_rate_a
