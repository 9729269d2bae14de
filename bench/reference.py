"""Independent references for the benchmark's correctness checks.

Nothing here imports mctsopt.  The tic-tac-toe rules and solver and the
min/max reduction of a synthetic tree are written from the game
definitions alone, so a fault in the package cannot pass a check by
agreeing with itself.  Only the checks use this module, after the timed
part of a run.
"""

from __future__ import annotations

# ---------------------------------------------------------------- tic-tac-toe
# A board is a string of nine cells, row-major, each "X", "O" or ".".
# X moves first and maximizes; returns are 1 (X wins), 0 (O wins), 0.5 draw.

EMPTY = "." * 9
_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
          (0, 4, 8), (2, 4, 6))


def ttt_mover(board: str) -> str:
    return "X" if board.count("X") == board.count("O") else "O"


def ttt_result(board: str) -> float | None:
    """Return of a finished game, or None while the game goes on."""
    for a, b, c in _LINES:
        if board[a] != "." and board[a] == board[b] == board[c]:
            return 1.0 if board[a] == "X" else 0.0
    return None if "." in board else 0.5


def ttt_moves(board: str) -> list[int]:
    if ttt_result(board) is not None:
        return []
    return [c for c in range(9) if board[c] == "."]


def ttt_play(board: str, cell: int) -> str:
    if cell not in ttt_moves(board):
        raise ValueError(f"illegal move {cell!r} on {board}")
    return board[:cell] + ttt_mover(board) + board[cell + 1:]


def ttt_value(board: str, memo: dict) -> float:
    """Exact minimax value by exhaustive search, memoized in ``memo``."""
    if board in memo:
        return memo[board]
    result = ttt_result(board)
    if result is None:
        values = [ttt_value(ttt_play(board, c), memo) for c in ttt_moves(board)]
        result = max(values) if ttt_mover(board) == "X" else min(values)
    memo[board] = result
    return result


def ttt_positions(plies: int) -> list[str]:
    """Every unfinished position reachable from the empty board within
    ``plies`` moves, in breadth-first order without repeats."""
    out = [EMPTY]
    frontier = [EMPTY]
    for _ in range(plies):
        nxt = []
        for board in frontier:
            for cell in ttt_moves(board):
                child = ttt_play(board, cell)
                if child not in nxt and ttt_result(child) is None:
                    nxt.append(child)
        out.extend(nxt)
        frontier = nxt
    return out


def board_masks(board: str) -> tuple[int, int, bool]:
    """(X bits, O bits, X to move) with cell c at bit c."""
    xs = sum(1 << c for c in range(9) if board[c] == "X")
    os_ = sum(1 << c for c in range(9) if board[c] == "O")
    return xs, os_, ttt_mover(board) == "X"


# ------------------------------------------------------------ synthetic trees
def tree_child_values(leaf_values, branching: int, depth: int) -> list[float]:
    """Exact values V* of the root's children of a complete min/max tree.

    The root (depth 0) maximizes and the players alternate, so a node at
    even depth takes the max of its children and one at odd depth the min.
    Leaves are listed left to right; action a from node i leads to child
    i * branching + a.
    """
    values = [float(v) for v in leaf_values]
    if len(values) != branching ** depth:
        raise ValueError("leaf count does not match branching ** depth")
    for level in range(depth - 1, 0, -1):
        pick = max if level % 2 == 0 else min
        values = [pick(values[i:i + branching])
                  for i in range(0, len(values), branching)]
    return values
