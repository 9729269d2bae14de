"""Golden digests: searches and a match pair give the recorded floats.

Every node's (visits, Q), the best action, the principal variation and
the root Q of each run are hashed with SHA-256 and compared with a digest
recorded before the hot path was last reworked.  A change that claims
bit-identical results must leave every digest as it is.

Floats depend on the platform's libm, and the ``sum`` that the Coulom
backup uses changed in CPython 3.12, so the digests are pinned to CPython
3.11 and the test is skipped on any other interpreter.
"""

import hashlib
import sys

import pytest

from mctsopt.backup import (CoulomBackup, ErwaBackup, FeedbackBackup,
                            MonotoneBackup, SoftmaxBackup, StandardBackup)
from mctsopt.games.oracle import NoisyOracleEvaluator
from mctsopt.games.tictactoe import empty_board
from mctsopt.search import SearchConfig, run_search
from mctsopt.tournament import MatchConfig, SyntheticPool, run_match

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="digests recorded on CPython 3.11")

TRAP_POOL = SyntheticPool(branching=4, depth=8, leaf_win_prob=0.75,
                          trap_level=3, trap_count=1, trap_prior=0.92,
                          trap_deviation_win_prob=0.95,
                          trap_sealed_win_prob=0.65)
EXPLORATION = {"UCB1": 1.0, "PUCT": 0.5}


def backups():
    return {
        "standard": StandardBackup(),
        "erwa": ErwaBackup(0.01),
        "coulom": CoulomBackup(2.0, 16),
        "feedback": FeedbackBackup("GBY", 64.0, 2000),
        "monotone": MonotoneBackup.from_knots((-4.0, -4.0, -4.0), 2000),
        "softmax": SoftmaxBackup.from_knots((-4.0, -2.0, -2.0), 2000),
    }


def search_digest(result) -> str:
    """SHA-256 over every node's (visits, Q) in preorder, then the best
    action, the principal variation and the root Q."""
    h = hashlib.sha256()
    stack = [result.root]
    while stack:
        node = stack.pop()
        h.update(f"{node.visits}:{node.q.hex()};".encode())
        if node.children is not None:
            stack.extend(reversed(node.children))
    h.update(repr((result.best_action, result.principal_variation,
                   result.root_q.hex())).encode())
    return h.hexdigest()


TRAP_DIGESTS = {
    ("standard", "UCB1"):
        "a78e26f5d4b72b9406d6e1511282b7f1ad13618b7018157c6b68d691bd3e95c4",
    ("standard", "PUCT"):
        "34b4023ece89525c91bdc9941978b05054212574cb9324f3df1eb1a0c98f4869",
    ("erwa", "UCB1"):
        "0f830cae1842229fe9cf1d9ce14ff22b4d9e9ee8d57fa27e09c4f42e0037f028",
    ("erwa", "PUCT"):
        "5b64f4e2fb71e635d2a455ee344712b57f959b485860b02c5f9c3d24107a643e",
    ("coulom", "UCB1"):
        "59b267a987c70aae4b467a7e0786388d65f25723a0e8f5e73a3db17ad701c512",
    ("coulom", "PUCT"):
        "564244246f0041c0b2deb05fa841d1e2e9825d9b9f382d8e00306198012e5f18",
    ("feedback", "UCB1"):
        "bf1f27e80d84f1bb677a04580afb2f859e3b3ed55e679bc6f580ae980c6060f4",
    ("feedback", "PUCT"):
        "2b6007da0e4d07801df558905c8a62d43e1b1688747faa176f1756b15110d2c5",
    ("monotone", "UCB1"):
        "742fcf2a3e5af06c067a08ce90cfb9396efce7d71933a804dd6e38dc7ec83d9b",
    ("monotone", "PUCT"):
        "53644a93bdda574086ce0622007bb66aab19de719e73c85711c9a9260ab99bda",
    ("softmax", "UCB1"):
        "9f08f7d96f81773978c3d7a97aeaeb3ee5c90ad319880148992c42251e4b24aa",
    ("softmax", "PUCT"):
        "b00ebd8936585b02136a26881e582fb5eed4a9a65392d117b9c994608e49b921",
}


@pytest.mark.parametrize("backup,policy", list(TRAP_DIGESTS))
def test_trap_tree_search(backup, policy):
    config = SearchConfig(simulations=300, policy=policy,
                          exploration=EXPLORATION[policy],
                          backup=backups()[backup], seed=17)
    result = run_search(TRAP_POOL.make(4242), config)
    assert search_digest(result) == TRAP_DIGESTS[backup, policy]


TTT_OPENINGS = ((), (4,), (0, 4, 8))
TTT_DIGESTS = {
    ("standard", "UCB1"):
        "3170a3b267defc97757d02ee4650dffbe64679ae71ea994f00d60eb5acc64d92",
    ("standard", "PUCT"):
        "4673e7d0d87557ae93ec1f177f3a29097c04576bc93dc3099385d20a120b00d5",
    ("monotone", "UCB1"):
        "37e41d655eeb3231d6e91871f7a15517c73de1ebbffcca1199bcfbc40e12cf73",
    ("monotone", "PUCT"):
        "3abb361239d53706c945bc8c8c1252af65e2975177a596bf562e87c835c4d869",
}


@pytest.mark.parametrize("backup,policy", list(TTT_DIGESTS))
def test_noisy_oracle_tictactoe_search(backup, policy):
    h = hashlib.sha256()
    for moves in TTT_OPENINGS:
        state = empty_board()
        for a in moves:
            state = state.apply(a)
        config = SearchConfig(simulations=200, policy=policy,
                              exploration=EXPLORATION[policy],
                              backup=backups()[backup],
                              evaluator=NoisyOracleEvaluator(0.1, 5), seed=3)
        h.update(search_digest(run_search(state, config)).encode())
    assert h.hexdigest() == TTT_DIGESTS[backup, policy]


MATCH_DIGEST = (
    "57105561b0de5adedf14184b564ecfe693cbf1343eee59f2cd5118b38e969cd1")


def test_c7_shaped_match_pair():
    # One mirrored pair with the optimize pipeline's shapes: the trap
    # pool, 400 simulations per move, PUCT c = 0.1, a 6-knot softmax
    # profile against standard backup.
    engine = SearchConfig(simulations=400, policy="PUCT", exploration=0.1,
                          backup=SoftmaxBackup.from_knots(
                              (-5.0, -4.0, -3.5, -3.0, -2.0, -1.5), 1000))
    standard = SearchConfig(simulations=400, policy="PUCT", exploration=0.1,
                            backup=StandardBackup())
    match = MatchConfig(pool=TRAP_POOL, engine_a=engine, engine_b=standard,
                        games=2, sims_per_move=400, seed=90)
    _, records = run_match(match, workers=1)
    played = repr([(g.moves, g.outcome, g.final_return) for g in records])
    assert hashlib.sha256(played.encode()).hexdigest() == MATCH_DIGEST
