"""CLI subcommands: outputs, determinism, validation exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import mctsopt
from mctsopt import cli, tournament
from mctsopt.bayesopt import OptimizeConfig
from mctsopt.cli import (_COMMANDS, _KINDS, _MATCH_KEYS, _OPTIMIZE_KEYS,
                         _SYNTHETIC_KEYS, dispatch)
from mctsopt.config import REQUIRED, read_config
from mctsopt.games.synthetic import SyntheticTreeSpec
from mctsopt.tournament import MatchConfig

TYPE_NAMES = {str: "string", int: "integer", float: "number"}
# A value each backup key accepts.
VALID_BACKUP_VALUES = {"alpha": "0.5", "coulom_x": "2", "coulom_y": "4",
                       "feedback_profile": "GAX", "final_ratio": "8",
                       "horizon": "8", "knots": "(-2, -1)", "w0": "1.5"}


def run_cli(*argv):
    return dispatch(list(argv))


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def strip_timestamps(text):
    return re.sub(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", "T", text)


MATCH_INI = """
[match]
games = 8
sims_per_move = 30
seed = 4

[pool]
branching = 3
depth = 4

[engine_a]
backup = erwa
alpha = 0.1

[engine_b]
backup = standard
"""

NOISY_TICTACTOE_MATCH_INI = """
[match]
games = 12
sims_per_move = 20
seed = 1

[pool]
kind = tictactoe

[engine_a]
evaluator = noisy_oracle
noise_sd = 0.1
noise_seed = 3

[engine_b]
evaluator = noisy_oracle
noise_sd = 0.1
noise_seed = 4
"""

OPTIMIZE_SECTION = """
[optimize]
kind = softmax
m = 2
lo = -6
hi = -1
n_init = 2
n_iter = 3
"""
OPTIMIZE_MATCH = """
[match]
games = 4
sims_per_move = 20

[pool]
branching = 3
depth = 3

[engine_a]

[engine_b]
"""
OPTIMIZE_MATCH_INI = OPTIMIZE_SECTION + OPTIMIZE_MATCH
# The same sections with [optimize] last, so that an appended key is in it.
OPTIMIZE_LAST_INI = OPTIMIZE_MATCH + OPTIMIZE_SECTION


@pytest.fixture
def played(monkeypatch):
    """Replace the match objective of optimize with a deterministic fake
    of the knots and the match seed; returns the (knots, match seed) of
    each call."""
    calls = []

    def fake_winrate(knots, kind, base, horizon, workers, book):
        calls.append((knots, base.seed))
        return 0.5 - 0.01 * sum((k + 3.0) ** 2 for k in knots) + base.seed % 97 / 1e4

    monkeypatch.setattr("mctsopt.cli.winrate_objective", fake_winrate)
    return calls


class TestDumpProfile:
    def test_reference_knots_emit_increasing_table(self, tmp_path):
        config = write_config(tmp_path, "p.ini", """
[profile]
knots = (-10.0, -10.0, -4.0, -4.0, -4.0, -10.0)
horizon = 5000
w0 = 1.0
""")
        out = str(tmp_path / "out")
        assert run_cli("dump-profile", "--config", config, "--out", out) == 0
        rows = read_rows(os.path.join(out, "profile.csv"))
        assert rows[0] == ["t", "p", "w"]
        assert len(rows) == 5002
        ws = [float(r[2]) for r in rows[1:]]
        assert all(b > a for a, b in zip(ws, ws[1:]))
        assert ws[0] == 1.0

    def test_rejects_bad_knots_with_status_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "p.ini", """
[profile]
knots = (-10.0, 900.0)
horizon = 10
""")
        assert run_cli("dump-profile", "--config", config,
                       "--out", str(tmp_path / "o")) == 2
        assert "error:" in capsys.readouterr().err


class TestGenGame:
    CONFIG = """
[game]
branching = 4
depth = 6
leaf_win_prob = 0.75
trap_level = 2
trap_count = 1
seed = 9
"""

    def test_descriptor_round_trip(self, tmp_path):
        config = write_config(tmp_path, "g.ini", self.CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("gen-game", "--config", config, "--out", out1) == 0
        assert run_cli("gen-game", "--config", config, "--out", out2) == 0
        d1 = open(os.path.join(out1, "game.ini")).read()
        assert d1 == open(os.path.join(out2, "game.ini")).read()
        assert "trap_actions" in d1

    def test_seed_override_changes_descriptor(self, tmp_path):
        config = write_config(tmp_path, "g.ini", self.CONFIG)
        out = str(tmp_path / "c")
        assert run_cli("gen-game", "--config", config, "--out", out,
                       "--seed", "123") == 0
        assert "seed = 123" in open(os.path.join(out, "game.ini")).read()

    def test_every_key_round_trips(self, tmp_path, capsys):
        keys = {"branching": "4", "depth": "6", "leaf_win_prob": "0.7",
                "trap_level": "2", "trap_count": "1", "trap_prior": "0.8",
                "trap_deviation_win_prob": "0.9", "trap_sealed_win_prob": "0.6",
                "seed": "9"}
        assert set(keys) == set(_SYNTHETIC_KEYS)
        inline = "[game]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        gg = str(tmp_path / "gg")
        assert run_cli("gen-game", "--config",
                       write_config(tmp_path, "g.ini", inline), "--out", gg) == 0
        descriptor = os.path.join(gg, "game.ini")
        written = read_config(descriptor).section("game")
        assert {k: float(written[k]) for k in keys} == \
            {k: float(v) for k, v in keys.items()}
        assert written["kind"] == "synthetic" and "trap_actions" in written

        search = ("\n[search]\nsimulations = 200\npolicy = PUCT\n"
                  "exploration = 0.5\nbackup = softmax\n"
                  "knots = (-3.0, -2.0)\nhorizon = 200\nseed = 4\n")
        outputs = []
        for name, game in (("inline", inline),
                           ("by-ref", f"[game]\ndescriptor = {descriptor}\n")):
            capsys.readouterr()
            out = str(tmp_path / name)
            assert run_cli("analyze", "--config",
                           write_config(tmp_path, name + ".ini", game + search),
                           "--out", out) == 0
            outputs.append((capsys.readouterr().out,
                            open(os.path.join(out, "children.csv")).read()))
        assert outputs[0] == outputs[1]
        assert "0.8" in outputs[0][1]         # the trap's prior reached the root

    def test_manifest_written(self, tmp_path):
        config = write_config(tmp_path, "g.ini", self.CONFIG)
        out = str(tmp_path / "d")
        run_cli("gen-game", "--config", config, "--out", out)
        manifest = open(os.path.join(out, "manifest.ini")).read()
        assert "subcommand = gen-game" in manifest
        assert "version" in manifest


class TestAnalyze:
    def test_consumes_descriptor_and_is_deterministic(self, tmp_path, capsys):
        game_cfg = write_config(tmp_path, "g.ini", TestGenGame.CONFIG)
        gg = str(tmp_path / "gg")
        run_cli("gen-game", "--config", game_cfg, "--out", gg)
        capsys.readouterr()
        analyze_cfg = write_config(tmp_path, "a.ini", f"""
[game]
descriptor = {os.path.join(gg, "game.ini")}

[search]
simulations = 300
policy = UCB1
exploration = 1.0
backup = standard
seed = 2
""")
        out1, out2 = str(tmp_path / "a1"), str(tmp_path / "a2")
        assert run_cli("analyze", "--config", analyze_cfg, "--out", out1) == 0
        first = capsys.readouterr().out
        assert run_cli("analyze", "--config", analyze_cfg, "--out", out2) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = read_rows(os.path.join(out1, "children.csv"))
        assert rows[0] == ["action", "visits", "q", "prior"]
        assert len(rows) == 5
        assert open(os.path.join(out1, "children.csv")).read() == \
            open(os.path.join(out2, "children.csv")).read()

    def test_tictactoe_game_kind(self, tmp_path):
        config = write_config(tmp_path, "t.ini", """
[game]
kind = tictactoe

[search]
simulations = 200
backup = coulom
coulom_x = 2
coulom_y = 16
""")
        out = str(tmp_path / "t")
        assert run_cli("analyze", "--config", config, "--out", out) == 0
        summary = json.load(open(os.path.join(out, "analysis.json")))
        assert summary["root_visits"] == 200


class TestGameSection:
    # Every redraw of a safe root action loses when no leaf wins.
    HOSTILE = ("[game]\nbranching = 3\ndepth = 3\nleaf_win_prob = 0.0\n"
               "trap_count = 1\ntrap_level = 1\n")
    SEARCH = "\n[search]\nsimulations = 20\n"

    def run_error(self, tmp_path, capsys, subcommand, text):
        out = str(tmp_path / "out")
        assert run_cli(subcommand, "--config",
                       write_config(tmp_path, "c.ini", text), "--out", out) == 2
        assert os.listdir(out) == []
        return capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["gen-game", "analyze"])
    def test_tree_error_anchored_at_game_section(self, subcommand, tmp_path,
                                                 capsys):
        text = "# no winning leaf\n" + self.HOSTILE
        if subcommand == "analyze":
            text += self.SEARCH
        err = self.run_error(tmp_path, capsys, subcommand, text)
        assert "c.ini:2: could not make root action" in err

    def test_tree_error_anchored_in_descriptor(self, tmp_path, capsys):
        write_config(tmp_path, "d.ini", "\n" + self.HOSTILE)
        err = self.run_error(tmp_path, capsys, "analyze",
                             f"[game]\ndescriptor = {tmp_path / 'd.ini'}\n"
                             + self.SEARCH)
        assert "d.ini:2: could not make root action" in err

    def test_gen_game_rejects_tictactoe_at_kind(self, tmp_path, capsys):
        err = self.run_error(tmp_path, capsys, "gen-game",
                             "# a board game\n[game]\nkind = TicTacToe\n")
        assert ("c.ini:3: gen-game emits synthetic tree descriptors; "
                "got kind=tictactoe") in err

    @pytest.mark.parametrize("kind", _KINDS["kind"])
    def test_kind_names_are_case_insensitive(self, kind, tmp_path, capsys):
        keys = "" if kind == "tictactoe" else "branching = 3\ndepth = 3\n"
        outputs = []
        for name in (kind, kind.upper(), kind.capitalize()):
            config = write_config(tmp_path, "c.ini", f"[game]\nkind = {name}\n"
                                  + keys + self.SEARCH)
            assert run_cli("analyze", "--config", config,
                           "--out", str(tmp_path / name)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unknown_kind_anchored_at_kind(self, tmp_path, capsys):
        err = self.run_error(tmp_path, capsys, "analyze",
                             "[game]\nkind = chess\n" + self.SEARCH)
        assert "c.ini:2: unknown kind 'chess'" in err

    # At seed 5 this tree's one trap is root action 0.
    TRAPPED = ("[game]\nbranching = 4\ndepth = 6\ntrap_level = 2\n"
               "trap_count = 1\nseed = 5\n")

    @pytest.mark.parametrize("subcommand", ["gen-game", "analyze"])
    def test_trap_actions_must_be_those_of_the_drawn_tree(self, subcommand,
                                                           tmp_path, capsys):
        search = self.SEARCH if subcommand == "analyze" else ""
        out = str(tmp_path / "ok")
        assert run_cli(subcommand, "--config", write_config(
            tmp_path, "ok.ini", self.TRAPPED + "trap_actions = 0\n" + search),
            "--out", out) == 0
        err = self.run_error(tmp_path, capsys, subcommand,
                             self.TRAPPED + "trap_actions = 3\n" + search)
        assert ("c.ini:7: trap_actions = '3', but the tree at seed 5 has "
                "trap actions 0") in err

    def test_trap_actions_checked_at_the_seed_gen_game_draws(self, tmp_path,
                                                              capsys):
        config = write_config(tmp_path, "c.ini",
                              self.TRAPPED + "trap_actions = 0\n")
        out = str(tmp_path / "out")
        assert run_cli("gen-game", "--config", config, "--out", out,
                       "--seed", "7") == 2
        assert os.listdir(out) == []
        assert ("c.ini:7: trap_actions = '0', but the tree at seed 7 has "
                "trap actions 2") in capsys.readouterr().err

    @pytest.mark.parametrize("by_ref", [False, True], ids=["inline", "descriptor"])
    def test_pool_takes_no_trap_actions(self, by_ref, tmp_path, capsys):
        # A pool draws a new tree for every pair, so no list can hold.
        pool = "[pool]" + self.TRAPPED.partition("]")[2] + "trap_actions = 0\n"
        if by_ref:
            write_config(tmp_path, "d.ini", pool.replace("[pool]", "[game]"))
            pool = f"[pool]\ndescriptor = {tmp_path / 'd.ini'}\n"
        text = MATCH_INI.replace("[pool]\nbranching = 3\ndepth = 4\n", pool)
        err = self.run_error(tmp_path, capsys, "tournament", text)
        anchor = "d.ini:7" if by_ref else "c.ini:13"
        assert (f"{anchor}: a pool draws a new tree for every pair, so it "
                "takes no trap_actions") in err


class TestTournament:
    def test_reruns_byte_identical_modulo_timestamp(self, tmp_path):
        config = write_config(tmp_path, "m.ini", MATCH_INI)
        out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        assert run_cli("tournament", "--config", config, "--out", out1) == 0
        assert run_cli("tournament", "--config", config, "--out", out2,
                       "--workers", "2") == 0
        j1 = strip_timestamps(open(os.path.join(out1, "match.json")).read())
        j2 = strip_timestamps(open(os.path.join(out2, "match.json")).read())
        assert j1 == j2
        assert open(os.path.join(out1, "games.csv")).read() == \
            open(os.path.join(out2, "games.csv")).read()

    def test_game_log_columns(self, tmp_path):
        config = write_config(tmp_path, "m.ini", MATCH_INI)
        out = str(tmp_path / "m3")
        run_cli("tournament", "--config", config, "--out", out)
        rows = read_rows(os.path.join(out, "games.csv"))
        assert rows[0] == ["game", "seed", "first_mover", "outcome", "moves",
                           "final_return"]
        assert len(rows) == 9
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(8)]

    @staticmethod
    def distinct_games(tmp_path, capsys, text):
        """The distinct_games a tournament prints and writes, checked
        against the move sequences in its games.csv."""
        config = write_config(tmp_path, "m.ini", text)
        out = str(tmp_path / "m")
        assert run_cli("tournament", "--config", config, "--out", out) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        written = json.load(open(os.path.join(out, "match.json")))
        moves = {r[4] for r in read_rows(os.path.join(out, "games.csv"))[1:]}
        assert written["distinct_games"] == printed["distinct_games"] == len(moves)
        return len(moves)

    def test_noisy_oracle_tictactoe_match_replays_one_game(self, tmp_path,
                                                           capsys):
        # Under the noisy oracle a search is a function of its position,
        # and every tic-tac-toe game starts from the empty board.
        assert self.distinct_games(tmp_path, capsys,
                                   NOISY_TICTACTOE_MATCH_INI) == 1

    def test_trap_pool_match_reports_its_distinct_games(self, tmp_path, capsys):
        text = MATCH_INI.replace("depth = 4\n", "depth = 4\ntrap_level = 3\n"
                                 "trap_count = 1\ntrap_prior = 0.92\n")
        assert self.distinct_games(tmp_path, capsys, text) > 1

    def test_odd_games_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "m.ini",
                              MATCH_INI.replace("games = 8", "games = 7"))
        assert run_cli("tournament", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        assert "error:" in capsys.readouterr().err


class TestOptimize:
    def test_history_has_exactly_n_iter_rows(self, tmp_path, played):
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        out = str(tmp_path / "o1")
        assert run_cli("optimize", "--config", config, "--out", out) == 0
        rows = read_rows(os.path.join(out, "history.csv"))
        assert rows[0] == ["eval", "knots", "win_rate", "games", "timestamp"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert all(r[3] == "4" for r in rows[1:])     # games column
        # Every evaluation plays the games of the [match] seed.
        assert [seed for _, seed in played] == [MatchConfig.seed] * 3
        best = json.load(open(os.path.join(out, "best.json")))
        assert len(best["knots"]) == 2

    def test_reruns_identical_modulo_timestamp(self, tmp_path, played):
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        out1, out2 = str(tmp_path / "oa"), str(tmp_path / "ob")
        run_cli("optimize", "--config", config, "--out", out1)
        run_cli("optimize", "--config", config, "--out", out2)
        h1 = strip_timestamps(open(os.path.join(out1, "history.csv")).read())
        h2 = strip_timestamps(open(os.path.join(out2, "history.csv")).read())
        assert h1 == h2

    def test_history_grows_by_appends_to_one_file(self, tmp_path, monkeypatch,
                                                  played):
        # Each evaluation's row is appended to the file the first one
        # wrote: the same inode throughout, each earlier state a prefix of
        # the last (a replace by rename would give a new inode each time).
        out = str(tmp_path / "oa")
        history = os.path.join(out, "history.csv")
        snapshots = []
        fake = cli.winrate_objective

        def snapshotting(*args, **kwargs):
            if os.path.exists(history):
                with open(history, "rb") as fh:
                    snapshots.append((os.stat(history).st_ino, fh.read()))
            return fake(*args, **kwargs)

        monkeypatch.setattr(cli, "winrate_objective", snapshotting)
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        assert run_cli("optimize", "--config", config, "--out", out) == 0
        with open(history, "rb") as fh:
            final = fh.read()
        assert [len(data.splitlines()) for _, data in snapshots] == [2, 3]
        assert {inode for inode, _ in snapshots} == {os.stat(history).st_ino}
        assert all(final.startswith(data) for _, data in snapshots)
        assert len(final.splitlines()) == 4

    def test_reused_out_holds_only_the_last_run(self, tmp_path, played):
        # A longer run's history in --out is replaced, not appended to.
        fresh, reused = str(tmp_path / "fresh"), str(tmp_path / "reused")
        longer = write_config(tmp_path, "long.ini", OPTIMIZE_MATCH_INI.replace(
            "n_iter = 3", "n_iter = 5"))
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        assert run_cli("optimize", "--config", longer, "--out", reused) == 0
        assert run_cli("optimize", "--config", config, "--out", reused) == 0
        assert run_cli("optimize", "--config", config, "--out", fresh) == 0
        rows = read_rows(os.path.join(reused, "history.csv"))
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        for name in ("history.csv", "best.json"):
            texts = [strip_timestamps(open(os.path.join(d, name)).read())
                     for d in (fresh, reused)]
            assert texts[0] == texts[1]

    def test_best_profile_printed_as_tuple(self, tmp_path, capsys, played):
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        run_cli("optimize", "--config", config, "--out", str(tmp_path / "oc"))
        out = capsys.readouterr().out
        assert re.search(r"best softmax profile: \(-?\d", out)

    def test_match_objective_smoke(self, tmp_path):
        config = write_config(tmp_path, "o.ini", """
[optimize]
kind = softmax
m = 2
lo = -6
hi = -1
n_init = 2
n_iter = 3
seed = 1

[match]
games = 4
sims_per_move = 20
seed = 2

[pool]
branching = 3
depth = 3

[engine_a]

[engine_b]
""")
        out = str(tmp_path / "om")
        assert run_cli("optimize", "--config", config, "--out", out) == 0
        rows = read_rows(os.path.join(out, "history.csv"))
        assert len(rows) == 4
        assert all(r[3] == "4" for r in rows[1:])     # games column
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])

    def test_engine_b_replays_only_its_own_runs_moves(self, tmp_path, capsys,
                                                      monkeypatch):
        # A book that outlived its run would let a rerun search less.
        searches = []
        run_search = tournament.run_search

        def counting(state, config):
            searches.append(type(config.backup).__name__)
            return run_search(state, config)

        monkeypatch.setattr(tournament, "run_search", counting)
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        runs = []
        for run in range(2):
            searches.clear()
            assert run_cli("optimize", "--config", config,
                           "--out", str(tmp_path / f"o{run}")) == 0
            b_searched = re.findall(r" b-searched (\d+) ",
                                    capsys.readouterr().err)
            runs.append((searches.count("StandardBackup"),
                         searches.count("SoftmaxBackup"), b_searched))
        assert runs[0] == runs[1]
        standard, softmax, b_searched = runs[0]
        assert sum(map(int, b_searched)) == standard
        # Engine B's opening move of each pair is the same every
        # evaluation, so later evaluations replay at least that.
        assert 0 < standard < softmax

    def test_match_seed_decides_the_games(self, tmp_path, played):
        # [match] seed reaches every evaluation; --seed moves only the
        # optimiser's draws.
        runs = {}
        for seed, flag in ((2, ()), (99, ()), (99, ("--seed", "5"))):
            config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI.replace(
                "sims_per_move = 20\n", f"sims_per_move = 20\nseed = {seed}\n"))
            played.clear()
            assert run_cli("optimize", "--config", config,
                           "--out", str(tmp_path / f"o{len(runs)}"), *flag) == 0
            runs[seed, flag] = list(played)
        for (seed, _), calls in runs.items():
            assert [s for _, s in calls] == [seed] * 3
        # The fake scores both match seeds alike (2 = 99 mod 97), so the
        # same optimiser seed proposes the same knots.
        knots = {key: [k for k, _ in calls] for key, calls in runs.items()}
        assert knots[2, ()] == knots[99, ()]
        assert knots[99, ()] != knots[99, ("--seed", "5")]

    @pytest.mark.parametrize("name", ["Softmax", "SOFTMAX", "Monotone"])
    def test_kind_is_case_insensitive(self, name, tmp_path, capsys, played):
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI.replace(
            "kind = softmax", f"kind = {name}"))
        out = str(tmp_path / "ok")
        assert run_cli("optimize", "--config", config, "--out", out) == 0
        assert json.load(open(os.path.join(out, "best.json")))["kind"] == \
            name.lower()
        assert capsys.readouterr().out.startswith(f"best {name.lower()} profile")
        assert len(played) == 3

    def test_box_beyond_knot_limit_rejected_before_any_game(
            self, tmp_path, capsys, played):
        config = write_config(tmp_path, "o.ini", """
[optimize]
kind = softmax
m = 2
lo = 650
hi = 710
n_init = 2
n_iter = 3

[match]
games = 4
sims_per_move = 20

[pool]
branching = 3
depth = 3

[engine_a]

[engine_b]
""")
        out = str(tmp_path / "ok")
        assert run_cli("optimize", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "o.ini:6:" in err and "hi = 710.0" in err
        assert played == []
        assert not os.path.exists(os.path.join(out, "history.csv"))

    @pytest.mark.parametrize("error", [ValueError, OSError])
    @pytest.mark.parametrize("k", [0, 2])
    def test_objective_error_names_its_evaluation(
            self, tmp_path, capsys, monkeypatch, played, error, k):
        fake = cli.winrate_objective

        def failing(*args, **kwargs):
            if len(played) == k:
                raise error("no game")
            return fake(*args, **kwargs)

        monkeypatch.setattr(cli, "winrate_objective", failing)
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        out = str(tmp_path / "oe")
        assert run_cli("optimize", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[k:] == [f"error: evaluation {k + 1} of 3: no game"]
        assert len(played) == k
        # The evaluations finished before the error are on disk.
        history = os.path.join(out, "history.csv")
        if k:
            assert [r[0] for r in read_rows(history)[1:]] == \
                [str(i) for i in range(k)]
        else:
            assert not os.path.exists(history)

    def test_one_progress_line_per_evaluation(self, tmp_path, capsys, played):
        config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
        assert run_cli("optimize", "--config", config,
                       "--out", str(tmp_path / "op")) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == len(played) == 3
        # The fake objective plays no game, so engine B searches nothing.
        for i, line in enumerate(lines, 1):
            match = re.match(rf"optimize: {i}/3 knots \(.*\) win-rate ([0-9.]+) "
                             rf"ci95 \[([0-9.]+), ([0-9.]+)\] "
                             rf"best [0-9.]+ b-searched 0 "
                             rf"elapsed [0-9.]+s eta [0-9.]+s$",
                             line)
            assert match, line
            rate, lo, hi = map(float, match.groups())
            assert lo < rate < hi           # the Wilson interval of 4 games
        assert lines[-1].endswith(" eta 0.0s")
        assert captured.out.startswith("best softmax profile: (")


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports this
    package."""
    src = os.path.dirname(os.path.dirname(mctsopt.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def test_import_loads_no_scipy():
    # Only optimize needs scipy; it loads scipy.linalg and scipy.special at
    # its first GP fit.
    code = ("import sys, mctsopt, mctsopt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


def test_optimize_loads_neither_scipy_stats_nor_spatial(tmp_path):
    # n_iter > n_init: the run fits the GP and proposes a point.
    config = write_config(tmp_path, "o.ini", OPTIMIZE_MATCH_INI)
    code = ("import sys; from mctsopt.cli import dispatch; "
            f"assert dispatch(['optimize', '--config', {config!r}, "
            f"'--out', {str(tmp_path / 'op')!r}]) == 0; "
            "print('scipy.linalg' in sys.modules, sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.spatial'))))")
    assert run_fresh(code).splitlines()[-1] == "True []"


class TestValidation:
    def test_unknown_key_is_line_anchored_and_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.ini", """
[profile]
knots = (-1.0, -2.0)
horizon = 10
typo_key = 5
""")
        assert run_cli("dump-profile", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "bad.ini:5" in err
        assert "typo_key" in err

    def test_workers_below_one_rejected_before_the_config(self, tmp_path,
                                                          capsys):
        # The config does not exist: reading it would give another error.
        out = tmp_path / "x"
        for workers in ("0", "-3"):
            assert run_cli("dump-profile", "--config", str(tmp_path / "nope.ini"),
                           "--out", str(out), "--workers", workers) == 2
            assert capsys.readouterr().err == \
                "error: --workers must be at least 1\n"
        assert not out.exists()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # Given directly or through a descriptor, the bad file is named.
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[game]\nbranching = 3\xff\n")
        ref = write_config(tmp_path, "ref.ini", f"[game]\ndescriptor = {bad}\n")
        for config in (str(bad), ref):
            assert run_cli("gen-game", "--config", config,
                           "--out", str(tmp_path / "x")) == 2
            err = capsys.readouterr().err
            assert f"error: {bad}:0: cannot read config: 'utf-8' codec" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("dump-profile", "--config",
                       str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "x")) == 2

    def test_unknown_section_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.ini", """
[profile]
knots = (-1.0, -2.0)
horizon = 5

[profiel]
x = 1
""")
        assert run_cli("dump-profile", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "bad.ini:6" in err and "profiel" in err

    def test_unknown_evaluator(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.ini", """
[game]
kind = tictactoe

[search]
simulations = 10
evaluator = psychic
""")
        assert run_cli("analyze", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        assert "psychic" in capsys.readouterr().err

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        config = write_config(tmp_path, "p.ini", """
[profile]
knots = (-1.0, -2.0)
horizon = 5
""")
        afile = tmp_path / "afile"
        afile.write_text("")
        assert run_cli("dump-profile", "--config", config,
                       "--out", str(afile / "sub")) == 2
        assert "error:" in capsys.readouterr().err

    def test_trap_prior_without_traps(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.ini", """
[game]
branching = 3
depth = 3
trap_prior = 0.9

[search]
simulations = 10
""")
        assert run_cli("analyze", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "bad.ini:2:" in err and "trap_prior" in err

    SEARCH = "[game]\nbranching = 3\ndepth = 3\n\n[search]\nsimulations = 10\n"

    def analyze_error(self, tmp_path, capsys, text):
        config = write_config(tmp_path, "bad.ini", text)
        out = str(tmp_path / "x")
        assert run_cli("analyze", "--config", config, "--out", out) == 2
        assert os.listdir(out) == []
        return capsys.readouterr().err

    def test_zero_simulations_anchored_at_section(self, tmp_path, capsys):
        err = self.analyze_error(tmp_path, capsys, self.SEARCH.replace(
            "simulations = 10", "simulations = 0"))
        assert "bad.ini:5: simulation budget must be positive" in err

    def test_negative_noise_anchored_at_evaluator(self, tmp_path, capsys):
        err = self.analyze_error(
            tmp_path, capsys,
            self.SEARCH + "evaluator = noisy_oracle\nnoise_sd = -1\n")
        assert "bad.ini:7: bad evaluator spec: noise_sd must be non-negative" in err

    @pytest.mark.parametrize("kind", [kind for kind, (_, keys)
                                      in _KINDS["backup"].items() if keys])
    def test_backup_key_errors_are_anchored(self, kind, tmp_path, capsys):
        """Per key of each kind: a value that does not convert is anchored
        at its key, a missing required key at the section."""
        table = _KINDS["backup"][kind][1]
        for key, (convert, default) in table.items():
            keys = {k: VALID_BACKUP_VALUES[k] for k in table if k != key}
            if convert is not str:
                text = self.SEARCH + f"backup = {kind}\n" + "".join(
                    f"{k} = {v}\n" for k, v in {**keys, key: "abc"}.items())
                err = self.analyze_error(tmp_path, capsys, text)
                line = text.splitlines().index(f"{key} = abc") + 1
                assert (f"bad.ini:{line}: {key} = 'abc' is not a valid "
                        f"{TYPE_NAMES[convert]}") in err
            if default is REQUIRED:
                text = self.SEARCH + f"backup = {kind}\n" + "".join(
                    f"{k} = {v}\n" for k, v in keys.items())
                err = self.analyze_error(tmp_path, capsys, text)
                assert f"bad.ini:5: [search] is missing required key {key!r}" in err

    def test_backup_value_rejected_at_backup_line(self, tmp_path, capsys):
        for keys in ("backup = erwa\nalpha = 2\n",
                     "backup = feedback\nfeedback_profile = GXX\nhorizon = 8\n",
                     "backup = softmax\nknots = (-1)\nhorizon = 8\n"):
            err = self.analyze_error(tmp_path, capsys, self.SEARCH + keys)
            assert "bad.ini:7: bad backup spec: " in err

    def test_noise_sd_is_unknown(self, tmp_path, capsys, played):
        config = write_config(tmp_path, "bad.ini",
                              OPTIMIZE_LAST_INI + "noise_sd = 0.1\n")
        assert run_cli("optimize", "--config", config,
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "bad.ini:21:" in err and "noise_sd" in err
        assert played == []

    def test_nan_bound(self, tmp_path, capsys, played):
        config = write_config(tmp_path, "bad.ini",
                              OPTIMIZE_MATCH_INI.replace("lo = -6", "lo = nan"))
        out = str(tmp_path / "x")
        assert run_cli("optimize", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "bad.ini:2:" in err and "finite" in err
        assert played == []
        assert not os.path.exists(os.path.join(out, "history.csv"))

    def test_descriptor_holds_only_game(self, tmp_path, capsys):
        write_config(tmp_path, "d.ini",
                     "[game]\nbranching = 3\ndepth = 3\n\n[junk]\nfoo = 1\n")
        err = self.analyze_error(
            tmp_path, capsys, f"[game]\ndescriptor = {tmp_path / 'd.ini'}\n\n"
                              "[search]\nsimulations = 10\n")
        assert "d.ini:5: unknown section [junk] in a game descriptor" in err


# Keys that a run would not read: (subcommand, config, descriptor d.ini).
# The last file given ends with the rejected key; "{dir}" is the test's
# directory.
IGNORED_KEYS = {
    "match-sets-budget": ("tournament", MATCH_INI + "simulations = 5000\n"),
    "match-sets-seeds": ("tournament", MATCH_INI + "seed = 77\n"),
    "noise-under-rollout": ("tournament", MATCH_INI + "noise_sd = 0.3\n"),
    "noise-seed-under-rollout": (
        "analyze", "[game]\nbranching = 3\ndepth = 3\n\n"
                   "[search]\nsimulations = 10\nnoise_seed = 4\n"),
    "tictactoe-extra-key": (
        "analyze", "[search]\nsimulations = 10\n\n"
                   "[game]\nkind = tictactoe\ndepth = 3\n"),
    "softmax-reads-no-w0": (
        "analyze", "[game]\nbranching = 3\ndepth = 3\n\n[search]\n"
                   "simulations = 10\nbackup = softmax\nknots = (-3.0, -2.0)\n"
                   "horizon = 10\nw0 = 5\n"),
    "standard-reads-no-horizon": (
        "tournament", MATCH_INI.replace("backup = standard\n", "") + "horizon = 100\n"),
    "optimizer-sets-backup": ("optimize", OPTIMIZE_MATCH_INI + "backup = erwa\n"),
    "optimizer-sets-alpha": ("optimize", OPTIMIZE_MATCH_INI + "alpha = 0.5\n"),
    "descriptor-in-descriptor": (
        "analyze", "[game]\ndescriptor = {dir}/d.ini\n\n[search]\nsimulations = 10\n",
        "[game]\nbranching = 3\ndepth = 3\ndescriptor = {dir}/d.ini\n"),
    # The optimiser proposes one expected-improvement point per round.
    "no-batch": ("optimize", OPTIMIZE_LAST_INI + "batch = 2\n"),
    "no-acquisition": ("optimize", OPTIMIZE_LAST_INI + "acquisition = UCB\n"),
    "no-kappa": ("optimize", OPTIMIZE_LAST_INI + "kappa = 2.0\n"),
    "no-candidate-count": ("optimize", OPTIMIZE_LAST_INI + "candidate_count = 512\n"),
    # optimize always scores a profile by a match.
    "no-objective": ("optimize", OPTIMIZE_LAST_INI + "objective = match\n"),
    # optimize keeps engine B's book itself, for one run.
    "match-takes-no-book": (
        "optimize", OPTIMIZE_SECTION + "[pool]\nbranching = 3\ndepth = 3\n\n"
                    "[engine_a]\n\n[engine_b]\n\n"
                    "[match]\ngames = 4\nsims_per_move = 20\nbook = 1\n"),
}


@pytest.mark.parametrize("case", IGNORED_KEYS)
def test_key_the_run_would_not_read_is_rejected(case, tmp_path, capsys,
                                                 played):
    subcommand, *texts = IGNORED_KEYS[case]
    files = dict(zip(("c.ini", "d.ini"), texts))
    for name, text in files.items():
        write_config(tmp_path, name, text.replace("{dir}", str(tmp_path)))
    anchor_file = list(files)[-1]
    lines = files[anchor_file].splitlines()
    key = lines[-1].partition("=")[0].strip()
    out = str(tmp_path / "out")
    assert run_cli(subcommand, "--config", str(tmp_path / "c.ini"),
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{anchor_file}:{len(lines)}: unknown key {key!r}" in err
    assert played == []
    assert os.listdir(out) == []              # no history.csv, nor any output


# Values a range check must reject, NaN included: (subcommand, config,
# the line the error is anchored at, message).
SEARCH_INI = TestValidation.SEARCH
BAD_VALUES = {
    "exploration-nan": ("analyze", SEARCH_INI + "exploration = nan\n", "[search]",
                        "exploration constant must be non-negative"),
    # An infinite constant sends every visit down the first child's line.
    "exploration-inf": ("analyze", SEARCH_INI + "exploration = inf\n", "[search]",
                        "exploration constant must be non-negative and finite"),
    "coulom-x-nan": (
        "analyze", SEARCH_INI + "backup = coulom\ncoulom_x = nan\ncoulom_y = 4\n",
        "backup = coulom", "bad backup spec: x must be positive"),
    "final-ratio-nan": (
        "analyze", SEARCH_INI + "backup = feedback\nfeedback_profile = GAX\n"
                                "horizon = 8\nfinal_ratio = nan\n",
        "backup = feedback", "bad backup spec: final_ratio must exceed 1"),
    # An infinite ratio gives NaN weights, so every q would be NaN.
    "final-ratio-inf": (
        "analyze", SEARCH_INI + "backup = feedback\nfeedback_profile = GAX\n"
                                "horizon = 8\nfinal_ratio = inf\n",
        "backup = feedback", "bad backup spec: final_ratio must exceed 1"),
    "feedback-horizon-zero": (
        "analyze", SEARCH_INI + "backup = feedback\nfeedback_profile = GAX\n"
                                "horizon = 0\n",
        "backup = feedback", "bad backup spec: horizon must be >= 1"),
    "feedback-horizon-negative": (
        "analyze", SEARCH_INI + "backup = feedback\nfeedback_profile = GBY\n"
                                "horizon = -1\n",
        "backup = feedback", "bad backup spec: horizon must be >= 1"),
    "w0-nan": (
        "analyze", SEARCH_INI + "backup = monotone\nknots = (-2, -1)\n"
                                "horizon = 8\nw0 = nan\n",
        "backup = monotone", "bad backup spec: w0 must be non-negative"),
    "noise-sd-nan": (
        "analyze", SEARCH_INI + "evaluator = noisy_oracle\nnoise_sd = nan\n",
        "evaluator = noisy_oracle",
        "bad evaluator spec: noise_sd must be non-negative"),
    # Infinite noise clamps every evaluation to exactly 0 or 1.
    "noise-sd-inf": (
        "analyze", SEARCH_INI + "evaluator = noisy_oracle\nnoise_sd = inf\n",
        "evaluator = noisy_oracle",
        "bad evaluator spec: noise_sd must be non-negative and finite"),
    "noise-var-nan": (
        "optimize", OPTIMIZE_MATCH_INI.replace("n_iter = 3\n",
                                               "n_iter = 3\nnoise_var = nan\n"),
        "[optimize]", "noise_var must be non-negative"),
    # Refused before the initial design's games, not at the first GP fit.
    "noise-var-inf": (
        "optimize", OPTIMIZE_MATCH_INI.replace("n_iter = 3\n",
                                               "n_iter = 3\nnoise_var = inf\n"),
        "[optimize]", "noise_var must be non-negative"),
    "m-zero": ("optimize", OPTIMIZE_MATCH_INI.replace("m = 2", "m = 0"),
               "m = 0", "m must be at least 2"),
    "m-one-match": ("optimize", OPTIMIZE_MATCH_INI.replace("m = 2", "m = 1"),
                    "m = 1", "m must be at least 2"),
    "m-above-direction-table": (
        "optimize", OPTIMIZE_MATCH_INI.replace("m = 2", "m = 21202"),
        "m = 21202", "m must be at most 21201 (the Sobol direction table's "
                     "dimensions), got 21202"),
    "horizon-zero-match": (
        "optimize", OPTIMIZE_MATCH_INI.replace("n_iter = 3\n",
                                               "n_iter = 3\nhorizon = 0\n"),
        "horizon = 0", "horizon must be >= 1"),
    "hi-beyond-knot-limit-monotone": (
        "optimize", OPTIMIZE_MATCH_INI.replace("kind = softmax", "kind = monotone")
                                      .replace("hi = -1", "hi = 710"),
        "hi = 710", "knots at hi = 710.0 give no monotone profile"),
}


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_value_is_rejected_at_its_anchor(case, tmp_path, capsys,
                                             played):
    subcommand, text, anchored, message = BAD_VALUES[case]
    config = write_config(tmp_path, "c.ini", text)
    out = str(tmp_path / "out")
    assert run_cli(subcommand, "--config", config, "--out", out) == 2
    line = text.splitlines().index(anchored) + 1
    assert f"c.ini:{line}: {message}" in capsys.readouterr().err
    assert played == []
    assert os.listdir(out) == []              # no history.csv, nor any output


# A minimal valid config of each subcommand: section -> its lines.
MINIMAL = {
    "gen-game": {"game": "branching = 3\ndepth = 3\n"},
    "analyze": {"game": "branching = 3\ndepth = 3\n",
                "search": "simulations = 10\n"},
    "tournament": {"match": "games = 4\nsims_per_move = 20\n",
                   "pool": "branching = 3\ndepth = 3\n",
                   "engine_a": "", "engine_b": ""},
    "dump-profile": {"profile": "knots = (-2, -1)\nhorizon = 8\n"},
}
MINIMAL["optimize"] = {"optimize": "", **MINIMAL["tournament"]}


@pytest.mark.parametrize("command, section", [
    (command, section) for command, (_, sections, _) in _COMMANDS.items()
    for section in sorted(sections)])
def test_every_allowed_section_is_read(command, section, tmp_path, capsys,
                                       monkeypatch, played):
    """A key no table declares, in any section a subcommand allows, exits 2
    at its line before any game."""
    for name in ("run_match", "run_search"):
        monkeypatch.setattr(f"mctsopt.cli.{name}",
                            lambda *a, **kw: played.append(a))
    sections = MINIMAL[command]
    assert set(sections) == _COMMANDS[command][1]
    text = "".join(f"[{name}]\n{body}" + ("bogus = 1\n" if name == section else "")
                   + "\n" for name, body in sections.items())
    config = write_config(tmp_path, "c.ini", text)
    out = str(tmp_path / "out")
    assert run_cli(command, "--config", config, "--out", out) == 2
    line = text.splitlines().index("bogus = 1") + 1
    assert f"c.ini:{line}: unknown key 'bogus' in [{section}]" in \
        capsys.readouterr().err
    assert played == []
    assert os.listdir(out) == []


def _describe(table):
    return [f"`{key}` ({TYPE_NAMES[convert]}, "
            + ("required" if default is REQUIRED else f"default {default!r}") + ")"
            for key, (convert, default) in table.items()]


def test_readme_names_the_declared_keys():
    """README's backup table and evaluator sentences name exactly the keys,
    types and defaults that _KINDS declares."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    readme = open(path, encoding="utf-8").read()
    table = readme.split("| `backup`   | keys it reads |\n")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` +\| (.+?) \|$", table, re.M))
    assert rows == {kind: ", ".join(_describe(keys)) or "none"
                    for kind, (_, keys) in _KINDS["backup"].items()}
    prose = " ".join(readme.split())
    for kind, (_, keys) in _KINDS["evaluator"].items():
        if keys:
            assert (f"With `evaluator = {kind}` an engine section also reads "
                    + " and ".join(_describe(keys))) in prose
        else:
            assert f"`evaluator = {kind}` reads no more keys" in prose


def test_readme_tabulates_the_optimize_keys():
    """README's [optimize] table lists exactly the keys _OPTIMIZE_KEYS
    declares, with their types and fixed defaults; a key the run resolves
    (default None) has prose, not a value, in its default cell."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    readme = open(path, encoding="utf-8").read()
    table = readme.split("| key         | type    | default | meaning |\n")[1]
    table = table.split("\n\n")[0]
    rows = {key: (kind, default) for key, kind, default in re.findall(
        r"^\| `(\w+)` +\| (\w+) +\| (.+?) \| .+ \|$", table, re.M)}
    assert list(rows) == list(_OPTIMIZE_KEYS)
    for key, (convert, default) in _OPTIMIZE_KEYS.items():
        kind, cell = rows[key]
        assert kind == TYPE_NAMES[convert], key
        if default is None:
            assert not re.fullmatch(r"`[^`]*`", cell), key
        else:
            assert cell == f"`{default}`", key


def _table_defaults(table, drop=()):
    return {key: default for key, (_, default) in table.items()
            if key not in drop}


def _field_defaults(cls, missing, drop=()):
    return {f.name: missing if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(cls) if f.name not in drop}


@pytest.mark.parametrize("table, cls, missing, drop_keys, drop_fields", [
    (_KINDS["kind"]["synthetic"][1], SyntheticTreeSpec, REQUIRED,
     {"trap_actions"}, ()),
    (_OPTIMIZE_KEYS, OptimizeConfig, None, {"kind", "horizon"}, ()),
    (_MATCH_KEYS, MatchConfig, REQUIRED, (),
     {"pool", "engine_a", "engine_b", "book"}),
], ids=["synthetic", "optimize", "match"])
def test_section_table_matches_its_object(table, cls, missing, drop_keys,
                                          drop_fields):
    """A section table reads exactly its object's fields, with the field's
    type and default; a field without a default is required, or, under
    [optimize], resolved by the CLI (None).  The synthetic table adds only
    trap_actions (the reader adds kind), [optimize] only kind and horizon,
    and [match] leaves the pool and the engines to their sections and the
    book of engine B's moves to optimize."""
    assert _table_defaults(table, drop_keys) == \
        _field_defaults(cls, missing, drop_fields)
    for f in dataclasses.fields(cls):
        if f.name in table:
            assert table[f.name][0].__name__ in f.type.split(" | "), f.name
