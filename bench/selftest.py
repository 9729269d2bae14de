#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

They run every workload at minimum size, traced and untraced, through the
same command the benchmark is run with, and show that each correctness
check rejects a corrupted output.  They take about half a minute on 2 CPUs.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import tempfile
import unittest

import run  # puts src/ on the path
import checks
import reference

ROOT = os.path.dirname(run.BENCH_DIR)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class MinimumSizeRuns(unittest.TestCase):
    """Every workload and every check, at minimum size."""

    def test_every_workload_traced_and_untraced(self):
        spec = _spec()
        for workload in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = subprocess.run(
                        spec["command"] + ["--workload", workload["name"], "--seed", "3",
                                           "--seconds", "1", "--trace", str(trace),
                                           "--small"],
                        cwd=ROOT, capture_output=True, text=True, timeout=600)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"] for m in spec[kind]}
                    self.assertEqual(set(result["metrics"]), names)
                    for metric in spec[kind]:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                         metric["unit"])


class CorruptedOutputs(unittest.TestCase):
    """Each check fails on an output with one fault put in."""

    @classmethod
    def setUpClass(cls):
        sweep = run.BackupSweep(seed=5, small=True)
        cls.sweep = sweep
        cls.sweep_outputs = sweep.round().outputs
        ttt = run.OracleTtt(seed=5, small=True)
        cls.ttt = ttt
        cls.ttt_outputs = ttt.round().outputs

    def test_clean_outputs_pass(self):
        self.sweep.check(self.sweep_outputs)
        self.ttt.check(self.ttt_outputs)

    def test_visit_count_off_by_one(self):
        for place in ("root", "root child", "deep node"):
            with self.subTest(place=place):
                outputs = copy.deepcopy(self.sweep_outputs)
                root = outputs[0][1].root
                if place == "root":
                    root.visits += 1
                elif place == "root child":
                    root.children[0].visits -= 1
                else:
                    node = next(c for c in root.children if c.children)
                    next(c for c in node.children if c.children).visits += 1
                with self.assertRaises(checks.CheckFailed):
                    self.sweep.check(outputs)

    def test_value_out_of_range(self):
        outputs = copy.deepcopy(self.sweep_outputs)
        root = outputs[0][1].root
        next(c for c in root.children if c.visits).q = 1.25
        with self.assertRaises(checks.CheckFailed):
            self.sweep.check(outputs)

    def test_softmax_root_beyond_best_child(self):
        outputs = copy.deepcopy(self.sweep_outputs)
        label, result = next(o for o in outputs if o[0][1] == "softmax")
        result.root.q = max(c.q for c in result.root.children) + 1e-6
        with self.assertRaises(checks.CheckFailed):
            self.sweep.check(outputs)

    def test_trap_that_is_not_lost(self):
        tree = self.sweep.trees[0].tree
        leaves = [1.0] * len(tree.leaf_values)
        with self.assertRaises(checks.CheckFailed):
            checks.check_trap_tree(leaves, tree.branching, tree.depth,
                                   tree.trap_actions, "all-win tree")

    def test_illegal_move(self):
        # Position 1 is the board after X's first move: that cell is taken.
        index = next(k for k, ((i, _), _) in enumerate(self.ttt_outputs) if i == 1)
        taken = self.ttt.board(self.ttt.states[1]).index("X")
        for field in ("best_action", "principal_variation"):
            with self.subTest(field=field):
                outputs = copy.deepcopy(self.ttt_outputs)
                result = outputs[index][1]
                if field == "best_action":
                    result.best_action = taken
                else:
                    result.principal_variation = [taken]
                with self.assertRaises(checks.CheckFailed):
                    self.ttt.check(outputs)

    def test_terminal_child_with_wrong_value(self):
        board = "XX.OO...."   # X to move; cell 2 wins at once
        result = type("Result", (), {})()
        node = type("Node", (), {"visits": 1, "q": 1.0, "children": None})
        result.root = type("Root", (), {})()
        result.root.child_actions = tuple(reference.ttt_moves(board))
        result.root.children = [node() for _ in result.root.child_actions]
        result.best_action = 2
        result.principal_variation = [2]
        checks.check_ttt_search(board, result, "clean")
        result.root.children[0].q = 0.999
        with self.assertRaises(checks.CheckFailed):
            checks.check_ttt_search(board, result, "corrupted")

    def test_oracle_disagreeing_with_reference(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_oracle_values(["........."], [1.0], "oracle")

    def test_self_play_not_even(self):
        checks.check_self_play(0.5)
        with self.assertRaises(checks.CheckFailed):
            checks.check_self_play(0.75)


class CorruptedOptimizeOutputs(unittest.TestCase):
    """history.csv / best.json of a real minimum-size optimize run."""

    @classmethod
    def setUpClass(cls):
        cls.tune = run.TuneTrap(seed=5, small=True)
        cls.tune.round()
        cls.tmp = tempfile.mkdtemp(dir=run.OUT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _args(self):
        t = self.tune
        return self.tmp, t.n_iter, t.m, t.box[0], t.box[1], t.games

    def _copy(self):
        for name in ("history.csv", "best.json"):
            shutil.copy(os.path.join(self.tune.out_dir, name), self.tmp)
        with open(os.path.join(self.tmp, "history.csv"), newline="") as fh:
            return list(csv.reader(fh))

    def _write(self, rows):
        with open(os.path.join(self.tmp, "history.csv"), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def test_clean_outputs_pass(self):
        self._copy()
        checks.check_optimize_outputs(*self._args())

    def test_knot_outside_the_box(self):
        rows = self._copy()
        knots = rows[1][1].strip("()").split(", ")
        knots[0] = repr(self.tune.box[1] + 0.5)
        rows[1][1] = "(" + ", ".join(knots) + ")"
        self._write(rows)
        with self.assertRaises(checks.CheckFailed):
            checks.check_optimize_outputs(*self._args())

    def test_missing_evaluation(self):
        self._write(self._copy()[:-1])
        with self.assertRaises(checks.CheckFailed):
            checks.check_optimize_outputs(*self._args())

    def test_win_rate_off_the_game_grid(self):
        rows = self._copy()
        rows[1][2] = repr(float(rows[1][2]) + 0.01)
        self._write(rows)
        with self.assertRaises(checks.CheckFailed):
            checks.check_optimize_outputs(*self._args())

    def test_best_json_not_the_maximum(self):
        self._copy()
        path = os.path.join(self.tmp, "best.json")
        with open(path) as fh:
            best = json.load(fh)
        best["best_value"] -= 1.0 / self.tune.games
        with open(path, "w") as fh:
            json.dump(best, fh)
        with self.assertRaises(checks.CheckFailed):
            checks.check_optimize_outputs(*self._args())


if __name__ == "__main__":
    unittest.main()
