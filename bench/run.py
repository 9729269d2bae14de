#!/usr/bin/env python3
"""Benchmark of mctsopt: three workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload backup-sweep --seed 1 --seconds 36 --trace 0

Each run builds its inputs from --seed, repeats whole rounds of the same
operations for about --seconds seconds, checks the program's outputs
against the independent references in reference.py, and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
sims_per_s, peak_rss_mb).  With --trace 1 untraced and traced rounds
alternate and the metrics are the per-layer ones plus trace.overhead_pct.
The program is driven only through its public API and CLI code path; the
package under src/ is imported from this checkout and never modified.
See README.md for what each workload and metric stands for.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT = os.path.join(BENCH_DIR, "out")

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 3

# The host-speed probe: a fixed pure-Python loop of the benchmark's own,
# which no change to the program can speed up or slow down.  A shared host
# can change speed by 1.7x for stretches of 10 to 100 s (README.md,
# "Noise"), so every round time is scaled by PROBE_REF_S over
# the probe's median time at the moments the round ran: it reads as the
# time on a host where the probe takes PROBE_REF_S.
PROBE_LOOPS = 50_000
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.1      # between operations, at most this far apart
PROBE_REPEATS = 3        # probes back to back before and after timed work

# The trap pool of the C6/C7 studies.
TRAP_POOL = dict(branching=4, depth=8, leaf_win_prob=0.75, trap_level=3,
                 trap_count=1, trap_prior=0.92, trap_deviation_win_prob=0.95,
                 trap_sealed_win_prob=0.65)


def _load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mctsopt", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}/mctsopt")
    sys.path.insert(0, SRC)
    import mctsopt
    if os.path.dirname(os.path.dirname(os.path.abspath(mctsopt.__file__))) != SRC:
        sys.exit(f"bench: mctsopt was imported from {mctsopt.__file__}, not {SRC}")


_load_program()
# The imports below need src/ on the path.
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from mctsopt import (CoulomBackup, ErwaBackup, FeedbackBackup,  # noqa: E402
                     MatchConfig, MonotoneBackup, NoisyOracleEvaluator,
                     RandomRolloutEvaluator, SearchConfig, SoftmaxBackup,
                     StandardBackup, SyntheticPool, empty_board, minimax_value,
                     run_match)
from mctsopt.seeds import derive  # noqa: E402


def _probe_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class HostSpeed:
    """Times the probe next to the timed work and scales that work by it."""

    def __init__(self):
        self.samples = []    # probe times since the last scale()
        self.spent = 0.0     # seconds spent probing, in all
        self.last = -float("inf")

    def probe(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            _probe_loop(PROBE_LOOPS)
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
            self.spent += self.last - start

    def between_operations(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    @contextlib.contextmanager
    def alongside(self):
        """Probe from a second thread while the block runs, for work done
        in other processes while this one waits.  The probe's CPU time is
        taken, not its wall time, which would count its wait for a CPU
        those processes hold."""
        stop = threading.Event()

        def probe_until_stopped():
            while not stop.wait(PROBE_EVERY_S):
                start = time.thread_time()
                _probe_loop(PROBE_LOOPS)
                self.samples.append(time.thread_time() - start)

        thread = threading.Thread(target=probe_until_stopped, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, seconds: float) -> float:
        """`seconds` at the reference speed, by the probes since the last
        scale()."""
        factor = PROBE_REF_S / statistics.median(self.samples)
        self.samples = []
        return seconds * factor


HOST = HostSpeed()


class Round:
    """Operations attempted in one round, how many failed, their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = []

    def call(self, label, fn, *args):
        """Run one operation; an exception counts it as failed."""
        HOST.between_operations()
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:  # a failing operation is counted, not fatal
            self.failed += 1
            if self.failed == 1:
                print(f"bench: {label} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            out = None
        self.outputs.append((label, out))
        return out


# ------------------------------------------------------------------ workloads
class BackupSweep:
    """All six backups x {PUCT, UCB1}, 1000 rollout sims, on trap trees."""

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.sims = 60 if small else 1000
        horizon = 1000
        pool = tracing.wrap(SyntheticPool(**TRAP_POOL))
        self.trees = [pool.make(derive(seed, "sweep-tree", i))
                      for i in range(1 if small else 4)]
        self.backups = (StandardBackup(), ErwaBackup(0.05), CoulomBackup(2.0, 16),
                        FeedbackBackup("GBY", 64.0, horizon),
                        MonotoneBackup.from_knots((-4.0, -4.0, -4.0), horizon),
                        SoftmaxBackup.from_knots((-3.5, -3.0, -2.5), horizon))

    def round(self) -> Round:
        r = Round()
        for t, root in enumerate(self.trees):
            for backup in self.backups:
                for policy, c in (("PUCT", 0.1), ("UCB1", 1.0)):
                    config = SearchConfig(
                        simulations=self.sims, policy=policy, exploration=c,
                        backup=tracing.wrap(backup),
                        evaluator=tracing.wrap(RandomRolloutEvaluator()),
                        seed=derive(self.seed, "sweep-search", t, backup.kind, policy))
                    r.call((t, backup.kind, policy), tracing.run_search, root, config)
        return r

    def sims_per_round(self) -> int:
        return len(self.trees) * len(self.backups) * 2 * self.sims

    def check(self, outputs) -> None:
        for t, root in enumerate(self.trees):
            tree = root.tree
            checks.check_trap_tree(tree.leaf_values, tree.branching, tree.depth,
                                   tree.trap_actions, f"tree {t}")
        for label, result in outputs:
            if result is None:
                continue
            checks.check_search_tree(result.root, self.sims, str(label))
            if label[1] in ("softmax", "coulom"):
                checks.check_root_between(result.root, str(label))

    @staticmethod
    def digest(outputs):
        return [None if res is None else
                (res.best_action, tuple(res.visit_distribution.values()), res.root_q)
                for _, res in outputs]


class OracleTtt:
    """Searches from every tic-tac-toe position within two plies, with the
    noisy exact oracle standing in for a learned value network."""

    KNOTS = (-3.0, -2.0, -1.0)

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.plies = 1 if small else 2
        self.sims = 8 if small else 40
        # Positions come from the program's own rules; the checks compare
        # them with the reference rules.
        states = [empty_board()]
        frontier = states
        for _ in range(self.plies):
            frontier = [s.apply(a) for s in frontier for a in s.actions]
            frontier = [s for s in dict.fromkeys(frontier) if not s.terminal]
            states = states + frontier
        self.states = states
        self.backups = (MonotoneBackup.from_knots(self.KNOTS, self.sims),
                        StandardBackup())

    def round(self) -> Round:
        r = Round()
        for i, state in enumerate(self.states):
            for backup in self.backups:
                evaluator = NoisyOracleEvaluator(
                    noise_sd=0.1, seed=derive(self.seed, "ttt-noise", i, backup.kind))
                config = SearchConfig(
                    simulations=self.sims, policy="UCB1", exploration=1.0,
                    backup=tracing.wrap(backup), evaluator=tracing.wrap(evaluator),
                    seed=derive(self.seed, "ttt-search", i, backup.kind))
                r.call((i, backup.kind), tracing.run_search, state, config)
        return r

    def sims_per_round(self) -> int:
        return len(self.states) * len(self.backups) * self.sims

    @staticmethod
    def board(state) -> str:
        return "".join("X" if state.xs >> c & 1 else "O" if state.os >> c & 1
                       else "." for c in range(9))

    def check(self, outputs) -> None:
        boards = [self.board(s) for s in self.states]
        expected = reference.ttt_positions(self.plies)
        if sorted(boards) != sorted(expected):
            raise checks.CheckFailed(
                f"the program's rules reach {len(boards)} positions within "
                f"{self.plies} plies, the reference rules {len(expected)}")
        for (i, kind), result in outputs:
            if result is None:
                continue
            label = f"position {boards[i]} {kind}"
            checks.check_search_tree(result.root, self.sims, label)
            checks.check_ttt_search(boards[i], result, label)
        checks.check_oracle_values(boards, [minimax_value(s) for s in self.states],
                                   "minimax_value")

    digest = staticmethod(BackupSweep.digest)


class TuneTrap:
    """A scaled-down C7: the optimize subcommand on the trap pool."""

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.n_iter = 3 if small else 4
        self.games = 4 if small else 12
        self.sims = 24 if small else 400
        self.depth = TRAP_POOL["depth"]
        self.box = (-6.0, -1.0)
        self.m = 6
        self.horizon = 1000
        run_dir = os.path.join(OUT, "tune-trap")
        os.makedirs(run_dir, exist_ok=True)
        self.out_dir = os.path.join(run_dir, "optimize")
        self.config_path = os.path.join(run_dir, "optimize.ini")
        pool = "\n".join(f"{k} = {v}" for k, v in TRAP_POOL.items())
        with open(self.config_path, "w") as fh:
            fh.write(f"""[optimize]
kind = softmax
m = {self.m}
horizon = {self.horizon}
lo = {self.box[0]}
hi = {self.box[1]}
n_init = 2
n_iter = {self.n_iter}
seed = {derive(seed, "tune-optimize")}

[match]
games = {self.games}
sims_per_move = {self.sims}
seed = {derive(seed, "tune-match")}

[pool]
{pool}

[engine_a]
policy = PUCT
exploration = 0.1

[engine_b]
policy = PUCT
exploration = 0.1
""")

    def _optimize(self):
        argv = ["optimize", "--config", self.config_path, "--out", self.out_dir,
                "--workers", "2"]
        with contextlib.redirect_stdout(sys.stderr), HOST.alongside():
            status = tracing.dispatch(argv)
        if status != 0:
            raise RuntimeError(f"mctsopt {' '.join(argv)} exited with {status}")
        with open(os.path.join(self.out_dir, "history.csv"), newline="") as fh:
            history = [row[:-1] for row in csv.reader(fh)]   # drop timestamps
        with open(os.path.join(self.out_dir, "best.json")) as fh:
            return history, fh.read()

    def round(self) -> Round:
        r = Round()
        r.call("optimize", self._optimize)
        return r

    def sims_per_round(self) -> int:
        # Every game on a depth-d synthetic tree lasts exactly d moves.
        return self.n_iter * self.games * self.depth * self.sims

    def check(self, outputs) -> None:
        if outputs[0][1] is None:
            return
        knots = checks.check_optimize_outputs(self.out_dir, self.n_iter, self.m,
                                              *self.box, self.games)
        engine = SearchConfig(simulations=self.sims, policy="PUCT", exploration=0.1,
                              backup=SoftmaxBackup.from_knots(knots, self.horizon))
        match = MatchConfig(pool=SyntheticPool(**TRAP_POOL), engine_a=engine,
                            engine_b=engine, games=4, sims_per_move=self.sims,
                            seed=derive(self.seed, "tune-self-play"))
        checks.check_self_play(run_match(match)[0].win_rate_a)

    @staticmethod
    def digest(outputs):
        return [out for _, out in outputs]


WORKLOADS = {"tune-trap": TuneTrap, "oracle-ttt": OracleTtt,
             "backup-sweep": BackupSweep}


# ----------------------------------------------------------------- the run
def _time_setup(args) -> float:
    """Median wall time of fresh processes that import the program and
    build this workload's inputs, as a user's first run would.  Not
    scaled by the probe: set-up is mostly imports, whose time follows the
    probe's too loosely for the scaling to steady it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Rounds of one workload, timed until the run's time is used up."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.first = None        # outputs of the first round, for the checks
        self.reference = None    # digest every later round must repeat
        self.start = time.perf_counter()
        self.raw = []            # wall time of each round, probes included

    def round(self) -> float:
        """Run one round; its time at the reference host speed."""
        begin = time.perf_counter()
        HOST.probe(PROBE_REPEATS)
        probing = HOST.spent
        start = time.perf_counter()
        r = self.workload.round()
        elapsed = time.perf_counter() - start - (HOST.spent - probing)
        HOST.probe(PROBE_REPEATS)
        self.raw.append(time.perf_counter() - begin)
        self.attempted += r.attempted
        self.failed += r.failed
        digest = self.workload.digest(r.outputs)
        if self.first is None:
            self.first, self.reference = r.outputs, digest
        elif digest != self.reference:
            raise checks.CheckFailed("a round's outputs differ from the first "
                                     "round's on the same inputs")
        return HOST.scale(elapsed)

    def time_left(self, next_rounds: int = 1) -> bool:
        """Whether the next rounds, as long as the median one, fit in."""
        needed = next_rounds * statistics.median(self.raw)
        return time.perf_counter() - self.start + needed <= self.seconds


def _end_to_end(workload, setup_s: float, run: Run) -> dict:
    times = [run.round()]
    while run.time_left():
        times.append(run.round())
    sims = workload.sims_per_round()
    print(f"bench: {len(times)} rounds of {min(run.raw):.4f} to {max(run.raw):.4f} s "
          f"wall, {min(times):.4f} to {max(times):.4f} s at the reference speed",
          file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(times), "s"),
        "sims_per_s": (sims / statistics.median(times), "1/s"),
    }


def _per_layer(args, workload, tracer, run: Run) -> dict:
    plain, traced = [run.round()], []
    while True:
        with tracing.instrument(tracer):
            traced.append(run.round())
        if not run.time_left(2):
            break
        plain.append(run.round())
    metrics = tracing.layer_metrics(tracer, len(traced))
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.export(), fh)
    return metrics


def _environment() -> str:
    import numpy
    import scipy
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {os.cpu_count()} CPUs")


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimum-size inputs (self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    factory = WORKLOADS[args.workload]
    if args.setup_only:
        factory(args.seed, args.small)
        return 0

    print(f"bench: {_environment()}", file=sys.stderr)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            workload = factory(args.seed, args.small)
    else:
        setup_s = _time_setup(args)
        workload = factory(args.seed, args.small)
    run = Run(workload, args.seconds)
    correct = True
    metrics = {}
    try:
        if args.trace:
            metrics = _per_layer(args, workload, tracer, run)
        else:
            metrics = _end_to_end(workload, setup_s, run)
        workload.check(run.first)
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False
    if not args.trace:
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
