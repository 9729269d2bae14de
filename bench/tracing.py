"""Timed wrappers around the program's layer entry points.

A traced round runs inside ``instrument(tracer)``.  That swaps, for the
duration of the block, the names callers inside the package use for
``run_search``, ``run_match``, ``build_weight_table``, ``minimax_value``,
``fit_surrogate``, ``propose_next``, the optimize loop and objective, and
the backup, evaluator and pool classes, for wrappers that record a span
around each call.  The benchmark hands its own evaluator, backup and pool
objects through ``wrap``.  Nothing in the package changes; outside the
block the program runs untouched.

Spans of the coarse layers (searches, games, matches, optimiser steps) are
kept one by one as (name, start, end, parent index).  The per-simulation
layers (backup, evaluator, oracle) are kept as per-name totals of calls,
time and self time, so memory stays flat however many simulations run.
A span's self time is its duration minus that of its child spans.

Pool workers forked inside a traced match inherit the wrappers.  Each
worker gathers its game pair's spans in a fresh tracer and sends them back
attached to the pair's first game record; the parent merges them under the
match span.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass

import mctsopt.backup
import mctsopt.bayesopt
import mctsopt.cli
import mctsopt.games.oracle
import mctsopt.search
import mctsopt.tournament
from mctsopt.backup import BackupStrategy
from mctsopt.tournament import GameRecord

_clock = time.perf_counter

# The tracer of the running traced block and the process that opened it.
# Module state, because wrapped objects are pickled into pool workers and
# must find the tracer of whichever process they run in.
_active: Tracer | None = None
_owner_pid = 0


class Tracer:
    """Spans and counts gathered in one process."""

    def __init__(self):
        self._stack = []     # open spans: [name, start, child seconds, index]
        self.spans = []      # kept spans: [name, start, end, parent index]
        self.calls = {}      # name -> [calls, seconds, self seconds]
        self.counts = {}     # name -> exact work count

    def begin(self, name: str, keep: bool = True) -> None:
        index = None
        if keep:
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append([name, _clock(), 0.0, index])

    def end(self) -> None:
        end = _clock()
        name, start, child, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][1:3] = start, end
        entry = self.calls.get(name)
        if entry is None:
            entry = self.calls[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def export(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "counts": self.counts}

    def merge(self, payload: dict) -> None:
        """Adopt another process's spans under the innermost open span."""
        parent = self._stack[-1][3] if self._stack else None
        offset = len(self.spans)
        for name, start, end, up in payload["spans"]:
            self.spans.append([name, start, end,
                               parent if up is None else up + offset])
        for name, (n, total, own) in payload["calls"].items():
            entry = self.calls.setdefault(name, [0, 0.0, 0.0])
            entry[0] += n
            entry[1] += total
            entry[2] += own
        for name, amount in payload["counts"].items():
            self.add(name, amount)

    def durations(self, prefix: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans
                if name.startswith(prefix)]


def _timed(name: str, fn, *args, **kwargs):
    tracer = _active
    tracer.begin(name)
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.end()


# ------------------------------------------------------------------ wrappers
class TracedBackup(BackupStrategy):
    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.span = "backup." + inner.kind

    def backpropagate(self, path, value: float) -> None:
        tracer = _active
        tracer.begin(self.span, keep=False)
        try:
            self.inner.backpropagate(path, value)
        finally:
            tracer.end()


_EVALUATOR_SPANS = {"rollout": "oracle.rollout", "noisy_oracle": "oracle.noisy"}


class TracedEvaluator:
    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.span = _EVALUATOR_SPANS[inner.kind]

    def evaluate(self, state, rng=None) -> float:
        tracer = _active
        tracer.begin(self.span, keep=False)
        try:
            return self.inner.evaluate(state, rng)
        finally:
            tracer.end()


class TracedPool:
    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind

    def make(self, seed: int):
        return _timed("synthetic.make", self.inner.make, seed)


class _TracedClass:
    """Stands in for a class name: builds the real object, then wraps it."""

    def __init__(self, cls, wrapper):
        self.cls = cls
        self.wrapper = wrapper

    def __call__(self, *args, **kwargs):
        return self.wrapper(self.cls(*args, **kwargs))

    def from_knots(self, *args, **kwargs):
        return self.wrapper(self.cls.from_knots(*args, **kwargs))


@dataclass(frozen=True)
class _SpanCarrier(GameRecord):
    """A game record that also carries a pool worker's spans home."""

    payload: dict | None = None


def _count_nodes(root) -> int:
    nodes = 1
    stack = [root]
    while stack:
        children = stack.pop().children
        if children:
            nodes += len(children)
            stack.extend(children)
    return nodes


_ORIGINAL = {}


def _traced_run_search(root, config):
    tracer = _active
    key = f"{config.backup.kind}.{config.policy.lower()}"
    result = _timed("search." + key, _ORIGINAL["run_search"], root, config)
    # Counting the tree is benchmark work: give it its own span so that no
    # layer's self time includes it.
    tracer.begin("trace.count", keep=False)
    tracer.add("sims." + key, config.simulations)
    tracer.add("tree_nodes", _count_nodes(result.root))
    tracer.end()
    return result


def _traced_play_pair(args):
    global _active
    if os.getpid() == _owner_pid:
        return _timed("tournament.pair", _ORIGINAL["_play_pair"], args)
    _active = Tracer()
    first, second = _timed("tournament.pair", _ORIGINAL["_play_pair"], args)
    carrier = _SpanCarrier(**vars(first), payload=_active.export())
    return carrier, second


def _traced_run_match(config, workers: int = 1):
    tracer = _active
    # run_match plays in-process unless it has several workers and pairs.
    width = workers if workers > 1 and config.games > 2 else 1
    tracer.begin("tournament.match")
    start = _clock()
    try:
        result, records = _ORIGINAL["run_match"](config, workers)
        tracer.add("tournament.worker_seconds", width * (_clock() - start))
        for record in records:
            if isinstance(record, _SpanCarrier):
                tracer.merge(record.payload)
    finally:
        tracer.end()
    return result, records


def _span_fn(name: str, key: str):
    def traced(*args, **kwargs):
        return _timed(name, _ORIGINAL[key], *args, **kwargs)
    return traced


# (module, name callers use, timed stand-in)
_PATCHES = (
    (mctsopt.tournament, "run_search", _traced_run_search),
    (mctsopt.tournament, "_play_pair", _traced_play_pair),
    (mctsopt.tournament, "run_match", _traced_run_match),
    (mctsopt.tournament, "StandardBackup",
     _TracedClass(mctsopt.backup.StandardBackup, TracedBackup)),
    (mctsopt.tournament, "SoftmaxBackup",
     _TracedClass(mctsopt.backup.SoftmaxBackup, TracedBackup)),
    (mctsopt.backup, "build_weight_table",
     _span_fn("weights.build", "build_weight_table")),
    (mctsopt.games.oracle, "minimax_value",
     _span_fn("oracle.minimax", "minimax_value")),
    (mctsopt.bayesopt, "fit_surrogate", _span_fn("bayesopt.fit", "fit_surrogate")),
    (mctsopt.bayesopt, "propose_next", _span_fn("bayesopt.propose", "propose_next")),
    (mctsopt.cli, "bayesopt_loop", _span_fn("bayesopt.loop", "bayesopt_loop")),
    (mctsopt.cli, "winrate_objective",
     _span_fn("tournament.objective", "winrate_objective")),
    (mctsopt.cli, "RandomRolloutEvaluator",
     _TracedClass(mctsopt.games.oracle.RandomRolloutEvaluator, TracedEvaluator)),
    (mctsopt.cli, "SyntheticPool",
     _TracedClass(mctsopt.tournament.SyntheticPool, TracedPool)),
)

for _module, _name, _ in _PATCHES:
    _ORIGINAL[_name] = getattr(_module, _name)
_ORIGINAL["dispatch"] = mctsopt.cli.dispatch


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the program's layer calls through timed wrappers."""
    global _active, _owner_pid
    if _active is not None:
        raise RuntimeError("instrumentation is already active")
    _active, _owner_pid = tracer, os.getpid()
    for module, name, replacement in _PATCHES:
        setattr(module, name, replacement)
    try:
        yield tracer
    finally:
        for module, name, _ in _PATCHES:
            setattr(module, name, _ORIGINAL[name])
        _active = None


# ------------------------------------------- entry points the workloads use
def wrap(obj):
    """``obj`` itself outside a traced block, else its timed wrapper."""
    if _active is None:
        return obj
    if isinstance(obj, BackupStrategy):
        return TracedBackup(obj)
    if hasattr(obj, "evaluate"):
        return TracedEvaluator(obj)
    return TracedPool(obj)


def run_search(root, config):
    if _active is None:
        return mctsopt.search.run_search(root, config)
    return _traced_run_search(root, config)


def dispatch(argv) -> int:
    if _active is None:
        return mctsopt.cli.dispatch(argv)
    return _timed("cli.dispatch", _ORIGINAL["dispatch"], argv)


# ------------------------------------------------------- per-layer metrics
BACKUPS = ("standard", "erwa", "coulom", "feedback", "monotone", "softmax")
POLICIES = ("puct", "ucb1")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures from ``rounds`` traced rounds, as (value, unit).

    A layer the workload never calls reads 0.  Counts are per round; the
    rounds repeat the same operations, so they come out whole.
    """
    calls, counts = tracer.calls, tracer.counts

    def n(name):
        return calls.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return calls.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return calls.get(name, (0, 0.0, 0.0))[2]

    def per(amount, base, scale=1.0):
        return scale * amount / base if base else 0.0

    search_names = [name for name in calls if name.startswith("search.")]
    search_s = sum(total(name) for name in search_names)
    sims = sum(v for k, v in counts.items() if k.startswith("sims."))
    evaluator_calls = n("oracle.rollout") + n("oracle.noisy")
    m = {}
    for kind in BACKUPS:
        for policy in POLICIES:
            key = f"{kind}.{policy}"
            m[f"search.us_per_sim.{key}"] = (
                per(total("search." + key), counts.get("sims." + key, 0), 1e6), "us")
    m["search.select_expand_us_per_sim"] = (
        per(sum(own(name) for name in search_names), sims, 1e6), "us")
    deciles = statistics.quantiles(tracer.durations("search."), n=10,
                                   method="inclusive")
    m["search.ms_p50"] = (1e3 * deciles[4], "ms")
    m["search.ms_p90"] = (1e3 * deciles[8], "ms")
    m["search.evaluator_calls"] = (evaluator_calls // rounds, "count")
    m["search.terminal_hits"] = ((sims - evaluator_calls) // rounds, "count")
    m["search.tree_nodes"] = (counts.get("tree_nodes", 0) // rounds, "count")
    backup_s = 0.0
    for kind in BACKUPS:
        name = "backup." + kind
        backup_s += total(name)
        m[f"backup.us_per_call.{kind}"] = (per(total(name), n(name), 1e6), "us")
    m["backup.share"] = (per(backup_s, search_s), "fraction")
    for name in ("oracle.rollout", "oracle.noisy", "oracle.minimax"):
        m[name + ".us_per_call"] = (per(total(name), n(name), 1e6), "us")
    m["oracle.share"] = (
        per(total("oracle.rollout") + total("oracle.noisy"), search_s), "fraction")
    m["synthetic.make_ms"] = (per(total("synthetic.make"), n("synthetic.make"), 1e3), "ms")
    m["weights.build_ms"] = (per(total("weights.build"), n("weights.build"), 1e3), "ms")
    m["tournament.pair_ms"] = (
        per(total("tournament.pair"), n("tournament.pair"), 1e3), "ms")
    m["tournament.match_s"] = (
        per(total("tournament.match"), n("tournament.match")), "s")
    m["tournament.worker_busy_share"] = (
        per(total("tournament.pair"), counts.get("tournament.worker_seconds", 0)),
        "fraction")
    m["bayesopt.fit_ms"] = (per(total("bayesopt.fit"), n("bayesopt.fit"), 1e3), "ms")
    m["bayesopt.propose_ms"] = (
        per(total("bayesopt.propose"), n("bayesopt.propose"), 1e3), "ms")
    m["bayesopt.share"] = (
        per(own("bayesopt.loop") + total("bayesopt.fit") + total("bayesopt.propose"),
            total("cli.dispatch")), "fraction")
    m["cli.overhead_s"] = (per(own("cli.dispatch"), rounds), "s")
    return m
