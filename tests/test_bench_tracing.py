"""The benchmark's tracing (bench/tracing.py) patches names the package
still has, puts every one of them back when its block ends, and sees the
layers an optimize run calls through them."""

import importlib
import sys
from pathlib import Path

import pytest

from mctsopt.cli import dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # nothing in bench/
    # The import itself looks up every name the tracing patches.
    return importlib.import_module("tracing")


def test_instrument_restores_every_patched_name(tracing):
    before = [getattr(module, name) for module, name, _ in tracing._PATCHES]
    with tracing.instrument(tracing.Tracer()):
        for module, name, replacement in tracing._PATCHES:
            assert getattr(module, name) is replacement, name
    after = [getattr(module, name) for module, name, _ in tracing._PATCHES]
    assert all(a is b for a, b in zip(after, before))
    assert tracing._active is None


def test_traced_optimize_calls_every_layer(tracing, tmp_path):
    """A layer the program calls without going through its patched name
    would read 0 calls here, and so 0 in the benchmark's metrics."""
    config = tmp_path / "opt.ini"
    config.write_text("""
[optimize]
kind = softmax
m = 2
n_init = 2
n_iter = 3

[match]
games = 2
sims_per_move = 10

[pool]
branching = 3
depth = 3

[engine_a]

[engine_b]
""")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert dispatch(["optimize", "--config", str(config),
                         "--out", str(tmp_path / "out"), "--workers", "1"]) == 0
    for name in ("tournament.objective", "backup.softmax", "backup.standard",
                 "weights.build", "bayesopt.fit", "bayesopt.propose",
                 "oracle.rollout", "synthetic.make"):
        assert tracer.calls.get(name, [0])[0] > 0, name


def test_traced_game_commands_draw_through_the_pool(tracing, tmp_path):
    """gen-game and analyze build their synthetic game through the name the
    tracing swaps, so they must not need more of it than kind and make."""
    game = "[game]\nbranching = 3\ndepth = 3\nseed = 5\n"
    configs = {"gen-game": game, "analyze": game + "[search]\nsimulations = 20\n"}
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for command, text in configs.items():
            config = tmp_path / f"{command}.ini"
            config.write_text(text)
            assert dispatch([command, "--config", str(config),
                             "--out", str(tmp_path / command)]) == 0
    assert tracer.calls["synthetic.make"][0] == 2
