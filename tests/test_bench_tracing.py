"""The benchmark's tracing (bench/tracing.py) patches names the package
still has, and puts every one of them back when its block ends."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_instrument_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # nothing in bench/
    # The import itself looks up every name the tracing patches.
    tracing = importlib.import_module("tracing")
    before = [getattr(module, name) for module, name, _ in tracing._PATCHES]
    with tracing.instrument(tracing.Tracer()):
        for module, name, replacement in tracing._PATCHES:
            assert getattr(module, name) is replacement, name
    after = [getattr(module, name) for module, name, _ in tracing._PATCHES]
    assert all(a is b for a, b in zip(after, before))
    assert tracing._active is None
