"""Every demo and README example runs against the package's public names,
those names are exactly the ones the demos, the README and the benchmark
import from the top level, and every function and class the package
defines is named somewhere outside its own definition."""

import ast
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mctsopt
import mctsopt.games

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ARGS = {"trap_study.py": ["2"]}       # n_trees: two trees, not thirty
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                           re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run a copy, so a demo that saves a figure next to itself writes there.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), *ARGS.get(demo.name, [])],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def public_names(module):
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def imported_from_top_level(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "mctsopt"
            for alias in node.names}


def test_top_level_is_what_users_import():
    sources = README_BLOCKS + [path.read_text() for path in
                               (*DEMOS, *sorted((ROOT / "bench").glob("*.py")))]
    imported = set().union(*map(imported_from_top_level, sources))
    assert public_names(mctsopt) == imported
    assert public_names(mctsopt.games) == set()


def test_every_definition_has_a_caller():
    """Each non-dunder function and class in src/ appears as a word in
    src/, demos/, bench/ or README.md outside its own definition."""
    files = [*sorted((ROOT / "src").rglob("*.py")), *DEMOS,
             *sorted((ROOT / "bench").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.md")), ROOT / "README.md"]
    lines = {path: path.read_text().splitlines() for path in files}
    unused = []
    for path in files:
        if path.suffix != ".py" or ROOT / "src" not in path.parents:
            continue
        for node in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line) for other, text in lines.items()
                       for i, line in enumerate(text)
                       if not (other == path and i in own)):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []
