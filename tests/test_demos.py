"""Every demo and README example runs against the package's public names,
and those names are exactly the ones the demos, the README and the
benchmark import from the top level."""

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
