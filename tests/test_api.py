"""The public names and the README's library and command line examples."""
from __future__ import annotations

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import pareto_atlas
from pareto_atlas.cli import main

PACKAGE = Path(pareto_atlas.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"pareto_atlas.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    private = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"pareto_atlas.{node.module}").__all__
    ]
    assert private == []


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
    assert (tmp_path / "atlas.csv").read_text().startswith("w_1,w_2,w_3,x_1")


def test_readme_library_names_resolve():
    """Every `name(` of the Library section is a public callable of the
    package or a method of a class it exports (`Class.method(` of that class)."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    public = {n: getattr(pareto_atlas, n) for n in dir(pareto_atlas) if not n.startswith("_")}
    classes = [obj for obj in public.values() if isinstance(obj, type)]

    def resolves(name):
        owner, _, attr = name.rpartition(".")
        if isinstance(public.get(owner), type):
            return callable(getattr(public[owner], attr, None))
        return callable(public.get(attr)) or any(
            callable(getattr(cls, attr, None)) for cls in classes)

    names = re.findall(r"`([\w.]+)\(", section)
    assert len(names) >= 12
    assert [name for name in names if not resolves(name)] == []


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of the "Command line" block exits 0, or with the code
    its ``# exits N`` comment gives, on a small data.csv and points.json."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("pareto-atlas ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    rows = np.random.default_rng(0).normal(size=(8, 3))
    (tmp_path / "data.csv").write_text("a,b,y\n" + "".join(f"{a},{b},{y}\n" for a, b, y in rows))
    (tmp_path / "points.json").write_text(json.dumps(
        {"family": "distance_squared", "points": [[0, 0], [1, 0], [0, 1]]}))
    for line in commands:
        expected = re.search(r"# exits (\d)", line)
        assert main(shlex.split(line, comments=True)[1:]) == (
            int(expected.group(1)) if expected else 0), line
    capsys.readouterr()
