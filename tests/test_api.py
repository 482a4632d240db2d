"""The public names and the README's library example."""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import pareto_atlas

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
