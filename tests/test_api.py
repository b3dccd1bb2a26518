"""The public surface: what ``__all__`` and the README promise exists and runs."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tagweaver

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(tagweaver.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"tagweaver.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_exists():
    tree = ast.parse((ROOT / "src" / "tagweaver" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tagweaver.{node.module}")
        assert [alias.name for alias in node.names if not hasattr(module, alias.name)] == []
        assert all(hasattr(tagweaver, alias.name) for alias in node.names)


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Mobile Statechart Method"
    assert len(lines) == 5
