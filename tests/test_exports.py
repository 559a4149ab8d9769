"""Every exported name resolves, no module exports a name twice, and each
name the package re-exports is exported by the module it comes from."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import subpix

MODULES = ["subpix"] + [f"subpix.{m.name}" for m in pkgutil.iter_modules(subpix.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_exported_by_their_module():
    tree = ast.parse(Path(subpix.__file__).read_text())
    source = {alias.asname or alias.name: node.module
              for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    assert set(subpix.__all__) - set(source) == {"__version__"}
    missing = [f"{source[n]}.{n}" for n in subpix.__all__ if n in source
               and n not in importlib.import_module(f"subpix.{source[n]}").__all__]
    assert missing == []
